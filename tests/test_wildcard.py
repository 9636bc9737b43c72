import itertools
import random

import pytest

from gapdeck.constructions import padded_mt
from gapdeck.deck import GapParams, _moduli, signature, verify_eq7
from gapdeck.wildcard import (
    Lemma3Instance,
    USetSpec,
    count_wildcard,
    enumerate_U,
    lemma3_check,
    pad_zero,
    substitute,
    u_equiv,
)


def test_count_wildcard_worked_example():
    assert count_wildcard("JX", "YXYX") == 4


def test_count_wildcard_plain_patterns():
    assert count_wildcard("XX", "XXXX") == 6
    assert count_wildcard("XY", "XYXY") == 3
    assert count_wildcard("Y", "XXXX") == 0
    assert count_wildcard("JJ", "XYX") == 3


def test_count_wildcard_rejects_wildcards_in_target():
    with pytest.raises(ValueError):
        count_wildcard("X", "XJY")


def test_expansion_sum_identity_random():
    # a J-pattern's count is the sum over all letter resolutions of its Js
    rng = random.Random(7)
    for _ in range(500):
        w = "".join(rng.choice("XYJ") for _ in range(rng.randint(1, 5)))
        p = "".join(rng.choice("XY") for _ in range(rng.randint(1, 20)))
        js = [i for i, c in enumerate(w) if c == "J"]
        total = 0
        for combo in itertools.product("XY", repeat=len(js)):
            resolved = list(w)
            for i, c in zip(js, combo):
                resolved[i] = c
            total += count_wildcard("".join(resolved), p)
        assert total == count_wildcard(w, p)


def test_enumerate_U_single():
    assert enumerate_U(USetSpec.single(1, 2)) == ["X", "Y", "JX", "JY", "XJ", "YJ"]
    assert len(enumerate_U(USetSpec.single(1, 1))) == 2
    assert len(enumerate_U(USetSpec.single(2, 2))) == 4


def test_enumerate_U_pair_merges_without_duplicates():
    fam = enumerate_U(USetSpec.pair(3, 2))
    assert len(fam) == len(set(fam))
    assert "X" in fam and "XX" in fam and "JJX" in fam
    single = set(enumerate_U(USetSpec.single(1, 3)))
    double = set(enumerate_U(USetSpec.single(2, 2)))
    assert set(fam) == single | double


def test_uset_spec_validation():
    with pytest.raises(ValueError):
        USetSpec.single(3, 2)
    with pytest.raises(ValueError):
        USetSpec.pair(2, 3)
    with pytest.raises(ValueError):
        USetSpec.pair(2, 1)


def test_u_equiv_depth_sensitivity():
    assert u_equiv("XY", "YX", USetSpec.single(1, 1))
    assert not u_equiv("XY", "YX", USetSpec.single(1, 2))
    with pytest.raises(ValueError):
        u_equiv("XJ", "XX", USetSpec.single(1, 1))


def test_pad_zero_and_substitute():
    assert pad_zero((1, 1)) == (0, 1, 1, 0)
    assert pad_zero(()) == (0, 0)
    out = substitute("XY", (0, 1, 0, 1), (1, 1, 0, 0))
    assert out == (0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0)
    # length law: |p| * (|x| + 2)
    assert len(substitute("XYX", (1, 0), (0, 1))) == 3 * 4
    with pytest.raises(ValueError):
        substitute("XJ", (0, 1), (1, 0))


def test_lemma3_instance_validation():
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (0, 1), "XY", "YX", 1, 1)  # x == y
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (1, 0), "XY", "XY", 1, 1)  # p == q
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (1, 0, 0), "XY", "YX", 1, 1)  # length mismatch
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (1, 0), "XJ", "YX", 1, 1)  # wildcard in p
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (1, 0), "XY", "YX", 1, 3)  # sigma out of range
    with pytest.raises(ValueError):
        Lemma3Instance((0, 1), (1, 0), "XY", "YX", 1, 0)  # k + sigma < 2


def test_lemma3_flags_on_the_minimal_instance():
    """The substitution harness reports flags exactly as computed.

    On the smallest checkable instance (depth-1 padded pair, the minimal
    U(3,2)-equivalent pattern pair), both hypotheses hold, the substituted
    strings are distinct, and all four depth-4 deck-equality conclusions
    come out false: the counts genuinely differ (e.g. pattern 0000 occurs
    39033 vs 39031 times). The harness must not paper over that.
    """
    pair = padded_mt(1)
    inst = Lemma3Instance(
        x=pair.x, y=pair.y, p="XYYXXXY", q="YXXXYYX", k=1, sigma=1
    )
    rep = lemma3_check(inst)
    assert rep.hypothesis_eq7
    assert rep.hypothesis_uequiv
    assert rep.hypotheses_true
    assert rep.distinct
    assert rep.depth == 4
    assert rep.mode == "exact"
    assert not rep.conclusion_plain
    assert not rep.conclusion_l
    assert not rep.conclusion_r
    assert not rep.conclusion_lr
    assert not rep.conclusions_true


def test_lemma3_past_64_bits_is_exact():
    """Past 2^64, lemma3_check's flags are exact and say so.

    k=2, sigma=2 (depth 8): 70 blocks of 14 bits give substituted strings of
    length 980, past n=975 where (2, 8) counts may exceed 64 bits, so the
    guard takes two primes. The pattern pair is the smallest
    U(6,4)-equivalent pair padded by 47 shared X's, once around it (all four
    conclusions come out equal) and once after it (none does); either way
    the flags are those of a direct verify_eq7 at depth 3k+sigma, and of the
    exact signatures of the punctured strings.
    """
    pair = padded_mt(2)
    p, q = "XYYXXXXXXXYXYXXXXXXXYYX", "YXXXXYYXXXXXXXXXYYXXXXY"
    flags = []
    for p, q in (("X" * 23 + p + "X" * 24, "X" * 23 + q + "X" * 24),
                 (p + "X" * 47, q + "X" * 47)):
        rep = lemma3_check(Lemma3Instance(pair.x, pair.y, p, q, k=2, sigma=2))
        assert rep.to_record()["mode"] == "exact"
        assert rep.hypotheses_true
        hp, hq = substitute(p, pair.x, pair.y), substitute(q, pair.x, pair.y)
        assert len(hp) == 980 and len(_moduli(980, 2, 8)) == 2
        direct = verify_eq7(hp, hq, GapParams(2, 3 * 2 + 2))
        got = (rep.conclusion_plain, rep.conclusion_l, rep.conclusion_r, rep.conclusion_lr)
        assert got == (direct.plain_equal, direct.l_equal, direct.r_equal, direct.lr_equal)
        cuts = (slice(None), slice(1, None), slice(None, -1), slice(1, -1))  # plain, L, R, LR
        assert got == tuple(signature(hp[c], GapParams(2, 8)).counts
                            == signature(hq[c], GapParams(2, 8)).counts for c in cuts)
        flags.append(got)
    assert flags[0] != flags[1]  # the comparison is not between constant flags


def test_lemma3_record_fields():
    pair = padded_mt(1)
    inst = Lemma3Instance(pair.x, pair.y, "XXY", "YXX", 1, 1)
    rec = lemma3_check(inst).to_record()
    assert set(rec) == {
        "hypothesis_eq7",
        "hypothesis_uequiv",
        "distinct",
        "conclusion_plain",
        "conclusion_l",
        "conclusion_r",
        "conclusion_lr",
        "depth",
        "mode",
        "hypotheses_true",
        "conclusions_true",
    }
