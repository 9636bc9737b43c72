import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdeck.deck import (
    ExactOverflowError,
    GapParams,
    _run_pass,
    _trie_tables,
    deck_equal,
    signature,
)
from gapdeck.oracle import find_collision_naive
from gapdeck.search import (
    DECK_KINDS,
    EQ7_STAR,
    EXACT_D,
    FULL_B,
    WILDCARD_U,
    CollisionReport,
    _grow,
    _hash_groups,
    _hash_lanes,
    _lane_hashes,
    _root,
    find_collision,
    search_G,
    search_G_star,
    search_SU,
    search_exact_D,
)
from gapdeck.strings import Puncture, puncture
from gapdeck.wildcard import USetSpec, count_wildcard, enumerate_U, u_equiv


def test_find_collision_literal_examples():
    p22 = GapParams(2, 2)
    assert find_collision(5, p22, FULL_B) is None
    pair = find_collision(6, p22, FULL_B)
    assert pair == ((0, 0, 1, 1, 0, 1), (0, 1, 0, 0, 1, 1))
    assert deck_equal(*pair, p22)
    assert find_collision(3, p22, EXACT_D) is not None


def test_find_collision_rejects_bad_arguments():
    with pytest.raises(ValueError):
        find_collision(0, GapParams(2, 2))
    with pytest.raises(ValueError):
        find_collision(4, GapParams(2, 2), "NOPE")
    with pytest.raises(ValueError):
        find_collision(1, GapParams(2, 1), EQ7_STAR)


def test_find_collision_overflow_guard():
    with pytest.raises(ExactOverflowError):
        find_collision(400, GapParams(2, 24), FULL_B)


def test_search_G_small_values():
    r = search_G(GapParams(2, 2), 8)
    assert r.n == 6
    assert r.scanned_lengths == (3, 4, 5, 6)
    x, y = r.witnesses[0]
    assert deck_equal(x, y, GapParams(2, 2))

    r = search_G(GapParams(2, 3), 13)
    assert r.n == 13
    assert deck_equal(*r.witnesses[0], GapParams(2, 3))


def test_search_G_classical_gap():
    for k, expected in ((2, 4), (3, 7), (4, 12)):
        assert search_G(GapParams(1, k), 12).n == expected


def test_search_G_open_report():
    r = search_G(GapParams(2, 2), 5)
    assert r.n is None
    assert r.witnesses == ()
    assert any("n_max" in note for note in r.notes)


def test_search_exact_D_minima():
    assert search_exact_D(GapParams(2, 2), 6).n == 3
    assert search_exact_D(GapParams(2, 3), 8).n == 5
    assert search_exact_D(GapParams(2, 4), 10).n == 7
    # gap 3: the depth-2 slice first exists at length 4, where two strings
    # agreeing at positions 0 and 3 already collide
    assert search_exact_D(GapParams(3, 2), 8).n == 4


def test_search_G_star_values():
    r = search_G_star(GapParams(2, 1), 6)
    assert r.n == 4
    assert r.witnesses[0] == ((0, 0, 1, 0), (0, 1, 0, 0))
    r2 = search_G_star(GapParams(2, 2), 10)
    assert r2.n == 8
    # the starred relation refines full-deck equality
    assert r2.n >= search_G(GapParams(2, 2), 10).n
    r33 = search_G_star(GapParams(3, 3), 19)
    assert r33.n == 19
    assert ["".join(map(str, w)) for w in r33.witnesses[0]] == [
        "0010001010010101010", "0010010000111001010"]


def test_full_deck_collision_implies_lower_depths():
    r = search_G(GapParams(2, 3), 13)
    x, y = r.witnesses[0]
    for k in (1, 2, 3):
        assert deck_equal(x, y, GapParams(2, k))


def test_bucketing_agrees_with_naive_pairwise():
    for n in range(1, 9):
        for s, k in ((1, 2), (2, 2), (2, 3), (3, 2)):
            fast = find_collision(n, GapParams(s, k), FULL_B)
            naive = find_collision_naive(n, GapParams(s, k))
            assert (fast is None) == (naive is None), (n, s, k)
            if fast is not None:
                assert fast == naive, (n, s, k)


def test_worker_count_does_not_change_reports():
    r1 = search_G(GapParams(2, 3), 13, workers=1)
    r4 = search_G(GapParams(2, 3), 13, workers=4)
    assert json.dumps(r1.to_record(), sort_keys=True) == json.dumps(
        r4.to_record(), sort_keys=True
    )


def test_checkpoint_resume(tmp_path):
    ckpt = str(tmp_path)
    first = find_collision(6, GapParams(2, 2), FULL_B, checkpoint=ckpt)
    logfile = tmp_path / "search.log"
    assert logfile.exists()
    entries = logfile.read_text().strip().splitlines()
    assert all(line.endswith("done") for line in entries)
    # second run consumes the sidecars instead of recomputing
    second = find_collision(6, GapParams(2, 2), FULL_B, checkpoint=ckpt)
    assert first == second
    assert logfile.read_text().strip().splitlines() == entries


@pytest.mark.parametrize("damage", ["short lanes", "cut file"])
def test_checkpoint_rejects_damaged_sidecar(tmp_path, damage):
    ckpt = str(tmp_path)
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    (sidecar,) = tmp_path.glob("*.npz")
    if damage == "short lanes":
        with np.load(sidecar) as data:
            h1, h2 = data["h1"], data["h2"]
        with open(sidecar, "wb") as fh:
            np.savez(fh, h1=h1[:-1], h2=h2[:-1])
    else:
        sidecar.write_bytes(sidecar.read_bytes()[:100])
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    # the range was recomputed and its sidecar rewritten whole, with no temp file left
    assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar.name, "search.log"]
    with np.load(sidecar) as data:
        assert data["h1"].shape == data["h2"].shape == (256,)


def test_checkpoint_rejects_foreign_sidecar(tmp_path, caplog):
    # a sidecar of another search, copied over this range's, must be
    # recomputed, not trusted: its lanes would hide the collision
    a, b = tmp_path / "a", tmp_path / "b"
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    find_collision(8, GapParams(2, 3), FULL_B, checkpoint=str(b))
    (mine,), (foreign,) = a.glob("*.npz"), b.glob("*.npz")
    mine.write_bytes(foreign.read_bytes())
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert "unusable" in caplog.text
    # the rewritten sidecar is this range's again, so the next resume loads it
    caplog.clear()
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert caplog.text == ""


def test_hash_groups_need_both_lanes():
    h1 = np.array([7, 3, 7, 5, 3, 7, 9, 3], dtype=np.uint64)
    h2 = np.array([1, 4, 2, 0, 4, 1, 9, 4], dtype=np.uint64)
    # 3, 3, 3 is one three-way group; of the three 7s only the two with
    # h2 = 1 group, and the one with h2 = 2 stays alone
    groups = _hash_groups(h1, h2)
    assert [g.tolist() for g in groups] == [[0, 5], [1, 4, 7]]
    assert _hash_groups(np.arange(5, dtype=np.uint64), np.zeros(5, dtype=np.uint64)) == []


def _reference_lanes(code, n, s, k, deck_kind):
    """Both hash lanes of one string from its deck signatures, in Python ints."""
    x = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
    params = GapParams(s, k)
    if deck_kind == EQ7_STAR:
        counts = [
            c
            for spec in (Puncture.NONE, Puncture.L, Puncture.R, Puncture.LR)
            for c in signature(puncture(x, spec), params).counts
        ]
    elif deck_kind == EXACT_D:
        counts = signature(x, params).length_slice(k)
    else:
        counts = signature(x, params).counts
    lanes = _hash_lanes(len(counts))
    return tuple(sum(int(a) * c for a, c in zip(row, counts)) % 2**64 for row in lanes)


@st.composite
def _blocks(draw):
    deck_kind = draw(st.sampled_from(DECK_KINDS))
    n = draw(st.integers(2 if deck_kind == EQ7_STAR else 1, 12))
    m = draw(st.integers(0, min(n, 8)))
    lo = draw(st.integers(0, (1 << (n - m)) - 1)) << m
    return draw(st.integers(1, 4)), draw(st.integers(1, 4)), deck_kind, n, lo, lo + (1 << m)


@settings(max_examples=60, deadline=None)
@given(_blocks())
def test_lane_hashes_match_signatures(block):
    s, k, deck_kind, n, lo, hi = block
    h1, h2 = _lane_hashes(n, s, k, deck_kind, lo, hi)
    got = [(int(a), int(b)) for a, b in zip(h1, h2)]
    assert got == [_reference_lanes(c, n, s, k, deck_kind) for c in range(lo, hi)]


@pytest.mark.parametrize("deck_kind", DECK_KINDS)
def test_lane_hashes_across_leaf_chunks(deck_kind):
    n, s, k = 18, 2, 3  # 2^18 rows: four leaf chunks
    h1, h2 = _lane_hashes(n, s, k, deck_kind, 0, 1 << n)
    for code in random.Random(18).sample(range(1 << n), 200):
        assert (int(h1[code]), int(h2[code])) == _reference_lanes(code, n, s, k, deck_kind)


def test_lane_hashes_need_an_aligned_block():
    for lo, hi in ((0, 3), (2, 6), (4, 12), (0, 32)):
        with pytest.raises(ValueError):
            _lane_hashes(4, 2, 2, FULL_B, lo, hi)


def _reference_u_lanes(code, m, family):
    """Both hash lanes of one Gamma string from count_wildcard, in Python ints."""
    p = "".join("XY"[(code >> (m - 1 - i)) & 1] for i in range(m))
    counts = [count_wildcard(w, p) for w in family]
    lanes = _hash_lanes(len(family))
    return tuple(sum(int(a) * c for a, c in zip(row, counts)) % 2**64 for row in lanes)


def _su_family(k1, k2):
    if k2 is None:
        return enumerate_U(USetSpec.single(1, k1))
    return enumerate_U(USetSpec.pair(k1, k2))


@st.composite
def _su_blocks(draw):
    # the families search_SU takes: U_1(k1), or U_1(k1) u U_2(k2)
    k2 = draw(st.one_of(st.none(), st.integers(2, 4)))
    k1 = draw(st.integers(1 if k2 is None else k2, 5))
    m = draw(st.integers(1, 12))
    b = draw(st.integers(0, min(m, 8)))
    lo = draw(st.integers(0, (1 << (m - b)) - 1)) << b
    return k1, k2, m, lo, lo + (1 << b)


@settings(max_examples=60, deadline=None)
@given(_su_blocks())
def test_wildcard_lane_hashes_match_count_wildcard(block):
    k1, k2, m, lo, hi = block
    h1, h2 = _lane_hashes(m, k1, k2, WILDCARD_U, lo, hi)
    family = _su_family(k1, k2)
    got = [(int(a), int(b)) for a, b in zip(h1, h2)]
    assert got == [_reference_u_lanes(c, m, family) for c in range(lo, hi)]


def test_wildcard_lane_hashes_across_leaf_chunks():
    m = 18  # 2^18 rows: four leaf chunks
    h1, h2 = _lane_hashes(m, 4, 3, WILDCARD_U, 0, 1 << m)
    family = _su_family(4, 3)
    for code in random.Random(18).sample(range(1 << m), 200):
        assert (int(h1[code]), int(h2[code])) == _reference_u_lanes(code, m, family)


def test_search_SU_values():
    r = search_SU(1)
    assert (r.n, r.witnesses[0]) == (2, ("XY", "YX"))
    assert search_SU(2).n == 4
    r32 = search_SU(3, 2)
    assert r32.n == 7
    assert r32.witnesses[0] == ("XYYXXXY", "YXXXYYX")
    assert r32.deck_kind == "WILDCARD_U"
    r43 = search_SU(4, 3)
    assert (r43.n, r43.witnesses[0]) == (12, ("XYYXXXYXXYYX", "YXXXYXYYXXXY"))
    r53 = search_SU(5, 3)
    assert (r53.n, r53.witnesses[0]) == (16, ("XYYXXXXXYYYXXXXY", "YXXXXYYYXXXXXYYX"))
    assert u_equiv(*r53.witnesses[0], USetSpec.pair(5, 3))


@st.composite
def _families(draw):
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        return enumerate_U(USetSpec.single(draw(st.integers(1, k)), k))
    k2 = draw(st.integers(2, 4))
    return enumerate_U(USetSpec.pair(draw(st.integers(k2, 5)), k2))


@settings(max_examples=60, deadline=None)
@given(_families(), st.text(alphabet="XY", max_size=10))
def test_wildcard_kernel_matches_count_wildcard(family, p):
    # both kernels over the family's trie: one pass over p, and p's row of
    # the prefix tree that search_SU grows
    tables, cols = _trie_tables(family, "XY")
    want = [count_wildcard(w, p) for w in family]
    row = _run_pass(["XY".index(c) for c in p], 1, tables, len(cols) + 1)[1][0]
    assert [int(row[cols[w]]) for w in family] == want
    levels = [_root(len(cols) + 1)]
    _grow(levels, len(p), 1, tables)
    leaf = levels[len(p)][int("0" + p.translate(str.maketrans("XY", "01")), 2)]
    assert [int(leaf[cols[w]]) for w in family] == want


def _loaded_and_computed(caplog):
    """(computed, loaded) range counts of each find_collision INFO line."""
    found = (re.search(r"ranges (\d+) computed / (\d+) loaded", r.getMessage())
             for r in caplog.records)
    return [(int(m[1]), int(m[2])) for m in found if m]


def test_search_SU_checkpoint_resume(tmp_path, caplog):
    fresh = search_SU(4, 3).to_record()
    ckpt = str(tmp_path)
    # sidecars of another family in the same directory are never loaded
    assert search_SU(3, 2, checkpoint=ckpt).n == 7
    caplog.set_level("INFO", logger="gapdeck.search")
    caplog.clear()
    assert search_SU(4, 3, checkpoint=ckpt).to_record() == fresh
    assert _loaded_and_computed(caplog) == [(1, 0)] * 12
    caplog.clear()
    assert search_SU(4, 3, checkpoint=ckpt).to_record() == fresh
    assert _loaded_and_computed(caplog) == [(0, 1)] * 12
    # a (3, 2) sidecar copied over the (4, 3) one of the same length is
    # rejected by its range key and recomputed
    (mine,) = tmp_path.glob("WILDCARD_U_k14_k23_n7_*.npz")
    (foreign,) = tmp_path.glob("WILDCARD_U_k13_k22_n7_*.npz")
    mine.write_bytes(foreign.read_bytes())
    caplog.clear()
    assert search_SU(4, 3, checkpoint=ckpt).to_record() == fresh
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog)[6] == (1, 0)


def test_search_SU_open_and_validation():
    assert search_SU(3, 2, m_max=5).n is None
    with pytest.raises(ValueError):
        search_SU(2, 3)  # pair form needs k1 >= k2
    with pytest.raises(ValueError):
        search_SU(0)


def test_report_record_round_trip():
    r = search_G(GapParams(2, 2), 6)
    rec = r.to_record()
    assert rec["n"] == 6
    assert rec["deck_kind"] == FULL_B
    assert rec["params"] == {"s": 2, "k": 2}
    assert rec["witnesses"] == [["001101", "010011"]]
    assert isinstance(r, CollisionReport)
