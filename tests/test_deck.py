import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdeck.constructions import padded_mt
from gapdeck.deck import (
    DEFAULT_FINGERPRINT_PRIMES,
    DeckSignature,
    ExactOverflowError,
    GapParams,
    _deck_tables,
    _trie_tables,
    count_gapped,
    deck_equal,
    enumerate_deck,
    exact_deck_equal,
    fingerprint,
    pattern_count,
    pattern_index,
    patterns_upto,
    signature,
    slice_bound,
    verify_eq7,
)
from gapdeck.search import find_collision
from gapdeck.strings import complement, parse_binary, reverse


def test_count_gapped_basic_values():
    assert count_gapped((1, 1), (0, 1, 1, 1, 0), 2) == 1
    assert count_gapped((1,), (0, 1, 0, 0, 1, 1), 2) == 3
    # only the index pair (0, 3) matches (1, 0) in 1001 under gap 2:
    # pairs (0,2),(0,3),(1,3) carry values (1,0),(1,1),(0,1)
    assert count_gapped((1, 0), (1, 0, 0, 1), 2) == 1


def test_count_gapped_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_gapped((), (0, 1), 2)


def test_count_gapped_gap_one_is_plain_subsequence_count():
    # C(4,2) index pairs in 1111 all match 11
    assert count_gapped((1, 1), (1, 1, 1, 1), 1) == 6
    assert count_gapped((1, 1), (1, 1, 1, 1), 2) == 3
    assert count_gapped((1, 1), (1, 1, 1, 1), 3) == 1


def test_pattern_order_is_length_then_lex():
    assert patterns_upto(2) == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert pattern_count(3) == 14


def test_deck_tables_are_the_heap_order_of_the_trie_tables():
    # the closed-form slices select exactly the columns the general trie
    # builder finds for the full binary deck, pinned empty prefix at column 0
    for k in range(1, 9):
        tables, cols = _trie_tables(patterns_upto(k))
        assert cols == {w: pattern_index(w) + 1 for w in patterns_upto(k)}
        width = pattern_count(k) + 1
        for (dst, src), (want_dst, want_src) in zip(_deck_tables(k), tables):
            assert np.array_equal(np.arange(width)[dst], want_dst)
            assert np.array_equal(np.arange(width)[src], want_src)


def test_enumerate_deck_worked_example():
    entries = enumerate_deck((1, 0, 0, 1), GapParams(2, 2))
    assert entries == [
        ((0,), 2),
        ((1,), 2),
        ((0, 1), 1),
        ((1, 0), 1),
        ((1, 1), 1),
    ]


def test_enumerate_deck_edge_cases():
    assert enumerate_deck((), GapParams(2, 2)) == []
    assert enumerate_deck((0,), GapParams(2, 1)) == [((0,), 1)]
    with pytest.raises(ValueError):
        enumerate_deck((0, 1), GapParams(2, 21))  # 2^22-2 patterns > 10^6


def test_deck_equal_known_pairs():
    p22 = GapParams(2, 2)
    assert deck_equal(parse_binary("010011"), parse_binary("001101"), p22)
    assert not deck_equal(parse_binary("01110"), parse_binary("10001"), p22)
    assert deck_equal(parse_binary("1001"), parse_binary("0110"), GapParams(1, 2))
    assert not deck_equal(parse_binary("1001"), parse_binary("0110"), p22)


def test_exact_deck_does_not_imply_full_deck():
    # same gapped 2-slice, different 1-slice
    x, y = parse_binary("01110"), parse_binary("10001")
    assert exact_deck_equal(x, y, GapParams(2, 2))
    assert not exact_deck_equal(x, y, GapParams(2, 1))
    assert not deck_equal(x, y, GapParams(2, 2))
    assert exact_deck_equal(x, x, GapParams(3, 2))


def test_deck_equal_unequal_lengths_is_false_via_counts():
    # the length-1 slice sums to n, so differing lengths can never agree
    assert not deck_equal((0, 1), (0, 1, 0), GapParams(2, 1))


def test_slice_bound():
    assert slice_bound(6, 2, 2) == math.comb(5, 2)
    assert slice_bound(4, 2, 2) == 3
    assert slice_bound(2, 2, 2) == 0
    assert slice_bound(0, 2, 1) == 0


def test_signature_sum_identity_random():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 60)
        s = rng.randint(1, 4)
        k = rng.randint(1, 5)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        sig = signature(x, GapParams(s, k))
        for ell in range(1, k + 1):
            assert sum(sig.length_slice(ell)) == slice_bound(n, s, ell)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=30), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["exact", "fingerprint"]))
def test_signature_complement_and_reversal_equivariance(x, s, k, mode):
    # pattern w counts in x as often as c(w) in c(x) and rev(w) in rev(x)
    x = tuple(x)
    params = GapParams(s, k)
    pats = patterns_upto(k)
    base = dict(zip(pats, signature(x, params, mode).counts))
    comp = dict(zip(pats, signature(complement(x), params, mode).counts))
    rev = dict(zip(pats, signature(reverse(x), params, mode).counts))
    for w in pats:
        assert comp[complement(w)] == base[w]
        assert rev[reverse(w)] == base[w]


def test_signature_depth_consistency():
    # counts for patterns up to k-1 are a prefix of the depth-k signature
    x = parse_binary("0100110101")
    s3 = signature(x, GapParams(2, 3))
    s2 = signature(x, GapParams(2, 2))
    assert s3.counts[: pattern_count(2)] == s2.counts


def test_exact_mode_refusal_and_fingerprint_fallback():
    x = tuple(i % 2 for i in range(2000))
    with pytest.raises(ExactOverflowError):
        signature(x, GapParams(2, 8))
    fp = signature(x, GapParams(2, 8), "fingerprint")
    assert fp.mode == "fingerprint"
    assert fp.primes == DEFAULT_FINGERPRINT_PRIMES
    assert deck_equal(x, x, GapParams(2, 8), "fingerprint")


def test_one_guard_decides_at_the_64_bit_edge():
    # the all-ones string reaches the gap-aware bound, which first passes
    # 2^64 at n=975 for (s, k) = (2, 8)
    params = GapParams(2, 8)
    ones = (1,) * 8
    x = (1,) * 974
    bound = slice_bound(974, 2, 8)
    assert 2**63 < bound < 2**64
    exact = signature(x, params)
    assert exact.counts[pattern_index(ones)] == bound
    assert count_gapped(ones, x, 2) == bound
    assert signature(x, params, "fingerprint") == fingerprint(exact)
    y = (1,) * 975
    with pytest.raises(ExactOverflowError):
        signature(y, params)
    with pytest.raises(ExactOverflowError):
        count_gapped(ones, y, 2)
    with pytest.raises(ExactOverflowError):
        find_collision(975, params)


def test_fingerprint_is_a_homomorphism_of_exact_counts():
    x = parse_binary("011010011101")
    params = GapParams(2, 3)
    exact = signature(x, params)
    assert fingerprint(exact) == signature(x, params, "fingerprint")


def test_default_fingerprint_primes_are_prime():
    sympy = pytest.importorskip("sympy")
    for p in DEFAULT_FINGERPRINT_PRIMES:
        assert sympy.isprime(p)
        assert p < 2**62  # residue sums of three moduli stay inside int64


def test_verify_eq7_known_cases():
    rep = verify_eq7(parse_binary("0010"), parse_binary("0100"), GapParams(2, 1))
    assert rep.all_equal
    rep = verify_eq7(parse_binary("010011"), parse_binary("001101"), GapParams(2, 2))
    assert rep.plain_equal
    rep = verify_eq7(parse_binary("0101"), parse_binary("0101"), GapParams(2, 2))
    assert rep.all_equal


_EQ7_PAIRS = [(p.x, p.y) for p in map(padded_mt, (1, 2, 3))] + [
    (parse_binary("010011"), parse_binary("001101")),
    (parse_binary("0010"), parse_binary("0100")),
    (parse_binary("01"), parse_binary("10")),
]


@st.composite
def _eq7_pairs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_EQ7_PAIRS))
    bits = st.lists(st.integers(0, 1), min_size=2, max_size=16)
    x = tuple(draw(bits))
    y = tuple(draw(st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x))))
    return x, y


@settings(max_examples=80, deadline=None)
@given(_eq7_pairs(), st.integers(1, 3), st.integers(1, 4), st.sampled_from(["exact", "fingerprint"]))
def test_two_pass_verify_eq7_matches_punctured_signatures(pair, s, k, mode):
    # R and LR are read off the passes over x and x[1:]; each flag must be
    # the comparison of the signatures of the sliced strings
    x, y = pair
    params = GapParams(s, k)
    rep = verify_eq7(x, y, params, mode)
    cuts = (slice(None), slice(1, None), slice(None, -1), slice(1, -1))  # plain, L, R, LR
    assert (rep.plain_equal, rep.l_equal, rep.r_equal, rep.lr_equal) == tuple(
        signature(x[c], params, mode).counts == signature(y[c], params, mode).counts
        for c in cuts
    )
    assert rep.mode == mode and rep.params == params


def test_verify_eq7_errors():
    with pytest.raises(ValueError):
        verify_eq7((0, 1), (0, 1, 0), GapParams(2, 1))
    with pytest.raises(ValueError):
        verify_eq7((0,), (1,), GapParams(2, 1))


def test_gap_params_validation():
    with pytest.raises(ValueError):
        signature((0, 1), GapParams(0, 1))
    with pytest.raises(ValueError):
        signature((0, 1), GapParams(2, 0))


def test_signature_record_shape():
    sig = signature((1, 0, 0, 1), GapParams(2, 2))
    assert isinstance(sig, DeckSignature)
    assert sig.mode == "exact"
    assert sig.primes == ()
