import math
import random
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapdeck import deck
from gapdeck.constructions import padded_mt
from gapdeck.deck import (
    DEFAULT_FINGERPRINT_PRIMES,
    DeckSignature,
    GapParams,
    _chain_split,
    _deck_tables,
    _heap_split,
    _moduli,
    _punctured_counts,
    _run_pass,
    count_gapped,
    deck_equal,
    enumerate_deck,
    exact_deck_equal,
    pattern_count,
    pattern_index,
    patterns_upto,
    signature,
    slice_bound,
    verify_eq7,
)
from gapdeck.oracle import count_gapped_naive, signature_counts_naive
from gapdeck.search import find_collision
from gapdeck.strings import complement, parse_binary, reverse
from gapdeck.wildcard import count_wildcard


@contextmanager
def _toy_moduli(primes, limit):
    """The guard on toy primes, which it takes from the bound `limit` up
    instead of from 2^64."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deck, "DEFAULT_FINGERPRINT_PRIMES", primes)
        mp.setattr(deck, "_UINT64_LIMIT", limit)
        yield


# toy primes for the residue path at small lengths: counts of 8 and more
# take one or two of them (their products are 251, 60491, ...)
_RESIDUES = (251, 241, 239, 233), 8


def _moduli_used(toy: bool):
    return _toy_moduli(*_RESIDUES) if toy else nullcontext()


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


def test_deck_tables_are_the_heap_order_of_the_patterns():
    # the closed-form slices select, for letter c, the columns of the
    # patterns that end in c and the columns of their parents, in the same
    # order: pattern w at pattern_index(w) + 1, the empty prefix at column 0
    for k in range(1, 9):
        columns = np.arange(pattern_count(k) + 1)
        for c, (dst, src) in enumerate(_deck_tables(k)):
            ends = [w for w in patterns_upto(k) if w[-1] == c]
            assert columns[dst].tolist() == [pattern_index(w) + 1 for w in ends]
            assert columns[src].tolist() == [pattern_index(w[:-1]) + 1 if len(w) > 1 else 0
                                             for w in ends]


def _selects(split, ndim, column, want_width):
    """Checks split's keys against a layout on states of one row (ndim 1) or
    two (ndim 2) holding their own column numbers: the narrow columns are
    those of the prefixes shorter than the longest, and letter c's dst the
    columns of the prefixes ending in c, src their parents', and put (in a
    narrow state) and head (in the letter's array) the narrow ones of dst."""
    width, narrow, letters = split
    assert width == want_width
    state = np.arange(width) if ndim == 1 else np.tile(np.arange(width), (2, 1))

    def rows(cols):
        return [cols] * (1 if ndim == 1 else 2)

    def got(a):
        assert a.ndim == ndim
        return np.atleast_2d(a).tolist()

    longest = max(map(len, column))
    short = sorted(column[w] for w in column if len(w) < longest)
    assert got(state[narrow]) == rows(short)
    for c, (dst, src, put, head, size) in enumerate(letters):
        ends = sorted((column[w], column[w[:-1]], len(w) < longest) for w in column if w[-1:] == (c,))
        assert size == len(ends)
        assert got(state[dst]) == rows([e[0] for e in ends])
        assert got(state[src]) == rows([e[1] for e in ends])
        kept = rows([e[0] for e in ends if e[2]])
        assert got(state[narrow][put]) == got(state[dst][head]) == kept


def test_heap_split_selects_the_heap_columns_of_the_patterns():
    # from the layout's definition, not from _deck_tables: pattern w at
    # column pattern_index(w) + 1, the empty prefix at 0; one split serves
    # states of one row and of many
    for k in range(1, 13):
        column = {(): 0, **{w: pattern_index(w) + 1 for w in patterns_upto(k)}}
        for ndim in (1, 2):
            _selects(_heap_split(k), ndim, column, pattern_count(k) + 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=16).map(tuple))
def test_chain_split_selects_the_prefixes_of_the_pattern(w):
    # count_gapped's trie of one pattern w: column j holds the prefix w[:j]
    column = {w[:j]: j for j in range(len(w) + 1)}
    for ndim in (1, 2):
        _selects(_chain_split(w, ndim), ndim, column, len(w) + 1)


def test_count_gapped_runs_past_any_heap():
    # a pattern of length 30 is a 31-column chain, where a depth-30 heap
    # would take 2^31 columns; C(142, 30) needs two primes, so the chain's
    # 2-D keys run
    assert count_gapped((1,) * 30, (1,) * 200, 3) == slice_bound(200, 3, 30)


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
       st.booleans())
def test_signature_complement_and_reversal_equivariance(x, s, k, toy):
    # pattern w counts in x as often as c(w) in c(x) and rev(w) in rev(x)
    x = tuple(x)
    params = GapParams(s, k)
    pats = patterns_upto(k)
    with _moduli_used(toy):
        base = dict(zip(pats, signature(x, params).counts))
        comp = dict(zip(pats, signature(complement(x), params).counts))
        rev = dict(zip(pats, signature(reverse(x), params).counts))
    for w in pats:
        assert comp[complement(w)] == base[w]
        assert rev[reverse(w)] == base[w]


def test_signature_depth_consistency():
    # counts for patterns up to k-1 are a prefix of the depth-k signature
    x = parse_binary("0100110101")
    s3 = signature(x, GapParams(2, 3))
    s2 = signature(x, GapParams(2, 2))
    assert s3.counts[: pattern_count(2)] == s2.counts


def test_one_guard_decides_at_the_64_bit_edge():
    # the all-ones string reaches the gap-aware bound, which first passes
    # 2^64 at n=975 for (s, k) = (2, 8): below it the guard keeps one uint64
    # row, from it two primes, and the counts are exact on both sides
    params = GapParams(2, 8)
    ones = (1,) * 8
    assert 2**63 < slice_bound(974, 2, 8) < 2**64 <= slice_bound(975, 2, 8)
    for n, primes in ((974, 0), (975, 2)):
        x = (1,) * n
        mods = _moduli(n, 2, 8)
        assert (0 if mods is None else len(mods)) == primes
        assert signature(x, params).counts[pattern_index(ones)] == slice_bound(n, 2, 8)
        assert count_gapped(ones, x, 2) == slice_bound(n, 2, 8)
    # past 2^64 every slice still sums to its bound exactly
    x = tuple(random.Random(975).getrandbits(1) for _ in range(2000))
    sig = signature(x, params)
    assert slice_bound(2000, 2, 8) > 2**64
    for ell in range(1, 9):
        assert sum(sig.length_slice(ell)) == slice_bound(2000, 2, ell)
    assert deck_equal(x, x, params)
    # a search's 2^975 lanes are refused before anything is listed
    with pytest.raises(MemoryError, match=r"^n=975 needs 8 \* 2\^975 bytes of hash lanes"):
        find_collision(975, params)


_TOY = (13, 11, 7, 5)  # products 13, 143, 1001 and 5005


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 4), st.integers(1, 8), st.randoms(use_true_random=False))
@example(13, 1, 1, random.Random(0))  # B = 13, the first prime: two are taken
@example(14, 1, 4, random.Random(0))  # B = C(14, 4) = 1001, three primes' product: four
@example(15, 1, 6, random.Random(0))  # B = C(15, 6) = 5005, all four's product: refused
def test_toy_moduli_decide_counts_exactly_below_their_product(n, s, k, rnd):
    # the argument at its edge, on toy primes taken from bound 4 up: the
    # guard takes the fewest primes whose product exceeds the bound B, the
    # counts it then gives are the naive ones, and it refuses exactly when
    # the product of all four is at most B
    params = GapParams(s, k)
    bound = max(slice_bound(n, s, ell) for ell in range(1, k + 1))
    with _toy_moduli(_TOY, 4):
        if math.prod(_TOY) <= bound:
            with pytest.raises(OverflowError, match="past the 13-bit product"):
                signature((0,) * n, params)
            return
        mods = _moduli(n, s, k)
        r = 0 if bound < 4 else min(r for r in range(1, 5) if math.prod(_TOY[:r]) > bound)
        assert ([] if mods is None else mods[:, 0].tolist()) == list(_TOY[:r])
        x = tuple(rnd.getrandbits(1) for _ in range(n))
        assert signature(x, params).counts == signature_counts_naive(x, params)
        if n:
            w = tuple(rnd.getrandbits(1) for _ in range(rnd.randint(1, k)))
            assert count_gapped(w, x, s) == count_gapped_naive(w, x, s)


def test_counts_past_64_bits_match_an_independent_count():
    # at s=1 the deck counts are count_wildcard's Python ints over X/Y; at
    # n=600, k=12 the bound C(600, 12) passes 2^81, the guard takes two
    # primes, and the long patterns' counts themselves pass 2^64
    rng = random.Random(12)
    x = tuple(rng.getrandbits(1) for _ in range(600))
    assert len(_moduli(600, 1, 12)) == 2
    sig = signature(x, GapParams(1, 12))
    pats = patterns_upto(12)
    picks = rng.sample(range(len(pats)), 24) + [pattern_index((0,) * 12), pattern_index((1,) * 12)]
    for i in picks:
        w = "".join("XY"[b] for b in pats[i])
        assert sig.counts[i] == count_wildcard(w, "".join("XY"[b] for b in x))
    assert sum(sig.counts[i] > 2**64 for i in picks) > 10


def _is_prime(n: int) -> bool:
    """Miller-Rabin on bases 2..37, which is deterministic below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(r - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def test_default_fingerprint_primes_are_prime():
    # the test itself: trial division below 10^4, a strong pseudoprime to
    # every base up to 23, and the Mersenne prime 2^61 - 1
    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(2, 10**4) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)
    # the pinned moduli are the five largest primes below 2^62, so two
    # residues always sum below 2^63 and never wrap uint64
    lo = DEFAULT_FINGERPRINT_PRIMES[-1]
    assert list(DEFAULT_FINGERPRINT_PRIMES) == [n for n in range(2**62 - 1, lo - 1, -1) if _is_prime(n)]
    assert len(DEFAULT_FINGERPRINT_PRIMES) == 5


def test_guard_picks_the_moduli_of_each_padded_instance():
    # arithmetic only, no counting pass: the bound's bits at (2, k) on
    # padded_mt(k), of length 4(2^k - 1), and the primes each one takes
    for k, bits, primes in ((7, 51, 0), (10, 99, 2), (13, 163, 3), (14, 188, 4), (16, 244, 4)):
        n = 4 * (2**k - 1)
        assert max(slice_bound(n, 2, ell) for ell in range(1, k + 1)).bit_length() == bits
        mods = _moduli(n, 2, k)
        assert (0 if mods is None else len(mods)) == primes
    # past the product of all five (2^309 and more) the guard refuses
    with pytest.raises(OverflowError, match="^counts for n=10000, s=1, k=40 may reach 373 "
                                            "bits, past the 310-bit product of the pinned primes$"):
        _moduli(10000, 1, 40)


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
@given(_eq7_pairs(), st.integers(1, 3), st.integers(1, 4), st.booleans())
def test_two_pass_verify_eq7_matches_punctured_signatures(pair, s, k, toy):
    # R and LR are read off the ring of the one stacked pass over x[1:];
    # each flag must be the comparison of the signatures of the sliced strings
    x, y = pair
    params = GapParams(s, k)
    cuts = (slice(None), slice(1, None), slice(None, -1), slice(1, -1))  # plain, L, R, LR
    with _moduli_used(toy):
        rep = verify_eq7(x, y, params)
        assert (rep.plain_equal, rep.l_equal, rep.r_equal, rep.lr_equal) == tuple(
            signature(x[c], params).counts == signature(y[c], params).counts for c in cuts
        )
    assert rep.mode == "exact" and rep.params == params


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=14), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([0, 10**6, 10**12]), st.data())
def test_run_pass_continues_from_a_start_ring(x, s, k, n, data):
    # a pass's ring is the state a later pass starts from: splitting x at any
    # j and continuing from the first part's ring gives the same s+1 states,
    # on the rows the guard takes for x or for a length n (up to 3 primes)
    split, mods = _heap_split(k), _moduli(max(n, len(x)), s, k)
    whole = [state.tolist() for state in _run_pass(x, s, split, mods)]
    j = data.draw(st.integers(0, len(x)))
    ring = _run_pass(x[:j], s, split, mods)
    assert [state.tolist() for state in _run_pass(x[j:], s, split, mods, ring)] == whole


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=14).map(tuple), st.integers(1, 4),
       st.integers(1, 5), st.booleans(), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
@example((1, 0, 1, 1, 0, 1, 0, 0, 1), 2, 3, False, False, False, random.Random(0))
@example((0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0), 1, 4, True, True, False, random.Random(0))
@example((1, 1, 0, 1, 0, 0, 1, 1, 0, 1), 3, 5, True, False, True, random.Random(0))
def test_every_ring_state_is_the_naive_count_of_its_prefix(x, s, k, toy, stacked, chain, rnd):
    # every one of the s+1 states a pass returns, leaves included, against
    # the oracle: ring[m] holds the counts after the first len(y) - s + m
    # letters of the pass over y, the root standing in for fewer than none.
    # On the deck's heap (depth k) or count_gapped's chain of a pattern w
    # (length up to k), as one exact row or as the residues of the toy
    # moduli, from the root (y = x) or from _punctured_counts's stacked start
    # ring (y = x[1:], whose blocks run on x and on x[1:])
    if chain:
        w = tuple(rnd.getrandbits(1) for _ in range(rnd.randint(1, k)))

        def counts(prefix):
            return [1] + [count_gapped_naive(w[:j], prefix, s) for j in range(1, len(w) + 1)]
    else:
        def counts(prefix):
            return [1] + list(signature_counts_naive(prefix, GapParams(s, k)))
    with _moduli_used(toy):
        mods = _moduli(len(x), s, k)
    primes = [None] if mods is None else mods[:, 0].tolist()

    def rows(prefix):
        return [[n if p is None else n % p for n in counts(prefix)] for p in primes]

    # the chain's keys are per ndim: 1-D for one exact row from the root
    split = _chain_split(w, 2 if stacked or mods is not None else 1) if chain else _heap_split(k)
    if stacked:
        y = x[1:]
        start = [rows(()) * 2] * s + [rows(x[:1]) + rows(())]
        ring = _run_pass(y, s, split, mods, [np.array(r, dtype=np.uint64) for r in start])
        want = [rows(x[: max(t + 1, 0)]) + rows(y[: max(t, 0)]) for t in range(len(y) - s, len(y) + 1)]
    else:
        ring = _run_pass(x, s, split, mods)
        want = [rows(x[: max(t, 0)]) for t in range(len(x) - s, len(x) + 1)]
    assert len(ring) == s + 1
    assert [state.tolist() for state in ring] == want


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=14).map(tuple), st.integers(1, 4),
       st.integers(1, 5), st.booleans())
@example((0, 1), 1, 1, False)
@example((1, 1, 0, 1, 0, 0, 1, 1, 1, 0), 1, 3, True)
@example((1, 0), 4, 5, False)
def test_stacked_pass_gives_the_four_punctured_decks(x, s, k, toy):
    # the one pass over x[1:] on two blocks, started from x[0] and from the
    # root, ends on the decks of x and x[1:]; the states before its last
    # letter are those of x[:-1] and x[1:-1], each as residues of the
    # moduli of len(x)
    params = GapParams(s, k)
    cuts = (slice(None), slice(1, None), slice(None, -1), slice(1, -1))  # plain, L, R, LR
    with _moduli_used(toy):
        mods = _moduli(len(x), s, k)
        primes = [None] if mods is None else mods[:, 0].tolist()
        want = [[[n if p is None else n % p for n in signature(x[c], params).counts]
                 for p in primes] for c in cuts]
        got = _punctured_counts(x, s, k)
    assert [a.tolist() for a in got] == want


def test_single_exact_pass_returns_row_states():
    # one exact row from the root runs on a 1-D state, but its ring holds
    # (1, width) states like every other pass, on the deck's heap split and
    # on count_gapped's chain split alike
    x = (0, 1, 1, 0, 1, 0, 0, 1, 1)
    for s in (1, 2, 3):
        ring = _run_pass(x, s, _heap_split(3))
        assert len(ring) == s + 1 and {state.shape for state in ring} == {(1, 15)}
        w = (1, 0, 1)
        chain = _run_pass(x, s, _chain_split(w, 1))
        assert {state.shape for state in chain} == {(1, 4)}
        assert chain[-1][0].tolist() == [1] + [count_gapped_naive(w[:j], x, s) for j in (1, 2, 3)]


def test_stacked_pass_memory_guard_counts_every_row(monkeypatch):
    # verify_eq7's pass stacks two blocks of the rows the guard takes (two
    # primes for padded_mt(8) at depth 10): its guard counts all of them,
    # and the message is the single pass's
    x = padded_mt(8).x
    rows = len(_moduli(len(x), 2, 10))
    assert rows == 2
    width = pattern_count(10) + 1
    need = 8 * 2 * rows * width * (min(len(x) - 1, 2) + 3)
    monkeypatch.setattr(deck, "_PHYSICAL_BYTES", need - 1)
    signature(x, GapParams(2, 10))  # one block fits
    with pytest.raises(MemoryError, match=f"^a counting pass needs {need} bytes of state, "):
        verify_eq7(x, x, GapParams(2, 10))


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
    assert sig.counts == (2, 2, 0, 1, 1, 1)
