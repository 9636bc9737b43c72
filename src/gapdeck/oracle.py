"""Naive enumeration oracle: definition-literal counting for cross-checks.

Everything here enumerates index tuples directly (no prefix-sum tricks), so it
is deliberately slow and independent of the main engine. Tests compare the two.
"""
from __future__ import annotations

from itertools import combinations

from gapdeck.deck import GapParams, _check_params, pattern_count, patterns_upto


def gapped_tuples(n: int, ell: int, s: int):
    """Yield all index tuples 0 <= i1 < ... < i_ell < n with i_{j+1} - i_j >= s.

    Refuses s < 1 and ell < 1 (as the gap and depth of a deck) on first use.
    """
    _check_params(GapParams(s, ell))
    if s == 1:
        yield from combinations(range(n), ell)
        return

    def rec(start: int, left: int, chosen: tuple):
        if left == 0:
            yield chosen
            return
        # leave room for the remaining picks
        for i in range(start, n - (left - 1) * s):
            yield from rec(i + s, left - 1, chosen + (i,))

    yield from rec(0, ell, ())


def count_gapped_naive(w: tuple, x: tuple, s: int) -> int:
    """Occurrences of w in x with pairwise index gaps >= s, by enumeration."""
    if len(w) == 0:
        raise ValueError("empty patterns are excluded from decks")
    hits = 0
    for idx in gapped_tuples(len(x), len(w), s):
        if all(x[i] == c for i, c in zip(idx, w)):
            hits += 1
    return hits


def signature_counts_naive(x: tuple, params: GapParams) -> tuple:
    """Exact count vector in canonical pattern order, by enumeration."""
    s, k = _check_params(params)
    counts = [0] * pattern_count(k)
    for ell in range(1, k + 1):
        base = (1 << ell) - 2
        for idx in gapped_tuples(len(x), ell, s):
            v = 0
            for i in idx:
                v = (v << 1) | x[i]
            counts[base + v] += 1
    return tuple(counts)


def deck_equal_naive(x: tuple, y: tuple, params: GapParams) -> bool:
    """Deck equality decided purely by enumeration."""
    return signature_counts_naive(x, params) == signature_counts_naive(y, params)


def exact_deck_equal_naive(x: tuple, y: tuple, params: GapParams) -> bool:
    """Exact-deck (depth-exactly-k) equality by enumeration."""
    s, k = params
    lo = (1 << k) - 2
    hi = lo + (1 << k)
    return (
        signature_counts_naive(x, params)[lo:hi]
        == signature_counts_naive(y, params)[lo:hi]
    )


def classical_deck_naive(x: tuple, k: int) -> dict:
    """Classical k-deck (all subsequences of length <= k) as a multiset dict."""
    deck: dict = {}
    for ell in range(1, k + 1):
        for idx in combinations(range(len(x)), ell):
            w = tuple(x[i] for i in idx)
            deck[w] = deck.get(w, 0) + 1
    return deck


def find_collision_naive(n: int, params: GapParams) -> tuple | None:
    """Lexicographically smallest full-deck confusable pair at length n, or None.

    Groups all 2^n strings by their enumerated signature; O(4^n)-ish, for
    small-n cross-checks of the fast search only.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    groups: dict = {}
    best = None
    for code in range(1 << n):
        x = tuple((code >> (n - 1 - j)) & 1 for j in range(n))
        key = signature_counts_naive(x, params)
        if key in groups:
            cand = (groups[key], x)
            if best is None or cand < best:
                best = cand
        else:
            groups[key] = x
    return best


def enumerate_deck_naive(x: tuple, params: GapParams) -> list:
    """Nonzero (pattern, multiplicity) entries, canonical order, by enumeration."""
    counts = signature_counts_naive(x, params)
    return [(w, c) for w, c in zip(patterns_upto(params.k), counts) if c != 0]
