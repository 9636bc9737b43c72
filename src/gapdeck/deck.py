"""Gapped-deck engine: subsequence counting, signatures, equality relations.

The s-gapped deck of depth k of a binary string x is the multiset of all
nonempty subsequences of length <= k whose chosen indices are pairwise at
least s apart. A DeckSignature is its faithful stand-in: the vector of
occurrence counts of every nonempty binary pattern of length <= k, ordered by
length then lexicographically. Signatures come in EXACT mode (integer counts,
refused a priori when counts could exceed 64 bits) and FINGERPRINT mode
(counts reduced modulo a fixed list of large primes).

Counting is one recurrence over the columns of a pattern trie (_trie_tables):
the nonempty prefixes of the patterns plus the empty prefix, pinned at 1.
When position i (letter c) is consumed, every column ending in c (or in the
wildcard J) absorbs the count of its parent prefix as of position i-s, which
enforces the gap. _run_pass runs it over one string in a single uint64 row:
exact counts, or, in FINGERPRINT mode, one copy of the columns per prime,
each reduced by its own prime. The same tables drive the prefix-tree kernel
of gapdeck.search and its wildcard-family search. Exact counting has one
overflow guard, _check_exact: the gap-aware bound C(n-(l-1)(s-1), l) on any
count of length l <= k must stay below 2^64.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np

from gapdeck.strings import Puncture, puncture

# The three largest primes below 2^62; two residues always sum below 2^63,
# so modular accumulation cannot wrap in uint64.
DEFAULT_FINGERPRINT_PRIMES = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
)

_UINT64_LIMIT = 1 << 64


class GapParams(NamedTuple):
    """Minimum index gap s >= 1 and deck depth k >= 1 (s=1 is the classical deck)."""

    s: int
    k: int


class ExactOverflowError(OverflowError):
    """EXACT mode refused: counts could exceed 64 bits; use FINGERPRINT mode."""


def _check_params(params: GapParams) -> GapParams:
    s, k = params
    if s < 1:
        raise ValueError(f"gap s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"depth k must be >= 1, got {k}")
    return GapParams(s, k)


def pattern_count(k: int) -> int:
    """Number of nonempty binary patterns of length <= k."""
    return (1 << (k + 1)) - 2


def pattern_index(w: tuple) -> int:
    """Position of pattern w in the canonical (length, then lex) ordering."""
    v = 0
    for b in w:
        v = (v << 1) | b
    return (1 << len(w)) - 2 + v


def patterns_upto(k: int) -> list:
    """All nonempty binary patterns of length <= k in canonical order."""
    return [w for ell in range(1, k + 1) for w in product((0, 1), repeat=ell)]


def slice_bound(n: int, s: int, ell: int) -> int:
    """C(n - (ell-1)(s-1), ell): total gapped index tuples of length ell."""
    top = n - (ell - 1) * (s - 1)
    return comb(top, ell) if top >= ell else 0


def _trie_tables(patterns, alphabet=(0, 1)):
    """Update tables of the counting recurrence for any pattern list.

    The columns are the distinct nonempty prefixes of the patterns in (length,
    lex) order, then one column for the empty prefix, whose count is pinned at
    1. On letter alphabet[c], every column whose last symbol is that letter or
    the wildcard "J" absorbs the gap-ready count of its prefix column. Returns
    the (dst, src) index arrays per letter and the {prefix: column} map.
    """
    seen = {}  # insertion-ordered, so a sorted prefix-closed list sorts in one pass
    for w in patterns:
        while w and w not in seen:  # w and its prefixes, up to the first one seen
            seen[w] = None
            w = w[:-1]
    prefixes = sorted(seen, key=lambda p: (len(p), p))
    cols = {p: i for i, p in enumerate(prefixes)}
    parent = np.asarray([cols.get(p[:-1], len(prefixes)) for p in prefixes], dtype=np.intp)
    tables = []
    for c in alphabet:
        dst = [i for i, p in enumerate(prefixes) if p[-1] == c or p[-1] == "J"]
        dst = np.asarray(dst, dtype=np.intp)
        tables.append((dst, parent[dst]))
    return tables, cols


@lru_cache(maxsize=None)
def _deck_tables(k: int) -> list:
    """Trie tables of every binary pattern of length <= k: the columns are the
    patterns in canonical order, then the empty prefix."""
    return _trie_tables(patterns_upto(k))[0]


def _check_exact(n: int, s: int, k: int) -> None:
    """The overflow guard of exact counting.

    A pattern of length ell occurs at most C(n - (ell-1)(s-1), ell) times in a
    string of length n (the all-ones string reaches it), and every partial
    count of the recurrence is such a count, so uint64 arithmetic is exact
    unless this bound reaches 2^64 for some ell <= k.
    """
    if max(slice_bound(n, s, ell) for ell in range(1, k + 1)) >= _UINT64_LIMIT:
        raise ExactOverflowError(
            f"counts for n={n}, s={s}, k={k} may exceed 64 bits; use fingerprint mode"
        )


def _run_pass(x, s: int, tables, width: int, mods=None) -> np.ndarray:
    """Counts of every trie column after one left-to-right pass over x.

    x holds letter indices into tables. The state is one uint64 row of width
    cells, the last being the pinned empty prefix; the letter at position i
    adds the state as of position i-s, kept in an s-deep ring of snapshots.
    Without mods the counts are exact (callers run _check_exact first). With
    mods the row holds one copy of the columns per modulus, each reduced by
    its own modulus (residues below 2^63, so sums of two cannot wrap), and the
    result has one row per modulus.
    """
    rows = 1 if mods is None else len(mods)
    shift = np.arange(rows)[:, None] * width
    steps = [
        (
            (dst + shift).ravel(),
            (src + shift).ravel(),
            None if mods is None else np.repeat(np.asarray(mods, dtype=np.uint64), len(dst)),
        )
        for dst, src in tables
    ]
    acc = np.zeros((rows, width), dtype=np.uint64)
    acc[:, -1] = 1
    acc = acc.ravel()
    ring = deque([acc.copy()] * s, maxlen=s)
    for c in x:
        dst, src, mod = steps[c]
        v = acc[dst] + ring[0][src]
        acc[dst] = v if mod is None else v % mod
        ring.append(acc.copy())
    return acc.reshape(rows, width)


@dataclass(frozen=True)
class DeckSignature:
    """Per-pattern multiplicity vector for B^(k), in canonical pattern order.

    In EXACT mode counts is a tuple of ints; in FINGERPRINT mode a tuple of
    residue tuples, one residue per prime in primes.
    """

    params: GapParams
    mode: str  # "exact" | "fingerprint"
    source_length: int
    counts: tuple
    primes: tuple = ()

    def length_slice(self, ell: int) -> tuple:
        """Counts of all patterns of length exactly ell, in lex order."""
        if not 1 <= ell <= self.params.k:
            raise ValueError(f"slice length {ell} outside 1..{self.params.k}")
        lo = (1 << ell) - 2
        return self.counts[lo: lo + (1 << ell)]

    def to_record(self) -> dict:
        """JSON-compatible serialization (pattern order is part of the format)."""
        rec = {
            "s": self.params.s,
            "k": self.params.k,
            "mode": self.mode,
            "source_length": self.source_length,
            "counts": [list(c) if isinstance(c, tuple) else c for c in self.counts],
        }
        if self.mode == "fingerprint":
            rec["primes"] = list(self.primes)
        return rec


def count_gapped(w: tuple, x: tuple, s: int) -> int:
    """Occurrences of pattern w in x with successive indices >= s apart.

    One exact pass of the recurrence over the prefixes of w; raises
    ExactOverflowError when the count could reach 2^64.
    """
    if len(w) == 0:
        raise ValueError("empty patterns are excluded from decks")
    if s < 1:
        raise ValueError(f"gap s must be >= 1, got {s}")
    w = tuple(w)
    _check_exact(len(x), s, len(w))
    tables, cols = _trie_tables([w])
    return int(_run_pass(x, s, tables, len(cols) + 1)[0, cols[w]])


def signature(
    x: tuple,
    params: GapParams,
    mode: str = "exact",
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> DeckSignature:
    """Full deck signature of x under (s, k), in EXACT or FINGERPRINT mode.

    EXACT mode is refused with ExactOverflowError when some count could
    reach 2^64 (see _check_exact); callers should then switch to FINGERPRINT
    mode.
    """
    s, k = _check_params(params)
    n = len(x)
    P = pattern_count(k)
    if mode == "exact":
        _check_exact(n, s, k)
        counts = tuple(_run_pass(x, s, _deck_tables(k), P + 1)[0, :P].tolist())
        return DeckSignature(GapParams(s, k), "exact", n, counts)
    if mode == "fingerprint":
        if not primes:
            raise ValueError("fingerprint mode needs at least one prime")
        if not all(1 < p < 1 << 63 for p in primes):  # sums of two residues fit uint64
            raise ValueError("fingerprint moduli must lie in (1, 2^63)")
        res = _run_pass(x, s, _deck_tables(k), P + 1, tuple(primes))
        counts = tuple(zip(*res[:, :P].tolist()))
        return DeckSignature(GapParams(s, k), "fingerprint", n, counts, tuple(primes))
    raise ValueError(f"unknown signature mode {mode!r}")


def punctured_signature(
    x: tuple,
    params: GapParams,
    spec: Puncture,
    mode: str = "exact",
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> DeckSignature:
    """Signature of x with the requested end bits removed first."""
    return signature(puncture(x, spec), params, mode, primes)


def deck_equal(x: tuple, y: tuple, params: GapParams, mode: str = "exact") -> bool:
    """Whether x and y have identical gapped decks B^(k) under (s, k).

    Unequal lengths are compared honestly through their count vectors (the
    length-1 totals then differ, so the result is false) — no length
    short-circuit.
    """
    sx = signature(x, params, mode)
    sy = signature(y, params, mode)
    return sx.counts == sy.counts


def exact_deck_equal(x: tuple, y: tuple, params: GapParams, mode: str = "exact") -> bool:
    """Whether only the length-exactly-k slices (the exact decks D^(k)) agree."""
    _check_params(params)
    sx = signature(x, params, mode)
    sy = signature(y, params, mode)
    return sx.length_slice(params.k) == sy.length_slice(params.k)


@dataclass(frozen=True)
class Eq7Report:
    """Four-way deck-equality report: plain plus LR/L/R punctured decks."""

    plain_equal: bool
    lr_equal: bool
    l_equal: bool
    r_equal: bool
    params: GapParams
    mode: str = "exact"

    @property
    def all_equal(self) -> bool:
        return self.plain_equal and self.lr_equal and self.l_equal and self.r_equal

    def to_record(self) -> dict:
        return {
            "plain_equal": self.plain_equal,
            "lr_equal": self.lr_equal,
            "l_equal": self.l_equal,
            "r_equal": self.r_equal,
            "s": self.params.s,
            "k": self.params.k,
            "mode": self.mode,
            "all_equal": self.all_equal,
        }


def verify_eq7(x: tuple, y: tuple, params: GapParams, mode: str = "exact") -> Eq7Report:
    """Check the four-way condition: decks equal before and after every puncture."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need length >= 2 so both ends can be punctured")

    def eq(spec: Puncture) -> bool:
        a = punctured_signature(x, params, spec, mode)
        b = punctured_signature(y, params, spec, mode)
        return a.counts == b.counts

    return Eq7Report(
        plain_equal=eq(Puncture.NONE),
        lr_equal=eq(Puncture.LR),
        l_equal=eq(Puncture.L),
        r_equal=eq(Puncture.R),
        params=_check_params(params),
        mode=mode,
    )


def enumerate_deck(x: tuple, params: GapParams) -> list:
    """Nonzero (pattern, multiplicity) entries of the exact signature, in order.

    Display/debug helper; refuses absurd pattern spaces (> 10^6 patterns).
    """
    s, k = _check_params(params)
    if pattern_count(k) > 10**6:
        raise ValueError(f"k={k} would enumerate {pattern_count(k)} patterns; refusing")
    sig = signature(x, params, "exact")
    pats = patterns_upto(k)
    return [(w, c) for w, c in zip(pats, sig.counts) if c != 0]


def fingerprint(sig: DeckSignature, primes: tuple = DEFAULT_FINGERPRINT_PRIMES) -> DeckSignature:
    """Reduce an EXACT signature modulo each prime (deterministic homomorphism)."""
    if sig.mode != "exact":
        raise ValueError("fingerprint expects an EXACT-mode signature")
    if not primes:
        raise ValueError("need at least one prime")
    counts = tuple(tuple(c % p for p in primes) for c in sig.counts)
    return DeckSignature(sig.params, "fingerprint", sig.source_length, counts, tuple(primes))
