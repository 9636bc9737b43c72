"""Gapped-deck engine: subsequence counting, signatures, equality relations.

The s-gapped deck of depth k of a binary string x is the multiset of all
nonempty subsequences of length <= k whose chosen indices are pairwise at
least s apart. A DeckSignature is its faithful stand-in: the vector of
occurrence counts of every nonempty binary pattern of length <= k, ordered by
length then lexicographically. Every count, and so every verdict, is exact.

Counting is one recurrence over the columns of a pattern trie: column 0 is
the empty prefix, pinned at 1, and the nonempty prefixes of the patterns
follow. When position i (letter c) is consumed, every column ending in c
absorbs the count of its parent prefix as of position i-s, which enforces the
gap. For the full binary deck the columns form a binary heap (pattern w sits
at pattern_index(w) + 1, the children of column j are 2j+1 and 2j+2), so the
update tables of _deck_tables are two strided slices: the columns ending in c
are 1+c, 3+c, ..., the children of the narrow columns 0 .. 2^k - 2 (the root
and the patterns shorter than k), and only those are ever read back. The one
other trie is count_gapped's single pattern w, a chain whose column j is
w[:j]. Each of the two gives _run_pass its split of a state by last letter:
_heap_split, in closed form from the tables at depths k and k-1, and
_chain_split. _run_pass runs the recurrence over one string in (rows, width)
uint64 states: one row of exact counts, or one row per prime, reduced by a
conditional subtract against the moduli tiled to the update's shape once per
pass. It holds the state split by last letter, so each letter adds into one
contiguous array in place and copies only the narrow columns into the ring
of the states it reads back; the states it returns are put together in heap
order over the last s+1 letters. It may start
from a given ring of states that stacks several row blocks, all reading the
same letters. A pass whose live states would not fit in physical memory is
refused with MemoryError before it allocates. It returns its ring of the
last s+1 states; the one before the last letter is in it, so the four
punctured decks of Eq. 7 take one pass over x[1:] whose two blocks start
from x[0] and from the root (_punctured_counts, the one place that takes
punctured decks). The prefix-tree kernel of gapdeck.search (its
wildcard-family search included) walks each chunk's fixed top bits with
_run_pass and grows the tree from its ring, the gap window, on the columns
and tables of the depth-(k-1) deck.
One guard, _moduli, picks the moduli from the gap-aware bound B, the largest
C(n-(l-1)(s-1), l) over l <= k, which no count reaches past: one unreduced
uint64 row while B < 2^64, else the fewest pinned primes whose product M
exceeds B. Every count lies in [0, B], so equal residues are equal counts and
the Chinese remainder of a count's residues is the count itself.
"""
from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import asdict, dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

# The five largest primes below 2^62, whose product exceeds 2^309; two
# residues always sum below 2^63, so modular accumulation cannot wrap in
# uint64. (perfbench/tracing.py imports this name.)
DEFAULT_FINGERPRINT_PRIMES = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
    4611686018427387761,
    4611686018427387751,
)

_UINT64_LIMIT = 1 << 64
_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class GapParams(NamedTuple):
    """Minimum index gap s >= 1 and deck depth k >= 1 (s=1 is the classical deck)."""

    s: int
    k: int


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
    return math.comb(top, ell) if top >= ell else 0


def _deck_tables(k: int) -> list:
    """Trie tables of every binary pattern of length <= k, in closed form.

    The columns are the empty prefix, then the patterns in canonical order: a
    binary heap, in which the columns ending in letter c are 1+c, 3+c, ...
    and their parents 0, 1, ..., 2^k - 2. Plain slices, so _run_pass's split
    of a state by them (_heap_split) is one per depth.
    """
    width = pattern_count(k) + 1
    return [(slice(1 + c, width, 2), slice(0, (1 << k) - 1)) for c in (0, 1)]


def _moduli(n: int, s: int, k: int):
    """The one overflow guard: the moduli of a pass over length n at (s, k).

    A pattern of length ell occurs at most C(n - (ell-1)(s-1), ell) times in a
    string of length n (the all-ones string reaches it), and every partial
    count of the recurrence is such a count. Below 2^64 that bound B needs no
    moduli (None: one unreduced uint64 row). Above it, the (r, 1) column of
    the fewest pinned primes whose product exceeds B: two counts in [0, B]
    with equal residues are then equal. Past all five, OverflowError.
    """
    bound = max(slice_bound(n, s, ell) for ell in range(1, k + 1))
    if bound < _UINT64_LIMIT:
        return None
    product = 1
    for r, p in enumerate(DEFAULT_FINGERPRINT_PRIMES, 1):
        product *= p
        if product > bound:
            return np.asarray(DEFAULT_FINGERPRINT_PRIMES[:r], dtype=np.uint64)[:, None]
    raise OverflowError(
        f"counts for n={n}, s={s}, k={k} may reach {bound.bit_length()} bits, "
        f"past the {product.bit_length()}-bit product of the pinned primes"
    )


def _exact(res, mods) -> list:
    """The counts of a pass's (rows, P) result, as Python ints: its one exact
    row, or the Chinese remainder of each column's residues, which is the
    count itself, since _moduli's product exceeds every count."""
    if mods is None:
        return res[0].tolist()
    primes = mods[:, 0].tolist()
    m = math.prod(primes)
    coef = [m // p * pow(m // p, -1, p) for p in primes]
    return [sum(c * r for c, r in zip(coef, col)) % m for col in zip(*res.tolist())]


@functools.cache  # every pass at a depth takes the same split
def _heap_split(k: int) -> tuple:
    """How _run_pass splits a state of _deck_tables's heap at depth k by last
    letter: (width, narrow, per letter (dst, src, put, head, size)). narrow
    keys the root and the patterns shorter than k, the only columns read
    back; dst and src are the letter's columns and their parents; put and
    head key the narrow ones among them, in a narrow state (the depth-(k-1)
    heap's dst) and in the letter's own contiguous array of size columns.
    (..., ix) keys, so that one split serves states of one and of many rows.
    """
    narrow = (1 << k) - 1
    letters = [((..., dst), (..., src), (..., put), (..., slice((1 << (k - 1)) - 1)), narrow)
               for (dst, src), (put, _) in zip(_deck_tables(k), _deck_tables(k - 1))]
    return 2 * narrow + 1, (..., slice(narrow)), letters


def _run_pass(x, s: int, split, mods=None, ring=None):
    """The ring of the last s+1 states of one pass over x: the counts of
    every trie column after x[:len(x)-s], ..., x[:-1] and x (ring[-1]), with
    the root standing in for a prefix shorter than the empty one.

    x holds letter indices into split, the trie's _heap_split or _chain_split
    (keyed for the states' ndim), which gives the width. A state is a (rows,
    width) uint64 array whose column 0 is the pinned empty prefix; the letter
    at position i adds the state as of position i-s, ring[1] when it is read.
    Without mods there is one row of exact counts (callers take mods from
    _moduli). With mods, _moduli's column, there is one row per modulus, reduced
    by the exact conditional subtract min(v, v - p): residues lie below
    p < 2^62, so v < 2p never wraps, and v - p wraps above v exactly when v < p.
    `ring`, if given, is the ring to start from instead of the root: s+1
    states of any stack of such row blocks (with mods, blocks of one row per
    modulus), every block reading the same letters; a pass's own ring
    continues it.
    The pass holds the state split by last letter: the columns ending in
    letter c are one contiguous array, taken from the start state when c
    first occurs and then updated in place. Only the narrow columns, the
    parents, are read back s letters later, so the ring holds narrow
    snapshots: each letter copies the last one, in the buffer of the one no
    longer read, and writes the narrow part of its columns into it. The last
    s+1 letters append full states in column order instead, the ones
    returned: the first is assembled from the split state, each later one is
    a copy of the one before with the letter's columns written.
    The moduli are tiled once per pass to the shape of an update, and a pass
    of one exact row from the root keeps 1-D arrays, as (1, width) slicing
    costs each numpy call more; its ring is returned as (1, width) views all
    the same.
    Live at once are up to s+1 ring states, the split state and the tiled
    moduli with their temporary (each at most one state's size), so at most
    min(len(x), s) + 3 states; a pass whose states exceed physical memory
    raises MemoryError up front, since a lazily granted allocation would get
    the process killed instead.
    """
    width, narrow, letters = split
    rows = len(ring[-1]) if ring is not None else 1 if mods is None else len(mods)
    need = 8 * rows * width * (min(len(x), s) + 3)
    if need > _PHYSICAL_BYTES:
        raise MemoryError(
            f"a counting pass needs {need} bytes of state, "
            f"more than the {_PHYSICAL_BYTES} bytes of physical memory"
        )
    # dtype and maxlen by position: as keywords they cost a short pass 0.5 us
    if ring is None:
        root = np.zeros(width if mods is None else (rows, width), np.uint64)
        root[..., 0] = 1
        ring = [root] * (s + 1)
    ring = deque(ring, s + 1)  # states after i-s .. i letters: narrow, then full
    acc = ring[-1]
    if len(x):
        if mods is not None:
            tile = np.tile(mods, (rows // len(mods), max(t[-1] for t in letters)))
            tmp = np.empty_like(tile)
            lims = [(tile[:, :t[-1]], tmp[:, :t[-1]]) for t in letters]
        parts, heads = [None] * len(letters), [None] * len(letters)
    tail = len(x) - s - 1  # the letter that appends the first state returned
    for i, c in enumerate(x):
        dst, src, put, head, _ = letters[c]
        part = parts[c]
        if part is None:  # the letter's first: its columns from the start state
            part = parts[c] = acc[dst] + ring[1][src]
            heads[c] = part[head] if i < tail else None
        else:
            part += ring[1][src]
        if mods is not None:
            lim, low = lims[c]
            np.subtract(part, lim, out=low)
            np.minimum(part, low, out=part)
        if i < tail:
            if i > s:  # ring[0] is a snapshot of this pass, no longer read
                snap = ring[0]
                snap[...] = ring[-1]
            else:
                snap = (ring[-1] if i else acc[narrow]).copy()
            snap[put] = heads[c]
            ring.append(snap)
        else:
            acc = acc.copy()
            if i == tail and i:  # the split state, in column order
                for t, p in zip(letters, parts):
                    if p is not None:
                        acc[t[0]] = p
            else:
                acc[dst] = part
            ring.append(acc)
    return ring if acc.ndim == 2 else [state[None] for state in ring]


def _punctured_counts(x: tuple, s: int, k: int) -> tuple:
    """Deck counts of x and of its L, R and LR punctures, from one pass.

    The pass runs over x[1:] on two stacked blocks: the first starts from the
    state after x[0] (the root, plus 1 on the one-letter pattern x[0]), so it
    ends on x, and the second from the root, so it ends on L = x[1:]. The
    states before the last letter are R = x[:-1] and LR = x[1:-1]. Each entry
    is a (rows, P) array as in _run_pass, on the moduli of len(x), which bound
    the counts of all four: equal arrays are equal decks. Needs len(x) >= 2.
    """
    mods = _moduli(len(x), s, k)
    rows, width = 1 if mods is None else len(mods), pattern_count(k) + 1
    root = np.zeros((2 * rows, width), dtype=np.uint64)
    root[:, 0] = 1
    first = root.copy()
    first[:rows, 1 + pattern_index(x[:1])] = 1
    ring = _run_pass(x[1:], s, _heap_split(k), mods, [root] * s + [first])
    (plain, left), (right, both) = (np.split(c[:, 1:], 2) for c in (ring[-1], ring[-2]))
    return plain, left, right, both


@dataclass(frozen=True)
class DeckSignature:
    """Per-pattern multiplicity vector for B^(k), in canonical pattern order:
    a tuple of exact ints."""

    params: GapParams
    counts: tuple
    mode = "exact"  # not a field: every signature is exact (perfbench/workloads.py reads it)

    def length_slice(self, ell: int) -> tuple:
        """Counts of all patterns of length exactly ell, in lex order."""
        if not 1 <= ell <= self.params.k:
            raise ValueError(f"slice length {ell} outside 1..{self.params.k}")
        lo = (1 << ell) - 2
        return self.counts[lo: lo + (1 << ell)]


def count_gapped(w: tuple, x: tuple, s: int) -> int:
    """Occurrences of pattern w in x with successive indices >= s apart.

    One pass of the recurrence over the prefixes of w, on _moduli's moduli.
    """
    if len(w) == 0:
        raise ValueError("empty patterns are excluded from decks")
    _check_params((s, len(w)))
    w = tuple(w)
    mods = _moduli(len(x), s, len(w))
    ring = _run_pass(x, s, _chain_split(w, 1 if mods is None else 2), mods)
    return _exact(ring[-1][:, -1:], mods)[0]


def _chain_split(w: tuple, ndim: int) -> tuple:
    """_run_pass's split of the trie of one pattern w, for states of ndim
    dimensions: a chain whose column j is w[:j], where letter c adds column
    j-1 to column j wherever w[j-1] == c. Only the last column is never read
    back. Plain keys per ndim: numpy indexes an array behind an Ellipsis on
    its slow path."""
    def key(ix):
        return ix if ndim == 1 else (slice(None), ix)

    letters = []
    for c in (0, 1):
        src = np.array([j for j, b in enumerate(w) if b == c], np.intp)
        dst = src + 1
        put = dst[: len(dst) - (w[-1] == c)]  # all but column len(w)
        letters.append((key(dst), key(src), key(put), key(slice(len(put))), len(dst)))
    return len(w) + 1, key(slice(len(w))), letters


def signature(x: tuple, params: GapParams, mode: str = "exact") -> DeckSignature:
    """Full deck signature of x under (s, k): exact counts at any length.

    `mode` is accepted and ignored; perfbench/workloads.py still passes it.
    """
    s, k = _check_params(params)
    mods = _moduli(len(x), s, k)
    res = _run_pass(x, s, _heap_split(k), mods)[-1][:, 1:]
    return DeckSignature(GapParams(s, k), tuple(_exact(res, mods)))


def deck_equal(x: tuple, y: tuple, params: GapParams) -> bool:
    """Whether x and y have identical gapped decks B^(k) under (s, k).

    Unequal lengths are compared honestly through their count vectors (the
    length-1 totals then differ, so the result is false) — no length
    short-circuit.
    """
    return signature(x, params).counts == signature(y, params).counts


def exact_deck_equal(x: tuple, y: tuple, params: GapParams) -> bool:
    """Whether only the length-exactly-k slices (the exact decks D^(k)) agree."""
    params = _check_params(params)
    sx = signature(x, params)
    sy = signature(y, params)
    return sx.length_slice(params.k) == sy.length_slice(params.k)


@dataclass(frozen=True)
class Eq7Report:
    """Four-way deck-equality report: plain plus LR/L/R punctured decks."""

    plain_equal: bool
    lr_equal: bool
    l_equal: bool
    r_equal: bool
    params: GapParams
    mode = "exact"  # not a field: every verdict is exact; the record keeps the key

    @property
    def all_equal(self) -> bool:
        return self.plain_equal and self.lr_equal and self.l_equal and self.r_equal

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["s"], rec["k"] = rec.pop("params")
        return {**rec, "mode": self.mode, "all_equal": self.all_equal}


def verify_eq7(x: tuple, y: tuple, params: GapParams, mode: str = "exact") -> Eq7Report:
    """Check the four-way condition: decks equal before and after every puncture.

    One pass per string (_punctured_counts: x and x[1:] stacked in one pass
    over x[1:]), whose count arrays are compared as they are. `mode` is
    accepted and ignored; perfbench/workloads.py still passes it.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need length >= 2 so both ends can be punctured")

    params = _check_params(params)
    a = _punctured_counts(x, *params)
    b = _punctured_counts(y, *params)
    plain, left, right, both = (np.array_equal(u, v) for u, v in zip(a, b))
    return Eq7Report(
        plain_equal=plain,
        lr_equal=both,
        l_equal=left,
        r_equal=right,
        params=params,
    )


def enumerate_deck(x: tuple, params: GapParams) -> list:
    """Nonzero (pattern, multiplicity) entries of the signature, in order.

    Display/debug helper; refuses absurd pattern spaces (> 10^6 patterns).
    """
    s, k = _check_params(params)
    if pattern_count(k) > 10**6:
        raise ValueError(f"k={k} would enumerate {pattern_count(k)} patterns; refusing")
    sig = signature(x, params)
    pats = patterns_upto(k)
    return [(w, c) for w, c in zip(pats, sig.counts) if c != 0]

