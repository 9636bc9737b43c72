"""Gapped-deck engine: subsequence counting, signatures, equality relations.

The s-gapped deck of depth k of a binary string x is the multiset of all
nonempty subsequences of length <= k whose chosen indices are pairwise at
least s apart. A DeckSignature is its faithful stand-in: the vector of
occurrence counts of every nonempty binary pattern of length <= k, ordered by
length then lexicographically. Signatures come in EXACT mode (integer counts,
refused a priori when counts could exceed 64 bits) and FINGERPRINT mode
(counts reduced modulo DEFAULT_FINGERPRINT_PRIMES, three fixed 62-bit primes;
there are no other moduli).

Counting is one recurrence over the columns of a pattern trie: column 0 is
the empty prefix, pinned at 1, and the nonempty prefixes of the patterns
follow. When position i (letter c) is consumed, every column ending in c
absorbs the count of its parent prefix as of position i-s, which enforces the
gap. For the full binary deck the columns form a binary heap (pattern w sits
at pattern_index(w) + 1, the children of column j are 2j+1 and 2j+2), so the
update tables of _deck_tables are two strided slices and every update reads
and writes views. The one other trie is count_gapped's single pattern w, a
chain whose column j is w[:j]. _run_pass runs the recurrence over one
string in a (rows, width) uint64 state: one row of exact counts, or, in
FINGERPRINT mode, one row per prime, reduced by a conditional subtract
against the moduli tiled to the update's shape once per pass. It may start
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
Exact counting has one overflow guard, _check_exact: the gap-aware
bound C(n-(l-1)(s-1), l) on any count of length l <= k must stay below 2^64.
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np

# The three largest primes below 2^62; two residues always sum below 2^63,
# so modular accumulation cannot wrap in uint64.
DEFAULT_FINGERPRINT_PRIMES = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
)
_MODULI = np.asarray(DEFAULT_FINGERPRINT_PRIMES, dtype=np.uint64)[:, None]

_UINT64_LIMIT = 1 << 64
_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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


def _deck_tables(k: int) -> list:
    """Trie tables of every binary pattern of length <= k, in closed form.

    The columns are the empty prefix, then the patterns in canonical order: a
    binary heap, in which the columns ending in letter c are 1+c, 3+c, ...
    and their parents 0, 1, ..., 2^k - 2. Plain slices, so updates are views.
    """
    width = pattern_count(k) + 1
    return [(slice(1 + c, width, 2), slice(0, (1 << k) - 1)) for c in (0, 1)]


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


def _moduli(mode: str):
    """None for EXACT mode, else the (primes, 1) FINGERPRINT moduli column."""
    if mode == "exact":
        return None
    if mode != "fingerprint":
        raise ValueError(f"unknown signature mode {mode!r}")
    return _MODULI


def _run_pass(x, s: int, tables, width: int, mods=None, ring=None):
    """The ring of the last s+1 states of one pass over x: the counts of
    every trie column after x[:len(x)-s], ..., x[:-1] and x (ring[-1]), with
    the root standing in for a prefix shorter than the empty one.

    x holds letter indices into tables. The state is a (rows, width) uint64
    array whose column 0 is the pinned empty prefix; the letter at position i
    adds the state as of position i-s, ring[1] when it is read.
    Without mods there is one row of exact counts (callers run _check_exact
    first). With mods, _moduli's column, there is one row per modulus, reduced
    by the exact conditional subtract min(v, v - p): residues lie below
    p < 2^62, so v < 2p never wraps, and v - p wraps above v exactly when v < p.
    `ring`, if given, is the ring to start from instead of the root: s+1
    states of any stack of such row blocks (in FINGERPRINT mode, blocks of one
    row per modulus), every block reading the same letters; a pass's own ring
    continues it. The moduli are tiled once per pass to the full shape of an
    update, and a pass of one exact row from the root keeps a 1-D state, as
    (1, width) slicing costs each numpy call more; its ring is returned as
    (1, width) views all the same.
    Up to min(len(x), s) + 1 ring states and two temporaries are live at once;
    a pass whose states exceed physical memory raises MemoryError up front,
    since a lazily granted allocation would get the process killed instead.
    """
    rows = len(ring[-1]) if ring is not None else 1 if mods is None else len(mods)
    need = 8 * rows * width * (min(len(x), s) + 3)
    if need > _PHYSICAL_BYTES:
        raise MemoryError(
            f"a counting pass needs {need} bytes of state, "
            f"more than the {_PHYSICAL_BYTES} bytes of physical memory"
        )
    if ring is None:
        root = np.zeros(width if mods is None else (rows, width), dtype=np.uint64)
        root[..., 0] = 1
        ring = [root] * (s + 1)
    ring = deque(ring, maxlen=s + 1)  # states after i-s .. i letters
    acc = ring[-1]
    if acc.ndim == 2:
        tables = [((slice(None), dst), (slice(None), src)) for dst, src in tables]
    lims = None if mods is None else [
        np.tile(mods, (rows // len(mods), acc[dst].shape[1])) for dst, _ in tables
    ]
    for c in x:
        dst, src = tables[c]
        v = acc[dst] + ring[1][src]
        acc = acc.copy()
        acc[dst] = v if lims is None else np.minimum(v, v - lims[c])
        ring.append(acc)
    return ring if acc.ndim == 2 else deque((state[None] for state in ring), maxlen=s + 1)


def _punctured_counts(x: tuple, s: int, k: int, mode: str) -> tuple:
    """Deck counts of x and of its L, R and LR punctures, from one pass.

    The pass runs over x[1:] on two stacked blocks: the first starts from the
    state after x[0] (the root, plus 1 on the one-letter pattern x[0]), so it
    ends on x, and the second from the root, so it ends on L = x[1:]. The
    states before the last letter are R = x[:-1] and LR = x[1:-1]. Each entry
    is a (rows, P) array as in _run_pass. Needs len(x) >= 2.
    """
    mods = _moduli(mode)
    if mods is None:
        _check_exact(len(x), s, k)
    rows, width = 1 if mods is None else len(mods), pattern_count(k) + 1
    root = np.zeros((2 * rows, width), dtype=np.uint64)
    root[:, 0] = 1
    first = root.copy()
    first[:rows, 1 + pattern_index(x[:1])] = 1
    ring = _run_pass(x[1:], s, _deck_tables(k), width, mods, [root] * s + [first])
    (plain, left), (right, both) = (np.split(c[:, 1:], 2) for c in (ring[-1], ring[-2]))
    return plain, left, right, both


@dataclass(frozen=True)
class DeckSignature:
    """Per-pattern multiplicity vector for B^(k), in canonical pattern order.

    In EXACT mode counts is a tuple of ints; in FINGERPRINT mode a tuple of
    residue tuples, one residue per prime in primes (DEFAULT_FINGERPRINT_PRIMES).
    """

    params: GapParams
    mode: str  # "exact" | "fingerprint"
    counts: tuple

    @property
    def primes(self) -> tuple:
        """The moduli of the residues: DEFAULT_FINGERPRINT_PRIMES, or () in EXACT mode."""
        return DEFAULT_FINGERPRINT_PRIMES if self.mode == "fingerprint" else ()

    def length_slice(self, ell: int) -> tuple:
        """Counts of all patterns of length exactly ell, in lex order."""
        if not 1 <= ell <= self.params.k:
            raise ValueError(f"slice length {ell} outside 1..{self.params.k}")
        lo = (1 << ell) - 2
        return self.counts[lo: lo + (1 << ell)]


def count_gapped(w: tuple, x: tuple, s: int) -> int:
    """Occurrences of pattern w in x with successive indices >= s apart.

    One exact pass of the recurrence over the prefixes of w; raises
    ExactOverflowError when the count could reach 2^64.
    """
    if len(w) == 0:
        raise ValueError("empty patterns are excluded from decks")
    _check_params((s, len(w)))
    w = tuple(w)
    _check_exact(len(x), s, len(w))
    # the trie of one pattern is a chain: column j is w[:j], and letter c
    # adds column j-1 to column j wherever w[j-1] == c
    dst = [1 + np.flatnonzero(np.asarray(w) == c) for c in (0, 1)]
    return int(_run_pass(x, s, [(d, d - 1) for d in dst], len(w) + 1)[-1][0, -1])


def signature(x: tuple, params: GapParams, mode: str = "exact") -> DeckSignature:
    """Full deck signature of x under (s, k), in EXACT or FINGERPRINT mode.

    EXACT mode is refused with ExactOverflowError when some count could
    reach 2^64 (see _check_exact); callers should then switch to FINGERPRINT
    mode.
    """
    s, k = _check_params(params)
    mods = _moduli(mode)
    if mods is None:
        _check_exact(len(x), s, k)
    res = _run_pass(x, s, _deck_tables(k), pattern_count(k) + 1, mods)[-1][:, 1:]
    counts = tuple(res[0].tolist()) if mods is None else tuple(zip(*res.tolist()))
    return DeckSignature(GapParams(s, k), mode, counts)


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
    params = _check_params(params)
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
        rec = asdict(self)
        rec["s"], rec["k"] = rec.pop("params")
        return {**rec, "all_equal": self.all_equal}


def verify_eq7(x: tuple, y: tuple, params: GapParams, mode: str = "exact") -> Eq7Report:
    """Check the four-way condition: decks equal before and after every puncture.

    One pass per string (_punctured_counts: x and x[1:] stacked in one pass
    over x[1:]); EXACT mode is guarded once, at the full length.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need length >= 2 so both ends can be punctured")

    params = _check_params(params)
    a = _punctured_counts(x, *params, mode)
    b = _punctured_counts(y, *params, mode)
    plain, left, right, both = (np.array_equal(u, v) for u, v in zip(a, b))
    return Eq7Report(
        plain_equal=plain,
        lr_equal=both,
        l_equal=left,
        r_equal=right,
        params=params,
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


def fingerprint(sig: DeckSignature) -> DeckSignature:
    """Reduce an EXACT signature modulo each prime (deterministic homomorphism)."""
    if sig.mode != "exact":
        raise ValueError("fingerprint expects an EXACT-mode signature")
    counts = tuple(tuple(c % p for p in DEFAULT_FINGERPRINT_PRIMES) for c in sig.counts)
    return DeckSignature(sig.params, "fingerprint", counts)
