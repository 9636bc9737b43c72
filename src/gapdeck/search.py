"""Exhaustive minimal-confusable-length searches.

find_collision enumerates every binary string of a given length, buckets the
strings by a 128-bit hash of the relevant deck signature (two independent
64-bit lanes: signature counts dotted with fixed odd multipliers, wrapping
mod 2^64), then confirms hash coincidences by recomputing exact signatures
scalar-wise. The confirmed witness returned is always the lexicographically
smallest pair, independent of worker count: the code space is split into
fixed contiguous ranges, per-range hash lanes are written into position in a
full array, and the tie-break happens after a global sort.

search_G / search_G_star / search_exact_D scan lengths upward and stop at
the first collision. Lengths too short to carry any depth-k slice (below
s*(k-1)+1) make every pair of strings vacuously equal at depth k; those
lengths are excluded from the scan and listed in the report notes instead of
being reported as collisions.

The hashing runs the deck engine's recurrence over the prefix tree of a code
range instead of once per string. Level i holds the DP state (the pinned
empty-prefix column 0, then the pattern counts in the deck's heap order) of
every length-i prefix in code order; level i+1 repeats each row twice, and
the rows ending in bit b add the prefix-count columns of their ancestor at
level max(0, i+1-s), which enforces the gap. For decks the columns ending in
b and their prefix columns are strided slices, so the update reads and
writes views; a general trie (a wildcard family) uses index arrays. Each
prefix is thus extended once, so the cost is about 2^(n+1) row updates
rather than n per string. A code range is an aligned block with fixed top
bits: its path is built once, then leaf chunks of at most 2^16 rows are
expanded separately, keeping only the last s+1 levels. EQ7_STAR needs two
trees: the R puncture (drop the last bit) is the parent level of the plain
tree, and the L puncture (drop the first bit) is a tree over the code mod
2^(n-1), whose parent level is the LR puncture. Hash lanes are linear in the
counts, so the four punctures' lanes are summed.

search_SU is the same search over {X, Y} (deck kind WILDCARD_U): the tree runs
at gap 1 on the trie of a wildcard family, whose J columns update on both
letters, and the lane matrix hashes the family's columns only, as EXACT_D
hashes only the depth-k slice. Its hash groups are confirmed by count_wildcard,
the independent reference, and its ranges, checkpoints, workers and telemetry
are those of the deck searches, keyed by (k1, k2) instead of (s, k).

Hash groups are found with one argsort of the first lane; only runs of equal
first lanes, which are rare, are split by the second. Checkpoint sidecars
carry their range key (format version, deck kind, params, n, code range), so a
sidecar of another search or an older format is recomputed, not trusted.
"""
from __future__ import annotations

import concurrent.futures  # its ProcessPoolExecutor is imported on first use
import logging
import multiprocessing
import os
import time
import zipfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gapdeck.deck import (
    DEFAULT_FINGERPRINT_PRIMES,
    GapParams,
    _check_exact,
    _deck_tables,
    _punctured_counts,
    _trie_tables,
    pattern_count,
    signature,
)
from gapdeck.wildcard import USetSpec, count_wildcard, enumerate_U

log = logging.getLogger("gapdeck.search")

FULL_B = "FULL_B"
EXACT_D = "EXACT_D"
EQ7_STAR = "EQ7_STAR"
WILDCARD_U = "WILDCARD_U"

DECK_KINDS = (FULL_B, EXACT_D, EQ7_STAR)  # the binary kinds; WILDCARD_U is search_SU's

_HASH_SEED = 0x5DEC0DE5
_RANGE_BITS = 20  # fixed checkpoint/partition granularity: 2^20 codes
_LEAF_BITS = 16  # leaf chunks of at most 2^16 rows bound the working set
_SIDECAR_FORMAT = "gapdeck-lanes/2"  # format 1 sidecars held no range key


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of a minimal-length scan: the length found (or None), the
    confirmed witnesses there, and which lengths were certified clear."""

    n: Optional[int]
    witnesses: tuple
    scanned_lengths: tuple
    deck_kind: str
    params: object
    notes: tuple = ()

    def to_record(self) -> dict:
        def fmt(w):
            return w if isinstance(w, str) else "".join(str(b) for b in w)

        if isinstance(self.params, GapParams):
            params = {"s": self.params.s, "k": self.params.k}
        else:
            params = {"k1": self.params[0], "k2": self.params[1]}
        return {
            "n": self.n,
            "witnesses": [[fmt(x), fmt(y)] for x, y in self.witnesses],
            "scanned_lengths": list(self.scanned_lengths),
            "deck_kind": self.deck_kind,
            "params": params,
            "notes": list(self.notes),
        }


def _hash_lanes(width: int) -> np.ndarray:
    """Two lanes of fixed odd 64-bit multipliers (deterministic)."""
    rng = np.random.default_rng(_HASH_SEED)
    return rng.integers(1, 2**63, size=(2, width), dtype=np.uint64) | np.uint64(1)


def _extend(levels: list, s: int, tables) -> np.ndarray:
    """Level i+1 of the prefix tree from levels[0..i]: every prefix + each bit.

    Row r of level i+1 extends row r >> 1 of level i by bit r & 1, and its
    gap-ready state is the ancestor at level max(0, i+1-s), which is row
    r >> (i+1-j) there; reshaping each half to (rows_j, rows_i/rows_j, ...)
    lines every row up with that ancestor by broadcasting.
    """
    i = len(levels) - 1
    ready = levels[max(0, i + 1 - s)]
    rows_j, width = ready.shape
    nxt = np.repeat(levels[i], 2, axis=0).reshape(rows_j, -1, 2, width)
    for b, (dst, src) in enumerate(tables):
        nxt[:, :, b, dst] += ready[:, None, src]
    return nxt.reshape(-1, width)


def _root(width: int) -> np.ndarray:
    """Level 0 of a prefix tree: the empty string, whose only nonzero count
    is the pinned empty-prefix column 0."""
    root = np.zeros((1, width), dtype=np.uint64)
    root[0, 0] = 1
    return root


def _grow(levels: list, stop: int, s: int, tables) -> None:
    """Extend levels through level stop, dropping levels no later step reads."""
    while len(levels) <= stop:
        levels.append(_extend(levels, s, tables))
        stale = len(levels) - 2 - s
        if stale > 0:
            levels[stale] = None


def _prefix_tree(n: int, s: int, tables, width: int, lo: int, hi: int):
    """Yield (offset, leaf, parent) for the DP states of codes lo..hi-1.

    The states are rows of `width` columns on the trie `tables`. leaf holds
    the states (counts plus the pinned empty-prefix column) of the codes
    lo+offset.. at length n, parent those of their length-(n-1) prefixes.
    [lo, hi) must be an aligned power-of-two block: a subtree with fixed top
    bits, whose path is built once; below it, leaf chunks of at most
    2^_LEAF_BITS rows are expanded one at a time.
    """
    size = hi - lo
    if lo < 0 or size < 1 or size & (size - 1) or lo % size or hi > 1 << n:
        raise ValueError(f"code range {lo}:{hi} is not an aligned block of 2^{n}")
    t = n - (size.bit_length() - 1)
    levels = [_root(width)]
    for i in range(t):
        bit = (lo >> (n - 1 - i)) & 1
        levels.append(_extend(levels, s, tables)[bit : bit + 1])
    c = max(t, n - _LEAF_BITS)
    _grow(levels, c, s, tables)
    for q in range(1 << (c - t)):
        chunk = [
            None if lvl is None else lvl[q >> (c - j) : (q >> (c - j)) + 1]
            for j, lvl in enumerate(levels)
        ]
        _grow(chunk, n, s, tables)
        yield q << (n - c), chunk[n], chunk[n - 1]


def _tree_hashes(n, s, tables, width, lo, hi, leaf_lanes, parent_lanes=None) -> np.ndarray:
    """(hi-lo, 2) lanes: counts(x) @ leaf_lanes [+ counts(x[:-1]) @ parent_lanes]."""
    h = np.empty((hi - lo, 2), dtype=np.uint64)
    for off, leaf, parent in _prefix_tree(n, s, tables, width, lo, hi):
        part = leaf[:, 1:] @ leaf_lanes
        if parent_lanes is not None:
            part += np.repeat(parent[:, 1:] @ parent_lanes, len(leaf) // len(parent), axis=0)
        h[off : off + len(leaf)] = part
    return h


def _family(k1: int, k2: Optional[int]) -> list:
    """The wildcard family of search_SU: U_1(k1) u U_2(k2), or U_1(k1) if k2 is None."""
    if k2 is None:
        if k1 < 1:
            raise ValueError(f"single-depth form needs k1 >= 1, got {k1}")
        return enumerate_U(USetSpec.single(1, k1))
    return enumerate_U(USetSpec.pair(k1, k2))  # validates k1 >= k2 >= 2


def _lane_hashes(n: int, a: int, b: int, deck_kind: str, lo: int, hi: int):
    """Hash lanes (h1, h2) for codes lo..hi-1 at length n.

    (a, b) are the search's params: (s, k) for the deck kinds, (k1, k2) for
    WILDCARD_U. Each lane is the wrapping uint64 dot product of the kind's
    counts with a fixed row of odd multipliers; EQ7_STAR concatenates the
    plain, L, R and LR punctured counts, EXACT_D keeps only the depth-k slice
    and WILDCARD_U only the family's columns of its trie.
    """
    if deck_kind == WILDCARD_U:
        family = _family(a, b)
        tables, cols = _trie_tables(family, "XY")
        lanes = np.zeros((len(cols), 2), dtype=np.uint64)
        lanes[[cols[w] - 1 for w in family]] = _hash_lanes(len(family)).T
        h = _tree_hashes(n, 1, tables, len(cols) + 1, lo, hi, lanes)
        return h[:, 0].copy(), h[:, 1].copy()
    s, P = a, pattern_count(b)
    tree = s, _deck_tables(b), P + 1
    if deck_kind == EQ7_STAR:
        plain, left, right, both = np.split(_hash_lanes(4 * P).T, 4)
        h = _tree_hashes(n, *tree, lo, hi, plain, right)
        # x[1:] is code mod 2^(n-1): one subtree, or the whole tree twice
        half = 1 << (n - 1)
        size = min(hi - lo, half)
        h += np.tile(
            _tree_hashes(n - 1, *tree, lo % half, lo % half + size, left, both),
            ((hi - lo) // size, 1),
        )
    elif deck_kind == EXACT_D:
        lanes = np.zeros((P, 2), dtype=np.uint64)
        lanes[(1 << b) - 2 :] = _hash_lanes(1 << b).T
        h = _tree_hashes(n, *tree, lo, hi, lanes)
    else:
        h = _tree_hashes(n, *tree, lo, hi, _hash_lanes(P).T)
    return h[:, 0].copy(), h[:, 1].copy()


def _hash_range(args):
    n, a, b, deck_kind, lo, hi = args
    h1, h2 = _lane_hashes(n, a, b, deck_kind, lo, hi)
    return lo, hi, h1, h2


def _code_to_string(code: int, n: int, deck_kind: str):
    """The string of a code: a bit tuple, or over {X, Y} for WILDCARD_U."""
    bits = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
    return "".join("XY"[b] for b in bits) if deck_kind == WILDCARD_U else bits


def _confirm_key(x, params, deck_kind: str, mode: str, primes: tuple):
    """The exact object whose equality defines a collision of this kind."""
    if deck_kind == WILDCARD_U:  # the family counts, from the independent reference
        return tuple(count_wildcard(w, x) for w in _family(*params))
    if deck_kind == EQ7_STAR:  # plain, L, R and LR counts
        return tuple(c.tobytes() for c in _punctured_counts(x, *params, mode, primes))
    sig = signature(x, params, mode, primes)
    if deck_kind == EXACT_D:
        return sig.length_slice(params.k)
    return sig.counts


def _tags(params, deck_kind: str) -> list:
    """The params as name=value strings: s and k, or k1 and k2 for WILDCARD_U."""
    names = ("k1", "k2") if deck_kind == WILDCARD_U else ("s", "k")
    return [f"{a}={v}" for a, v in zip(names, params)]


def _checkpoint_paths(checkpoint: Optional[str], n, params, deck_kind, lo, hi):
    logfile = os.path.join(checkpoint, "search.log")
    tags = [t.replace("=", "") for t in _tags(params, deck_kind)]
    sidecar = os.path.join(checkpoint, "_".join([deck_kind, *tags, f"n{n}", str(lo), str(hi)]))
    return logfile, sidecar + ".npz"


def _load_done(checkpoint: Optional[str]) -> set:
    done = set()
    if checkpoint is None:
        return done
    logfile = os.path.join(checkpoint, "search.log")
    if os.path.exists(logfile):
        with open(logfile) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 2 and parts[-1] == "done":
                    done.add(tuple(parts[:-1]))
    return done


def _range_key(n, params, deck_kind, lo, hi) -> str:
    """What a sidecar's lanes are of: the format, the search and the range."""
    return " ".join([_SIDECAR_FORMAT, deck_kind, *_tags(params, deck_kind), f"n={n}", f"{lo}:{hi}"])


def _load_sidecar(sidecar: str, key: str, size: int):
    """The (h1, h2) lanes a sidecar holds for the range `key` of `size` codes,
    or None when the file is missing or unreadable, carries no key or another
    one, or holds lanes of another length."""
    try:
        with open(sidecar, "rb") as fh, np.load(fh) as data:
            stored = str(data["key"])
            lanes = data["h1"], data["h2"]
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    if stored != key or any(h.shape != (size,) or h.dtype != np.uint64 for h in lanes):
        return None
    return lanes


def _save_sidecar(sidecar: str, key: str, h1: np.ndarray, h2: np.ndarray) -> None:
    """Write the lanes and their range key to a temporary file, then rename it
    over the sidecar, so a reader never sees a half-written one."""
    tmp = sidecar + ".tmp"
    with open(tmp, "wb") as fh:  # a handle: np.savez appends .npz to a bare name
        np.savez(fh, key=np.array(key), h1=h1, h2=h2)
    os.replace(tmp, sidecar)


def _hash_groups(h1: np.ndarray, h2: np.ndarray) -> list:
    """Positions sharing both lanes, as groups of two or more.

    Each group is sorted and the groups are ordered by their first position.
    One argsort of h1 finds the runs of equal h1; only their members, which
    are few unless decks collide en masse, are sorted again to split each run
    by h2.
    """
    order = np.argsort(h1)
    sh1 = h1[order]
    tie = sh1[1:] == sh1[:-1]
    in_run = np.zeros(len(h1), dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    cand = order[in_run]
    cand = cand[np.lexsort((h2[cand], h1[cand]))]
    c1, c2 = h1[cand], h2[cand]
    boundary = np.ones(len(cand), dtype=bool)
    boundary[1:] = (c1[1:] != c1[:-1]) | (c2[1:] != c2[:-1])
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(cand))
    groups = [np.sort(cand[a:b]) for a, b in zip(starts, ends) if b - a >= 2]
    groups.sort(key=lambda g: int(g[0]))
    return groups


def find_collision(
    n: int,
    params: GapParams,
    deck_kind: str = FULL_B,
    workers: int = 1,
    mode: str = "exact",
    checkpoint: Optional[str] = None,
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> Optional[tuple]:
    """Lexicographically smallest confirmed confusable pair at length n, or None.

    Enumerates all 2^n strings. params is GapParams(s, k) for the deck kinds
    and (k1, k2) for WILDCARD_U, whose pairs are strings over {X, Y} equal on
    every count of search_SU's family. `checkpoint`, if given, is a directory: an
    append-only text log records each finished code range and the per-range
    hash lanes are kept in .npz sidecars, so an interrupted run resumes; a
    sidecar that cannot be read or holds lanes of the wrong length is ignored
    and its range recomputed, and so is one whose stored range key (format
    version, deck kind, params, n, lo:hi) is missing or names another range.
    One INFO line reports the strings hashed, the ranges computed and loaded,
    the hash-coincident groups, the hash false positives (groups that split
    under exact confirmation) and the seconds spent hashing, sorting and
    confirming.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    kinds = DECK_KINDS + (WILDCARD_U,)
    if deck_kind not in kinds:
        raise ValueError(f"deck_kind must be one of {kinds}, got {deck_kind!r}")
    if deck_kind == EQ7_STAR and n < 2:
        raise ValueError("EQ7_STAR needs n >= 2 (both-sides puncture)")
    if mode == "exact":  # a family pattern of length l counts at most C(n, l)
        s, k = (1, params[0]) if deck_kind == WILDCARD_U else params
        _check_exact(n, s, k)
    elif mode != "fingerprint":
        raise ValueError(f"mode must be 'exact' or 'fingerprint', got {mode!r}")

    total = 1 << n
    step = 1 << _RANGE_BITS
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    h1 = np.empty(total, dtype=np.uint64)
    h2 = np.empty(total, dtype=np.uint64)

    t_hash = time.perf_counter()
    done = _load_done(checkpoint)
    pending = []
    for lo, hi in ranges:
        if checkpoint is not None:
            logfile, sidecar = _checkpoint_paths(checkpoint, n, params, deck_kind, lo, hi)
            if (deck_kind, *map(str, params), str(n), f"{lo}:{hi}") in done:
                lanes = _load_sidecar(sidecar, _range_key(n, params, deck_kind, lo, hi), hi - lo)
                if lanes is not None:
                    h1[lo:hi], h2[lo:hi] = lanes
                    continue
                log.warning("checkpoint sidecar %s is unusable; recomputing %d:%d", sidecar, lo, hi)
        pending.append((n, *params, deck_kind, lo, hi))

    def store(lo, hi, r1, r2):
        h1[lo:hi] = r1
        h2[lo:hi] = r2
        if checkpoint is not None:
            logfile, sidecar = _checkpoint_paths(checkpoint, n, params, deck_kind, lo, hi)
            _save_sidecar(sidecar, _range_key(n, params, deck_kind, lo, hi), r1, r2)
            with open(logfile, "a") as fh:
                fh.write(f"{deck_kind} {' '.join(map(str, params))} {n} {lo}:{hi} done\n")
        log.debug("hashed range %d:%d of 2^%d", lo, hi, n)

    if checkpoint is not None:
        os.makedirs(checkpoint, exist_ok=True)
    if workers <= 1 or len(pending) <= 1:
        for task in pending:
            store(*_hash_range(task))
    else:  # a worker that dies raises BrokenProcessPool here instead of hanging
        ctx = multiprocessing.get_context("fork")
        pool = concurrent.futures.ProcessPoolExecutor(min(workers, len(pending)), mp_context=ctx)
        with pool:
            for result in pool.map(_hash_range, pending):
                store(*result)

    t_sort = time.perf_counter()
    groups = _hash_groups(h1, h2)

    t_confirm = time.perf_counter()
    best = None
    confirmed = split = 0
    for g in groups:
        if best is not None and int(g[0]) > best[0]:
            break
        confirmed += 1
        seen: dict = {}
        for code in g:
            code = int(code)
            x = _code_to_string(code, n, deck_kind)
            key = _confirm_key(x, params, deck_kind, mode, primes)
            seen.setdefault(key, []).append(code)
        for members in seen.values():
            if len(members) >= 2:
                cand = (members[0], members[1])
                if best is None or cand < best:
                    best = cand
        split += len(seen) > 1
    t_end = time.perf_counter()
    log.info(
        "n=%d %s %s: %d strings hashed, ranges %d computed / %d loaded, "
        "%d hash-coincident groups (%d confirmed, %d hash false positives); "
        "hash %.3f s, sort %.3f s, confirm %.3f s",
        n, deck_kind, " ".join(_tags(params, deck_kind)), sum(hi - lo for *_, lo, hi in pending),
        len(pending), len(ranges) - len(pending), len(groups), confirmed, split,
        t_sort - t_hash, t_confirm - t_sort, t_end - t_confirm,
    )
    if best is None:
        return None
    return _code_to_string(best[0], n, deck_kind), _code_to_string(best[1], n, deck_kind)


def _scan(params, n_max, deck_kind, floor, workers, mode, checkpoint, primes):
    scanned = []
    notes = []
    if floor > 1:
        notes.append(
            f"lengths 1..{floor - 1} excluded: depth-{params.k} slice is empty "
            f"there (every pair vacuously equal), first meaningful length is {floor}"
        )
    for n in range(floor, n_max + 1):
        log.info("scanning n=%d (%s, %s)", n, deck_kind, ", ".join(_tags(params, deck_kind)))
        pair = find_collision(n, params, deck_kind, workers, mode, checkpoint, primes)
        scanned.append(n)
        if pair is not None:
            break
    else:
        n, pair = None, None
        notes.append(
            f"no equivalent pair up to m_max={n_max}" if deck_kind == WILDCARD_U
            else f"no collision up to n_max={n_max}"
        )
    return CollisionReport(
        n=n,
        witnesses=() if pair is None else (pair,),
        scanned_lengths=tuple(scanned),
        deck_kind=deck_kind,
        params=params,
        notes=tuple(notes),
    )


def search_G(
    params: GapParams,
    n_max: int,
    workers: int = 1,
    mode: str = "exact",
    checkpoint: Optional[str] = None,
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> CollisionReport:
    """Minimal length with two distinct strings sharing the whole depth-k deck."""
    floor = params.s * (params.k - 1) + 1
    return _scan(params, n_max, FULL_B, floor, workers, mode, checkpoint, primes)


def search_G_star(
    params: GapParams,
    n_max: int,
    workers: int = 1,
    mode: str = "exact",
    checkpoint: Optional[str] = None,
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> CollisionReport:
    """Minimal length for four-way (plain and one-bit-punctured) deck equality."""
    floor = max(params.s * (params.k - 1) + 1, 2)
    return _scan(params, n_max, EQ7_STAR, floor, workers, mode, checkpoint, primes)


def search_exact_D(
    params: GapParams,
    n_max: int,
    workers: int = 1,
    mode: str = "exact",
    checkpoint: Optional[str] = None,
    primes: tuple = DEFAULT_FINGERPRINT_PRIMES,
) -> CollisionReport:
    """Minimal length with two distinct strings sharing the exact depth-k slice."""
    floor = params.s * (params.k - 1) + 1
    return _scan(params, n_max, EXACT_D, floor, workers, mode, checkpoint, primes)


def search_SU(
    k1: int,
    k2: Optional[int] = None,
    m_max: int = 16,
    workers: int = 1,
    checkpoint: Optional[str] = None,
) -> CollisionReport:
    """Smallest m with two distinct Gamma^m strings agreeing on every family count.

    Pair form (k2 given): family U_1(k1) u U_2(k2), needs k1 >= k2 >= 2.
    Single-depth form (k2 None): family U_1(k1), needs k1 >= 1.

    Each length m is one find_collision of kind WILDCARD_U over {X, Y}: the
    family counts are hashed on the prefix tree of its trie, and the smallest
    pair in a shared group (the smallest first string, then its smallest
    partner) is confirmed with count_wildcard.
    """
    _family(k1, k2)  # reject a bad family before scanning
    return _scan((k1, k2), m_max, WILDCARD_U, 1, workers, "exact", checkpoint,
                 DEFAULT_FINGERPRINT_PRIMES)
