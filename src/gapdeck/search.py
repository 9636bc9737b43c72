"""Exhaustive minimal-confusable-length searches.

find_collision enumerates every binary string of a given length, buckets the
strings by a 64-bit hash lane of the relevant deck signature (its counts
dotted with fixed odd multipliers, wrapping mod 2^64), then confirms every
hash group by recomputing exact signatures scalar-wise. The lane is linear in
the counts, so equal decks always share a group, and a lane coincidence costs
one extra confirmation, never a wrong or missed witness. The confirmed witness
returned is always the lexicographically smallest pair, independent of worker
count: the code space is split into fixed contiguous ranges, per-range lanes
are written into position in a full array, and the tie-break happens after a
global sort.

search_G / search_G_star / search_exact_D scan lengths upward and stop at
the first collision. Lengths too short to carry any depth-k slice (below
s*(k-1)+1) make every pair of strings vacuously equal at depth k; those
lengths are excluded from the scan and listed in the report notes instead of
being reported as collisions, as is length 1 of search_G_star at depth 1
(its both-sides puncture needs n >= 2).

The hashing runs the deck engine's recurrence over the prefix tree of a code
range instead of once per string. Level i holds the DP state (the pinned
empty-prefix column 0, then the pattern counts in the deck's heap order) of
every length-i prefix in code order; level i+1 repeats each row twice, and
the rows ending in bit b add the prefix-count columns of their ancestor at
level max(0, i+1-s), which enforces the gap. For decks those columns are
strided slices, so the update reads and writes views; a general trie (a
wildcard family) uses index arrays. Only levels through max(n-s, 0) are
materialised: the lane is linear in the counts, so the last s levels are
one-column lane steps, h(x.b) = h(x) + ready[src_b] @ L[dst_b], and the cost
is about 2^(n+1-s) row updates. A code range is an aligned block, cut into
chunks of at most 2^16 strings. deck._run_pass walks a chunk's fixed top bits
(at most max(n-s, 0) of them: a smaller block is sliced out of its chunk), and
the ring of states it returns is the gap window the chunk's tree grows from.
EQ7_STAR sums two trees, the plain one and one over the code mod 2^(n-1)
(the L puncture: drop the first bit). Each folds its parent-level puncture
(R, LR) into one summed lane vector through level n-1, and its last step adds
its own lanes alone.

search_SU is the same search over {X, Y} (deck kind WILDCARD_U): the tree runs
at gap 1 on the trie of a wildcard family, whose J columns update on both
letters, and the lane matrix hashes the family's columns only, as EXACT_D
hashes only the depth-k slice. Its hash groups are confirmed by count_wildcard,
the independent reference, and its ranges, checkpoints, workers and telemetry
are those of the deck searches, keyed by (k1, k2) instead of (s, k).

Hash groups: tied lanes are read off one sort of the lane (below a search's
minimum there are none), and one pass over the lane finds their positions. A
resume reads the .npz checkpoint sidecars alone; each carries its range key
(format version, deck kind, params, n, lo:hi), so a foreign or older one is
recomputed. search.log is an append-only progress record.
"""
from __future__ import annotations

import concurrent.futures  # its ProcessPoolExecutor is imported on first use
import functools
import logging
import multiprocessing
import os
import time
import zipfile
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gapdeck.deck import (
    GapParams,
    _check_exact,
    _check_params,
    _deck_tables,
    _punctured_counts,
    _run_pass,
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
_SIDECAR_FORMAT = "gapdeck-lanes/3"  # format 1 held no range key, format 2 two lanes


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
    """A lane of fixed odd 64-bit multipliers (deterministic)."""
    rng = np.random.default_rng(_HASH_SEED)
    return rng.integers(1, 2**63, size=width, dtype=np.uint64) | np.uint64(1)


def _extend(prev: np.ndarray, ready: np.ndarray, tables) -> np.ndarray:
    """The prefix-tree level after `prev`: row r extends row r >> 1 by bit r & 1.

    Its gap-ready state is its ancestor in `ready` (level max(0, i+1-s)), which
    reshaping each half to (rows of ready, rest, ...) lines up by broadcasting.
    """
    width = prev.shape[1]
    nxt = np.repeat(prev, 2, axis=0).reshape(len(ready), -1, 2, width)
    for b, (dst, src) in enumerate(tables):
        nxt[:, :, b, dst] += ready[:, None, src]
    return nxt.reshape(-1, width)


def _tree_hashes(n, s, tables, width, lo, hi, leaf_lanes, parent_lanes=None) -> np.ndarray:
    """The (hi-lo,) lane counts(x) @ leaf_lanes [+ counts(x[:-1]) @ parent_lanes].

    [lo, hi) must be an aligned power-of-two block. Each of its aligned chunks
    of at most 2^_LEAF_BITS codes fixes its top bits, at most through the last
    count level m = max(n-s, 0), so a block smaller than 2^s codes is hashed
    as its enclosing chunk and sliced. deck._run_pass walks a chunk's top bits,
    and its ring is the gap window (the last s levels), which _extend grows
    through level m. Then a matmul at level m, and a lane step per level below
    it, h(x.b) = h(x) + ready @ moved[b] (moved[b]: the lanes of letter b's dst
    columns on their src rows), step j reading ready = ring[j]. The lane is
    linear in the counts, so h(y.b) = counts(y) @ (leaf_lanes + parent_lanes)
    + ready @ moved[b] of leaf_lanes: the summed lanes through level n-1, then
    a last step of the leaf lanes."""
    size = hi - lo
    if lo < 0 or size < 1 or size & (size - 1) or lo % size or hi > 1 << n:
        raise ValueError(f"code range {lo}:{hi} is not an aligned block of 2^{n}")
    m = max(n - s, 0)
    depth = min(n - min(size.bit_length() - 1, _LEAF_BITS), m)  # a chunk's top bits
    span = 1 << (n - depth)
    base = lo - lo % span
    leaf = np.concatenate(([np.uint64(0)], leaf_lanes))  # pinned column 0
    lanes = leaf if parent_lanes is None else leaf + np.concatenate(([np.uint64(0)], parent_lanes))
    step, last = np.zeros((2, width, len(tables)), dtype=np.uint64)  # of lanes, of leaf
    for b, (dst, src) in enumerate(tables):
        np.add.at(step[:, b], src, lanes[dst])
        np.add.at(last[:, b], src, leaf[dst])
    h = np.empty(max(size, span), dtype=np.uint64)
    for start in range(base, hi, span):
        top = [(start >> (n - 1 - i)) & 1 for i in range(depth)]
        ring = deque(_run_pass(top, s, tables, width), maxlen=s)  # levels depth+1-s .. depth
        for _ in range(depth, m):
            ring.append(_extend(ring[-1], ring[0], tables))
        part = ring[-1] @ lanes
        for j in range(n - m):
            add = ring[j] @ (last if m + j == n - 1 else step)
            part = (part.reshape(len(ring[j]), -1, 1) + add[:, None, :]).reshape(-1)
        h[start - base : start - base + span] = part
    return h[lo - base : hi - base]


@functools.cache  # every length, range and confirmation of a search reads it
def _family(k1: int, k2: Optional[int]) -> tuple:
    """The wildcard family of search_SU: U_1(k1) u U_2(k2), or U_1(k1) if k2 is None."""
    if k2 is None:
        if k1 < 1:
            raise ValueError(f"single-depth form needs k1 >= 1, got {k1}")
        return tuple(enumerate_U(USetSpec.single(1, k1)))
    return tuple(enumerate_U(USetSpec.pair(k1, k2)))  # validates k1 >= k2 >= 2


def _lane_hashes(n: int, a: int, b: int, deck_kind: str, lo: int, hi: int):
    """The hash lane of the codes lo..hi-1 at length n.

    (a, b) are the search's params: (s, k) for the deck kinds, (k1, k2) for
    WILDCARD_U. The lane is the wrapping uint64 dot product of the kind's
    counts with fixed odd multipliers; EQ7_STAR concatenates the
    plain, L, R and LR punctured counts, EXACT_D keeps only the depth-k slice
    and WILDCARD_U only the family's columns of its trie.
    """
    if deck_kind == WILDCARD_U:
        family = _family(a, b)
        tables, cols = _trie_tables(family, "XY")
        lanes = np.zeros(len(cols), dtype=np.uint64)
        lanes[[cols[w] - 1 for w in family]] = _hash_lanes(len(family))
        return _tree_hashes(n, 1, tables, len(cols) + 1, lo, hi, lanes)
    s, P = a, pattern_count(b)
    tree = s, _deck_tables(b), P + 1
    if deck_kind == EQ7_STAR:
        plain, left, right, both = np.split(_hash_lanes(4 * P), 4)
        h = _tree_hashes(n, *tree, lo, hi, plain, right)
        # x[1:] is code mod 2^(n-1): one subtree, or the whole tree twice
        half = 1 << (n - 1)
        size = min(hi - lo, half)
        h += np.tile(
            _tree_hashes(n - 1, *tree, lo % half, lo % half + size, left, both),
            (hi - lo) // size,
        )
    elif deck_kind == EXACT_D:
        lanes = np.zeros(P, dtype=np.uint64)
        lanes[(1 << b) - 2 :] = _hash_lanes(1 << b)
        h = _tree_hashes(n, *tree, lo, hi, lanes)
    else:
        h = _tree_hashes(n, *tree, lo, hi, _hash_lanes(P))
    return h


def _hash_range(args):
    n, a, b, deck_kind, lo, hi = args
    return lo, hi, _lane_hashes(n, a, b, deck_kind, lo, hi)


def _code_to_string(code: int, n: int, deck_kind: str):
    """The string of a code: a bit tuple, or over {X, Y} for WILDCARD_U."""
    bits = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
    return "".join("XY"[b] for b in bits) if deck_kind == WILDCARD_U else bits


def _confirm_key(x, params, deck_kind: str):
    """The exact object whose equality defines a collision of this kind."""
    if deck_kind == WILDCARD_U:  # the family counts, from the independent reference
        return tuple(count_wildcard(w, x) for w in _family(*params))
    if deck_kind == EQ7_STAR:  # plain, L, R and LR counts
        return tuple(c.tobytes() for c in _punctured_counts(x, *params, "exact"))
    sig = signature(x, params)
    if deck_kind == EXACT_D:
        return sig.length_slice(params.k)
    return sig.counts


def _tags(params, deck_kind: str) -> list:
    """The params as name=value strings: s and k, or k1 and k2 for WILDCARD_U."""
    names = ("k1", "k2") if deck_kind == WILDCARD_U else ("s", "k")
    return [f"{a}={v}" for a, v in zip(names, params)]


def _sidecar(checkpoint: str, n, params, deck_kind, lo, hi) -> tuple:
    """(path, key) of a range's sidecar: the key says what its lane is of,
    the format, the search and the range."""
    tags = _tags(params, deck_kind)
    name = "_".join([deck_kind, *(tag.replace("=", "") for tag in tags), f"n{n}", str(lo), str(hi)])
    key = " ".join([_SIDECAR_FORMAT, deck_kind, *tags, f"n={n}", f"{lo}:{hi}"])
    return os.path.join(checkpoint, name + ".npz"), key


def _load_sidecar(sidecar: str, key: str, size: int):
    """The lane a sidecar holds for the range `key` of `size` codes, or None
    when the file is missing or unreadable, carries no key or another one, or
    holds a lane of another length."""
    try:
        with open(sidecar, "rb") as fh, np.load(fh) as data:
            stored = str(data["key"])
            h = data["h"]
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    if stored != key or h.shape != (size,) or h.dtype != np.uint64:
        return None
    return h


def _save_sidecar(sidecar: str, key: str, h: np.ndarray) -> None:
    """Write the lane and its range key to a temporary file, then rename it
    over the sidecar, so a reader never sees a half-written one."""
    tmp = sidecar + ".tmp"
    with open(tmp, "wb") as fh:  # a handle: np.savez appends .npz to a bare name
        np.savez(fh, key=np.array(key), h=h)
    os.replace(tmp, sidecar)


def _hash_groups(h: np.ndarray) -> list:
    """Positions sharing a lane, as groups of two or more.

    Each group is sorted and the groups are ordered by their first position.
    One sort of h shows the tied lanes (below a search's minimum there are
    none), one np.isin pass over h finds their positions, and only those few
    positions are split into runs of equal lanes.
    """
    s = np.sort(h)
    tied = s[1:][s[1:] == s[:-1]]
    del s  # free the sorted copy before the membership pass
    if not len(tied):
        return []
    # each value once: np.isin makes one pass over h per value, or sorts h
    # itself once the values are many
    tied = tied[np.concatenate(([True], tied[1:] != tied[:-1]))]
    pos = np.flatnonzero(np.isin(h, tied))
    lanes = h[pos]
    order = np.argsort(lanes, kind="stable")  # positions stay ascending in each run
    pos, lanes = pos[order], lanes[order]
    groups = np.split(pos, np.flatnonzero(lanes[1:] != lanes[:-1]) + 1)
    groups.sort(key=lambda g: int(g[0]))
    return groups


def _guard_params(params, deck_kind: str) -> tuple:
    """Validate the kind and its params; return the params, GapParams(s, k)
    for the deck kinds and (k1, k2) for WILDCARD_U."""
    kinds = DECK_KINDS + (WILDCARD_U,)
    if deck_kind not in kinds:
        raise ValueError(f"deck_kind must be one of {kinds}, got {deck_kind!r}")
    if deck_kind == WILDCARD_U:
        _family(*params)
        return params
    return _check_params(params)


def find_collision(
    n: int,
    params: GapParams,
    deck_kind: str = FULL_B,
    workers: int = 1,
    checkpoint: Optional[str] = None,
) -> Optional[tuple]:
    """Lexicographically smallest confirmed confusable pair at length n, or None.

    Enumerates all 2^n strings. params is GapParams(s, k) for the deck kinds
    and (k1, k2) for WILDCARD_U, whose pairs are strings over {X, Y} equal on
    every count of search_SU's family. The strings are bucketed by one 64-bit
    hash lane, and every group is confirmed by exact recomputation: uint64
    signatures (count_wildcard for WILDCARD_U), whose overflow guard passes
    for every n <= 67, far past any length whose 2^n lanes fit in memory.
    `checkpoint`, if given, is a directory: each finished code range's lane
    goes to a .npz sidecar, and a resume reads the sidecars alone. A sidecar
    that cannot be read, holds a lane of the wrong length, or whose stored
    range key (format version, deck kind, params, n, lo:hi) is missing or
    names another range is logged as unusable and its range recomputed. search.log there is an append-only
    progress record of the ranges computed, which a resume does not read.
    One INFO line reports the strings hashed, the ranges computed and loaded,
    the hash-coincident groups, the hash false positives (groups that split
    under exact confirmation) and the seconds spent hashing, sorting and
    confirming.
    """
    params = _guard_params(params, deck_kind)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if deck_kind == EQ7_STAR and n < 2:
        raise ValueError("EQ7_STAR needs n >= 2 (both-sides puncture)")
    # a family pattern of length l <= k1 counts at most C(n, l), as at gap 1, depth k1
    _check_exact(n, *((1, params[0]) if deck_kind == WILDCARD_U else params))

    total = 1 << n
    step = 1 << _RANGE_BITS
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    h = np.empty(total, dtype=np.uint64)

    t_hash = time.perf_counter()
    pending = []
    for lo, hi in ranges:
        if checkpoint is not None:
            sidecar, key = _sidecar(checkpoint, n, params, deck_kind, lo, hi)
            lanes = _load_sidecar(sidecar, key, hi - lo)
            if lanes is not None:
                h[lo:hi] = lanes
                continue
            if os.path.exists(sidecar):
                log.warning("checkpoint sidecar %s is unusable; recomputing %d:%d", sidecar, lo, hi)
        pending.append((n, *params, deck_kind, lo, hi))

    def store(i, lo, hi, lanes):
        h[lo:hi] = lanes
        if checkpoint is not None:
            _save_sidecar(*_sidecar(checkpoint, n, params, deck_kind, lo, hi), lanes)
            with open(os.path.join(checkpoint, "search.log"), "a") as fh:
                fh.write(f"{deck_kind} {' '.join(map(str, params))} {n} {lo}:{hi} done\n")
        if len(ranges) >= 2:  # progress, with an ETA at the pace so far
            spent, left = time.perf_counter() - t_hash, len(pending) - i
            log.info("n=%d %s %s: %d/%d ranges done, %.1f s elapsed, ETA %.1f s", n, deck_kind,
                     " ".join(_tags(params, deck_kind)), len(ranges) - left, len(ranges), spent,
                     spent / i * left)

    if checkpoint is not None:
        os.makedirs(checkpoint, exist_ok=True)
    if workers <= 1 or len(pending) <= 1:
        for i, task in enumerate(pending, 1):
            store(i, *_hash_range(task))
    else:  # a worker that dies raises BrokenProcessPool here instead of hanging
        ctx = multiprocessing.get_context("fork")
        pool = concurrent.futures.ProcessPoolExecutor(min(workers, len(pending)), mp_context=ctx)
        with pool:
            for i, result in enumerate(pool.map(_hash_range, pending), 1):
                store(i, *result)

    t_sort = time.perf_counter()
    groups = _hash_groups(h)

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
            key = _confirm_key(x, params, deck_kind)
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


def _scan(params, n_max, deck_kind, workers, checkpoint):
    params = _guard_params(params, deck_kind)  # also when no length is scanned
    floor = 1 if deck_kind == WILDCARD_U else params.s * (params.k - 1) + 1
    scanned = []
    notes = []
    if floor > 1:
        notes.append(
            f"lengths 1..{floor - 1} excluded: depth-{params.k} slice is empty "
            f"there (every pair vacuously equal), first meaningful length is {floor}"
        )
    elif deck_kind == EQ7_STAR:  # depth 1: the slice is not empty at n = 1
        floor = 2
        notes.append("length 1 excluded: the both-sides puncture needs n >= 2")
    for n in range(floor, n_max + 1):
        log.info("scanning n=%d (%s, %s)", n, deck_kind, ", ".join(_tags(params, deck_kind)))
        pair = find_collision(n, params, deck_kind, workers, checkpoint)
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
    params: GapParams, n_max: int, workers: int = 1, checkpoint: Optional[str] = None
) -> CollisionReport:
    """Minimal length with two distinct strings sharing the whole depth-k deck."""
    return _scan(params, n_max, FULL_B, workers, checkpoint)


def search_G_star(
    params: GapParams, n_max: int, workers: int = 1, checkpoint: Optional[str] = None
) -> CollisionReport:
    """Minimal length for four-way (plain and one-bit-punctured) deck equality."""
    return _scan(params, n_max, EQ7_STAR, workers, checkpoint)


def search_exact_D(
    params: GapParams, n_max: int, workers: int = 1, checkpoint: Optional[str] = None
) -> CollisionReport:
    """Minimal length with two distinct strings sharing the exact depth-k slice."""
    return _scan(params, n_max, EXACT_D, workers, checkpoint)


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
    return _scan((k1, k2), m_max, WILDCARD_U, workers, checkpoint)
