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
range instead of once per string. Level i holds the narrow DP state of every
length-i prefix: the pinned empty prefix and the patterns shorter than k, the
deck's first 2^k - 1 columns, the only ones read back as a gap-ready parent.
It is letter-major (a row's newest letter is its top index bit) and held as
(2^k - 1, rows): level i+1 is [level i + letter-0 update | level i + letter-1
update], row r's ancestor at level max(0, i+1-s) is row r mod that level's
size, and every update runs along the rows. The lane is linear in the counts,
so one rule carries it down every level, h(y.b) = h(y) + ready[src_b] @
L[dst_b] (ready: that ancestor's columns). Level m = max(n-s, 0), the last
read as gap-ready, is read by the last lane step alone, so it is never grown:
at level m-1 the tree takes that step's dot product in lane space,
[level m-1 @ L + update_0 @ L | level m-1 @ L + update_1 @ L], one 2-row
_extend. A code range is an aligned block, cut into chunks of at most 2^16
strings and 2^21 cells (strings x the 2^k - 1 columns). deck._run_pass walks a
chunk's top bits (at most m: a smaller block is sliced out of its chunk); its
states are the gap window the tree grows from, and one bit-reversal gather
puts the chunk's lanes in code order (in place, in a one-process search).
EQ7_STAR sums two trees, the plain one and one over the code mod 2^(n-1)
(the L puncture: drop the first bit). Each folds its parent-level puncture
(R, LR) into one summed lane vector through level n-1, and its last step adds
its own lanes alone.

search_SU is the same search over {X, Y} (deck kind WILDCARD_U), on the
classical deck of depth k1: a family pattern counts the occurrences of every
binary pattern it stands for (X is 0, Y is 1, J is either), so its multiplier
goes on each of them. Its hash groups are confirmed by count_wildcard, the
independent reference, and its ranges, checkpoints, workers and telemetry
are those of the deck searches, keyed by (k1, k2) instead of (s, k).

Hash groups: tied lanes are read off one sort of the lane (below a search's
minimum there are none), and one pass over the lane finds their positions. A
resume reads the .npz checkpoint sidecars alone, each lane straight into its
place in the search's lane array; each carries its range key (format
version, deck kind, params, n, lo:hi), so a foreign or older one is
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
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from gapdeck import deck
from gapdeck.deck import (
    GapParams,
    _check_params,
    _deck_tables,
    _punctured_counts,
    _run_pass,
    pattern_count,
    pattern_index,
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
_LEAF_BITS = 16  # a leaf chunk holds at most 2^16 codes
_LEAF_CELLS = 1 << 21  # and at most 2^21 uint64 cells (codes x the 2^k - 1 grown columns)
_SIDECAR_FORMAT = "gapdeck-lanes/3"  # format 1 held no range key, format 2 two lanes
_READ_BYTES = 1 << 18  # a sidecar's lane is read into place in pieces of this size
# _extend's tables for level m's lane step: its two lanes take the letter-0
# update's two from rows 0:2 of the stacked updates, the letter-1 update's from 2:4
_LANE_HALVES = [(slice(None), slice(0, 2)), (slice(None), slice(2, 4))]


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


@functools.cache  # every range of a search reads the same lanes
def _hash_lanes(width: int) -> np.ndarray:
    """A read-only lane of fixed odd 64-bit multipliers (deterministic)."""
    rng = np.random.default_rng(_HASH_SEED)
    lanes = rng.integers(1, 2**63, size=width, dtype=np.uint64) | np.uint64(1)
    lanes.flags.writeable = False
    return lanes


@functools.lru_cache(maxsize=1)  # one table serves every f up to its own bit count
def _reversal_table(bits: int) -> np.ndarray:
    """The read-only bits-bit reversal index, [2 rev_(bits-1) | 2 rev_(bits-1) + 1]."""
    rev = np.zeros(1 << bits, dtype=np.intp)
    for i in range(bits):
        np.add(rev[: 1 << i], rev[: 1 << i], out=rev[: 1 << i])
        np.add(rev[: 1 << i], 1, out=rev[1 << i : 2 << i])
    rev.flags.writeable = False
    return rev


def _bit_reversal(f: int) -> np.ndarray:
    """The read-only f-bit reversal index: rev_f(c) = rev_t(c << (t - f)) for f <= t,
    so it is every 2^(t-f)-th entry of the t-bit table, t = max(f, _LEAF_BITS)."""
    top = max(f, _LEAF_BITS)
    return _reversal_table(top)[:: 1 << (top - f)]


def _extend(prev: np.ndarray, ready: np.ndarray, tables) -> np.ndarray:
    """The prefix-tree level after `prev`, both held transposed as (columns,
    rows): [prev + letter-0 update | prev + letter-1 update].

    A row's newest letter is its top index bit, so the gap-ready ancestor of
    row r in `ready` (level max(0, i+1-s), R rows) is row r mod R: each half,
    split to (columns, rest, R), lines up with it by broadcasting.
    """
    nxt = np.empty((len(prev), 2, prev.shape[1]), dtype=np.uint64)
    nxt[:] = prev[:, None]
    halves = nxt.reshape(len(prev), 2, -1, ready.shape[1])
    for letter, (dst, src) in enumerate(tables):
        halves[dst, letter] += ready[src, None]
    return nxt.reshape(len(prev), -1)


def _tree_hashes(n, s, k, lo, hi, leaf_lanes, parent_lanes=None, out=None) -> np.ndarray:
    """The (hi-lo,) lane counts(x) @ leaf_lanes [+ counts(x[:-1]) @ parent_lanes]
    of the depth-k deck at gap s, written into `out` if given.

    [lo, hi) must be an aligned power-of-two block. Each of its aligned chunks
    of at most 2^_LEAF_BITS codes and _LEAF_CELLS cells (codes x narrow
    columns) fixes its top bits, at most through level m = max(n-s, 0), so a
    block smaller than 2^s codes is hashed as its enclosing chunk and sliced.
    Below them _extend grows the narrow tree through level m-1, letter-major
    and transposed, and every level is one rule along the rows, h(y.b) =
    h(y) + ready @ moved[b]: ready is the narrow columns of the gap-ready
    ancestor at level max(0, i+1-s), and moved[b] the lanes of the columns
    letter b adds it to.
    The lane is linear in the counts, so h(y.b) = counts(y) @ (leaf_lanes +
    parent_lanes) + ready @ moved[b] of leaf_lanes: the summed lanes through
    level n-1, then a last step of the leaf lanes. That step alone reads
    level m, and only through its dot product with the leaf lanes, so when
    m lies below the top bits the chunk takes it in lane space at level
    m-1: _extend of (level m-1 @ last) by the updates' (ready[src] @
    last[dst]), two rows instead of the narrow columns. One bit-reversal
    gather per chunk puts the lanes in code order."""
    size = hi - lo
    if lo < 0 or size < 1 or size & (size - 1) or lo % size or hi > 1 << n:
        raise ValueError(f"code range {lo}:{hi} is not an aligned block of 2^{n}")
    tables, width = _deck_tables(k), pattern_count(k) + 1
    narrow = (1 << k) - 1  # the root and the patterns shorter than k
    m = max(n - s, 0)
    bits = min(_LEAF_BITS, (_LEAF_CELLS // narrow).bit_length() - 1)  # a chunk's codes
    depth = min(n - min(size.bit_length() - 1, bits), m)  # a chunk's top bits
    span = 1 << (n - depth)
    base = lo - lo % span
    lanes = leaf_lanes if parent_lanes is None else leaf_lanes + parent_lanes
    # moved, of lanes and of leaf: heap column j's children are patterns 2j and 2j+1
    step, last = lanes.reshape(narrow, 2), leaf_lanes.reshape(narrow, 2)
    grow = _deck_tables(k - 1)
    h = np.empty(size, dtype=np.uint64) if out is None else out
    rev = _bit_reversal(n - depth)[lo - base : lo - base + size]  # code order
    levels = [None] * (s + max(m - depth, 1))  # a chunk's levels depth-s .. max(m-1, depth)
    for start in range(base, hi, span):
        top = [(start >> (n - 1 - i)) & 1 for i in range(depth)]
        ring = _run_pass(top, s, tables, width)  # levels depth-s .. depth
        part = ring[-1][:, 1:] @ lanes  # column 0, the pinned root, carries no lane
        levels[: s + 1] = (state[0, :narrow, None] for state in ring)
        for i in range(depth, n):
            if i < n - 1 or m <= depth:
                ready = levels[i + 1 - depth]  # level max(0, i+1-s)
                add = np.einsum("jr,jb->br", ready, last if i == n - 1 else step)
            else:  # level m's lane step, taken in lane space at level m-1
                add = final
            part = (part.reshape(-1, add.shape[1]) + add[:, None]).reshape(-1)
            j = i + 1 - depth + s  # level i+1
            if i < m - 1:  # free the last chunk's level i+1 first: the allocator reuses
                levels[j] = None  # its block, where freeing a whole chunk at once
                levels[j] = _extend(levels[j - 1], ready, grow)  # can trim the heap
            elif i == m - 1:  # level m @ last = [prev @ last + update_0 @ last | ... _1]
                u = [np.einsum("jr,jb->br", ready[src], last[dst]) for dst, src in grow]
                final = _extend(np.einsum("jr,jb->br", levels[j - 1], last), np.concatenate(u),
                                _LANE_HALVES)
        np.take(part, rev, out=h[start - base : start - base + len(rev)], mode="clip")
    return h


@functools.cache  # every length, range and confirmation of a search reads it
def _family(k1: int, k2: Optional[int]) -> tuple:
    """The wildcard family of search_SU: U_1(k1) u U_2(k2), or U_1(k1) if k2 is None."""
    if k2 is None:
        if k1 < 1:
            raise ValueError(f"single-depth form needs k1 >= 1, got {k1}")
        return tuple(enumerate_U(USetSpec.single(1, k1)))
    return tuple(enumerate_U(USetSpec.pair(k1, k2)))  # validates k1 >= k2 >= 2


@functools.cache  # every length and range of a search reads the same lanes
def _family_lanes(k1: int, k2: Optional[int]) -> np.ndarray:
    """The family's read-only multipliers on the classical depth-k1 deck: each
    pattern's on every binary pattern it stands for (X is 0, Y is 1, J is
    either), summed mod 2^64, so the deck's lane is the family counts' lane."""
    family = _family(k1, k2)
    letters = {"X": (0,), "Y": (1,), "J": (0, 1)}
    lanes = np.zeros(pattern_count(k1), dtype=np.uint64)
    for w, a in zip(family, _hash_lanes(len(family))):
        lanes[[pattern_index(v) for v in product(*(letters[c] for c in w))]] += a
    lanes.flags.writeable = False
    return lanes


def _lane_hashes(n: int, a: int, b: int, deck_kind: str, lo: int, hi: int, out=None):
    """The hash lane of the codes lo..hi-1 at length n, written into `out` if given.

    (a, b) are the search's params: (s, k) for the deck kinds, (k1, k2) for
    WILDCARD_U. The lane is the wrapping uint64 dot product of the kind's
    counts with fixed odd multipliers; EQ7_STAR concatenates the
    plain, L, R and LR punctured counts, EXACT_D keeps only the depth-k slice,
    and WILDCARD_U dots the classical depth-k1 deck with _family_lanes.
    """
    if deck_kind == WILDCARD_U:
        return _tree_hashes(n, 1, a, lo, hi, _family_lanes(a, b), out=out)
    s, P = a, pattern_count(b)
    if deck_kind == EQ7_STAR:
        plain, left, right, both = np.split(_hash_lanes(4 * P), 4)
        h = _tree_hashes(n, s, b, lo, hi, plain, right, out)
        # x[1:] is code mod 2^(n-1): one subtree, or the whole tree twice
        half = 1 << (n - 1)
        size = min(hi - lo, half)
        h.reshape(-1, size)[:] += _tree_hashes(n - 1, s, b, lo % half, lo % half + size, left, both)
        return h
    lanes = _hash_lanes(P)
    if deck_kind == EXACT_D:  # the depth-k slice alone
        lanes = np.concatenate((np.zeros(P - (1 << b), dtype=np.uint64), _hash_lanes(1 << b)))
    return _tree_hashes(n, s, b, lo, hi, lanes, out=out)


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
        return tuple(c.tobytes() for c in _punctured_counts(x, *params))
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


def _load_sidecar(sidecar: str, key: str, out: np.ndarray) -> bool:
    """Read the lane a sidecar holds for the range `key` straight into `out`.

    False when the file is missing or unreadable, carries no key or another
    one, or holds a lane of another shape or dtype; `out` may then hold part
    of the lane, and the caller recomputes it in place. The key is checked
    first, then the .npy header, and the lane is read in pieces of
    _READ_BYTES to the end of its member, so the zip's CRC-32 check runs.
    """
    try:
        with zipfile.ZipFile(sidecar) as zf:
            with zf.open("key.npy") as fh:
                if str(np.lib.format.read_array(fh)) != key:
                    return False
            with zf.open("h.npy") as fh:
                if (np.lib.format.read_magic(fh) != (1, 0)  # np.savez writes a lane as 1.0
                        or np.lib.format.read_array_header_1_0(fh) != (out.shape, False, out.dtype)):
                    return False
                view = memoryview(out).cast("B")
                for at in range(0, len(view), _READ_BYTES):
                    piece = view[at : at + _READ_BYTES]
                    if fh.readinto(piece) != len(piece):
                        return False
                return fh.read() == b""
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return False


def _save_sidecar(sidecar: str, key: str, h: np.ndarray) -> None:
    """Write the lane and its range key to a temporary file, then rename it
    over the sidecar, so a reader never sees a half-written one.

    The file holds the members np.savez(key=..., h=...) would write, and
    np.load reads it, but the lane goes from `h` to its member behind a .npy
    1.0 header, with no copy of it made."""
    tmp = sidecar + ".tmp"
    with zipfile.ZipFile(tmp, "w") as zf:
        with zf.open("key.npy", "w") as fh:
            np.lib.format.write_array(fh, np.array(key))
        with zf.open("h.npy", "w") as fh:
            np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(h))
            fh.write(memoryview(h).cast("B"))
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


def _guard_params(params, deck_kind: str, workers: int) -> tuple:
    """Validate the kind, its params and the worker count; return the params,
    GapParams(s, k) for the deck kinds and (k1, k2) for WILDCARD_U."""
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
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
    hash lane, and every group is confirmed by exact recomputation: deck
    signatures (count_wildcard for WILDCARD_U). A length whose 2^n lanes of
    8 bytes exceed physical memory is refused with MemoryError up front.
    `checkpoint`, if given, is a directory: each finished code range's lane
    goes to a .npz sidecar, and a resume reads the sidecars alone, each lane
    straight into the search's lane array. A sidecar that cannot be read,
    holds a lane of the wrong shape, or whose stored range key (format
    version, deck kind, params, n, lo:hi) is missing or names another range
    is logged as unusable and its range recomputed into the same place.
    search.log there is an append-only progress record of the ranges
    computed, which a resume does not read.
    One INFO line reports the strings hashed, the ranges computed and loaded,
    the hash-coincident groups, the hash false positives (groups that split
    under exact confirmation) and the seconds spent hashing, sorting and
    confirming.
    """
    params = _guard_params(params, deck_kind, workers)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if deck_kind == EQ7_STAR and n < 2:
        raise ValueError("EQ7_STAR needs n >= 2 (both-sides puncture)")
    total = 1 << n
    if 8 * total > deck._PHYSICAL_BYTES:  # before 2^n / 2^20 ranges are listed
        raise MemoryError(
            f"n={n} needs 8 * 2^{n} bytes of hash lanes, "
            f"more than the {deck._PHYSICAL_BYTES} bytes of physical memory"
        )
    step = 1 << _RANGE_BITS
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    h = np.empty(total, dtype=np.uint64)

    t_hash = time.perf_counter()
    pending = []
    for lo, hi in ranges:
        if checkpoint is not None:
            sidecar, key = _sidecar(checkpoint, n, params, deck_kind, lo, hi)
            if _load_sidecar(sidecar, key, h[lo:hi]):
                continue
            if os.path.exists(sidecar):
                log.warning("checkpoint sidecar %s is unusable; recomputing %d:%d", sidecar, lo, hi)
        pending.append((n, *params, deck_kind, lo, hi))

    def store(i, lo, hi, lanes):
        h[lo:hi] = lanes  # a no-op when the lanes were written in place
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
            store(i, *task[-2:], _lane_hashes(*task, h[task[-2] : task[-1]]))
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
    params = _guard_params(params, deck_kind, workers)  # also when no length is scanned
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
    bound = "m_max" if deck_kind == WILDCARD_U else "n_max"
    if n_max < floor:  # a verdict over no length would decide nothing
        raise ValueError(f"{bound}={n_max} scans no length: the first meaningful length is {floor}")
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
    classical depth-k1 deck is hashed with _family_lanes, and the smallest
    pair in a shared group (the smallest first string, then its smallest
    partner) is confirmed with count_wildcard.
    """
    return _scan((k1, k2), m_max, WILDCARD_U, workers, checkpoint)
