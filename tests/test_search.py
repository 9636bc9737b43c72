import collections
import concurrent.futures
import functools
import hashlib
import itertools
import json
import random
import re
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdeck import oracle, search
from gapdeck.bounds import MINIMA
from gapdeck.deck import (
    GapParams,
    _deck_tables,
    _run_pass,
    deck_equal,
    exact_deck_equal,
    pattern_count,
    pattern_index,
    patterns_upto,
    signature,
    verify_eq7,
)
from gapdeck.search import (
    DECK_KINDS,
    EQ7_STAR,
    EXACT_D,
    FULL_B,
    WILDCARD_U,
    CollisionReport,
    _extend,
    _hash_lanes,
    _lane_hashes,
    _tied_groups,
    _tied_lanes,
    _tree_hashes,
    find_collision,
    search_G,
    search_G_star,
    search_SU,
    search_exact_D,
)
from gapdeck.strings import complement, reverse
from gapdeck.wildcard import USetSpec, count_wildcard, enumerate_U, u_equiv

LEDGER = {(m.which, m.params): m for m in MINIMA}


def _found(report):
    """(n, smallest witness) of a report, the witness as the search prints it."""
    rec = report.to_record()
    return rec["n"], tuple(rec["witnesses"][0])


def _ledger(which, params):
    """(n, witness) of the ledger's entry for one search."""
    m = LEDGER[which, params]
    return m.n, m.witness


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


@pytest.mark.parametrize("fn, args, name", [
    pytest.param(search_G, (GapParams(0, 2), 5), "s", id="search_G-s0"),
    pytest.param(find_collision, (4, GapParams(-1, 2)), "s", id="find_collision-s-1"),
    pytest.param(search_G, (GapParams(2, 0), 5), "k", id="search_G-k0"),
    pytest.param(search_G_star, (GapParams(2, 0), 5), "k", id="search_G_star-k0"),
    pytest.param(search_exact_D, (GapParams(0, 3), 5), "s", id="search_exact_D-s0"),
    pytest.param(find_collision, (3, (0, 2), WILDCARD_U), "k1", id="find_collision-SU-k1_0"),
    pytest.param(search_G, (GapParams(2, 0), -3), "k", id="search_G-k0-no-lengths"),
    pytest.param(search_SU, (1, 2, 0), "k1", id="search_SU-k1_1-no-lengths"),
])
def test_search_rejects_bad_params_before_the_guard(fn, args, name):
    # params are checked before the length and the overflow guard, and
    # also when the scan covers no length
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        fn(*args)


def test_find_collision_overflow_guard():
    # 2^400 lanes are refused up front, before 2^380 ranges are listed
    with pytest.raises(MemoryError, match=r"^n=400 needs 8 \* 2\^400 bytes of hash lanes"):
        find_collision(400, GapParams(2, 24), FULL_B)


def test_search_G_small_values():
    r = search_G(GapParams(2, 2), 8)
    assert _found(r) == _ledger("G", (2, 2))
    assert r.scanned_lengths == (3, 4, 5, 6)
    x, y = r.witnesses[0]
    assert deck_equal(x, y, GapParams(2, 2))

    r = search_G(GapParams(2, 3), 13)
    assert _found(r) == _ledger("G", (2, 3))
    assert deck_equal(*r.witnesses[0], GapParams(2, 3))


def test_search_G_classical_gap():
    for k in (2, 3, 4):
        assert search_G(GapParams(1, k), 12).n == LEDGER["G", (1, k)].n


def test_search_G_open_report():
    r = search_G(GapParams(2, 2), 5)
    assert r.n is None
    assert r.witnesses == ()
    assert any("n_max" in note for note in r.notes)


def test_search_exact_D_minima():
    for s, k, n_max in ((2, 2, 6), (2, 3, 8), (2, 4, 10), (3, 2, 8)):
        assert search_exact_D(GapParams(s, k), n_max).n == LEDGER["exactD", (s, k)].n
    # gap 3: the depth-2 slice first exists at length 4, where two strings
    # agreeing at positions 0 and 3 already collide
    assert search_exact_D(GapParams(3, 2), 8).scanned_lengths == (4,)


def test_search_G_star_values():
    r = search_G_star(GapParams(2, 1), 6)
    assert _found(r) == _ledger("Gstar", (2, 1))
    # the depth-1 slice of a length-1 string is not empty: the puncture excludes it
    assert r.notes == ("length 1 excluded: the both-sides puncture needs n >= 2",)
    r2 = search_G_star(GapParams(2, 2), 10)
    assert _found(r2) == _ledger("Gstar", (2, 2))
    assert r2.notes == ("lengths 1..2 excluded: depth-2 slice is empty there (every pair "
                        "vacuously equal), first meaningful length is 3",)
    # the starred relation refines full-deck equality
    assert r2.n >= search_G(GapParams(2, 2), 10).n


@pytest.mark.parametrize("fn, n_max", [(search_G, 6), (search_G_star, 8), (search_exact_D, 4)],
                         ids=["G", "Gstar", "exactD"])
def test_searches_take_plain_tuple_params(fn, n_max):
    # an (s, k) tuple is normalised to GapParams once, so the report (and its
    # record's {"s", "k"} params) is the one a GapParams call gives
    report = fn((2, 2), n_max)
    assert report == fn(GapParams(2, 2), n_max)
    assert report.n is not None
    assert report.to_record()["params"] == {"s": 2, "k": 2}


def test_exact_deck_equal_takes_plain_tuple_params():
    for x, y in [((0, 0, 1, 1), (0, 1, 0, 1)), ((0, 0, 1, 1), (0, 0, 0, 1))]:
        for params in [(2, 1), (2, 2), (1, 3)]:
            assert exact_deck_equal(x, y, params) == exact_deck_equal(x, y, GapParams(*params))


_EQUAL = {
    FULL_B: deck_equal,
    EXACT_D: exact_deck_equal,
    EQ7_STAR: lambda x, y, params: verify_eq7(x, y, params).all_equal,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DECK_KINDS), st.integers(1, 3), st.integers(1, 3), st.integers(0, 5))
def test_find_collision_is_reversal_and_complement_equivariant(deck_kind, s, k, extra):
    # x ~ y iff c(x) ~ c(y) iff rev x ~ rev y, at the same length; since the
    # reported pair is the smallest at n, neither image pair is smaller
    params = GapParams(s, k)
    n = max(s * (k - 1) + 1, 2) + extra
    pair = find_collision(n, params, deck_kind)
    if pair is None:
        return
    assert _EQUAL[deck_kind](*pair, params)
    for image in (complement, reverse):
        fx, fy = map(image, pair)
        assert fx != fy and len(fx) == len(fy) == n
        assert _EQUAL[deck_kind](fx, fy, params)
        assert tuple(sorted((fx, fy))) >= pair


def test_full_deck_collision_implies_lower_depths():
    r = search_G(GapParams(2, 3), 13)
    x, y = r.witnesses[0]
    for k in (1, 2, 3):
        assert deck_equal(x, y, GapParams(2, k))


def _smallest_equal_pair_naive(n, equal):
    """The lexicographically smallest pair of distinct length-n strings that
    `equal` accepts, by trying every pair in order."""
    xs = list(itertools.product((0, 1), repeat=n))
    return next(((x, y) for i, x in enumerate(xs) for y in xs[i + 1:] if equal(x, y)), None)


def _eq7_equal_naive(x, y, params):
    """Equal naive counts of x and y, and of their L, R and LR punctures."""
    return all(oracle.signature_counts_naive(u, params) == oracle.signature_counts_naive(v, params)
               for u, v in zip((x, x[1:], x[:-1], x[1:-1]), (y, y[1:], y[:-1], y[1:-1])))


def test_bucketing_agrees_with_naive_pairwise(monkeypatch):
    # each string's naive counts are enumerated once, however many pairs it is in
    monkeypatch.setattr(oracle, "signature_counts_naive",
                        functools.cache(oracle.signature_counts_naive))
    for deck_kind in DECK_KINDS:
        for n in range(2 if deck_kind == EQ7_STAR else 1, 9):
            for s, k in ((1, 2), (2, 2), (2, 3), (3, 2)):
                params = GapParams(s, k)
                fast = find_collision(n, params, deck_kind)
                if deck_kind == FULL_B:
                    naive = oracle.find_collision_naive(n, params)
                else:
                    equal = {EXACT_D: oracle.exact_deck_equal_naive,
                             EQ7_STAR: _eq7_equal_naive}[deck_kind]
                    naive = _smallest_equal_pair_naive(n, lambda x, y: equal(x, y, params))
                assert fast == naive, (deck_kind, n, s, k)


def test_lane_only_buckets(monkeypatch):
    # all-ones multipliers put nearly every string in one group; exact
    # confirmation still picks the same smallest pair
    cases = [(n, GapParams(s, k), deck_kind)
             for deck_kind in DECK_KINDS
             for n in range(2 if deck_kind == EQ7_STAR else 1, 9)
             for s, k in ((1, 2), (2, 2), (2, 3), (3, 2))]
    cases += [(m, params, WILDCARD_U) for params, m in (((4, 3), 8), ((3, 2), 7))]
    want = [find_collision(*case, workers=1) for case in cases]
    monkeypatch.setattr(search, "_hash_lanes", lambda width: np.ones(width, dtype=np.uint64))
    # the family lanes are cached: a fresh cache, dropped at teardown, makes
    # WILDCARD_U read the patch without leaking all-ones lanes to later tests
    monkeypatch.setattr(search, "_family_lanes", functools.cache(search._family_lanes.__wrapped__))
    for k1, k2 in ((4, 3), (3, 2)):  # all-ones: each count of family patterns per pattern
        assert search._family_lanes(k1, k2).max() <= len(search._family(k1, k2))
    assert [find_collision(*case, workers=1) for case in cases] == want


def test_worker_count_does_not_change_reports():
    r1 = search_G(GapParams(2, 3), 13, workers=1)
    r4 = search_G(GapParams(2, 3), 13, workers=4)
    assert json.dumps(r1.to_record(), sort_keys=True) == json.dumps(
        r4.to_record(), sort_keys=True
    )


_MULTI_RANGE = [
    (search_G, (GapParams(2, 3), 13)),  # 32 ranges of 2^8 codes at n = 13
    (search_G_star, (GapParams(2, 3), 15)),  # 128 at n = 15
    (search_SU, (4, 3, 12)),  # 16 at m = 12
]


@pytest.mark.parametrize("fn, args", _MULTI_RANGE, ids=[FULL_B, EQ7_STAR, WILDCARD_U])
def test_parallel_ranges_give_the_one_process_search(monkeypatch, tmp_path, caplog, fn, args):
    # ranges of 2^8 codes, so threads hash many at once at the last lengths:
    # the same code-order lanes, witness and record bytes from 1, 2 and 3
    # workers, and the sidecars hold those lanes
    monkeypatch.setattr(search, "_RANGE_BITS", 8)
    lanes = {}
    real = search._lane_hashes

    def spy(n, a, b, deck_kind, lo, hi, out=None):
        h = real(n, a, b, deck_kind, lo, hi, out)
        lanes[n, lo, hi] = h.tobytes()  # before the search sorts it
        return h

    monkeypatch.setattr(search, "_lane_hashes", spy)
    runs = {}
    for workers in (1, 2, 3):
        lanes.clear()
        rec = fn(*args, workers=workers).to_record()
        runs[workers] = json.dumps(rec, sort_keys=True), rec["witnesses"], dict(lanes)
    last = max(runs[1][2])[0]
    assert sum(n == last for n, *_ in runs[1][2]) >= 16
    for workers in (2, 3):
        assert runs[workers] == runs[1]
    # a checkpoint written by 3 workers holds those lanes, and resumes with
    # every range loaded
    ckpt = str(tmp_path)
    assert json.dumps(fn(*args, workers=3, checkpoint=ckpt).to_record(), sort_keys=True) == runs[1][0]
    sidecars = {p.name: _split_sidecar(p)[2] for p in tmp_path.glob("*.lanes")}
    assert len(sidecars) == len(runs[1][2])
    for (n, lo, hi), lane in runs[1][2].items():
        (name,) = (name for name in sidecars if name.endswith(f"_n{n}_{lo}_{hi}.lanes"))
        assert sidecars[name] == lane
    caplog.set_level("INFO", logger="gapdeck.search")
    lanes.clear()
    assert json.dumps(fn(*args, workers=3, checkpoint=ckpt).to_record(), sort_keys=True) == runs[1][0]
    assert lanes == {}  # ranges re-read for positions come from their sidecars too
    lengths = sorted({n for n, *_ in runs[1][2]})
    want = [(0, sum(n == m for n, *_ in runs[1][2])) for m in lengths]
    assert _loaded_and_computed(caplog) == want


def test_eta_paces_hashing_alone(monkeypatch, tmp_path, caplog):
    # 14 of 16 ranges load, slowly; the ETA after the first of the two left
    # is one range's hashing time, while "elapsed" still counts the loading
    monkeypatch.setattr(search, "_RANGE_BITS", 8)
    ckpt = str(tmp_path)
    want = find_collision(12, GapParams(2, 3), checkpoint=ckpt)
    sidecars = sorted(tmp_path.glob("*.lanes"))
    assert len(sidecars) == 16
    for sidecar in sidecars[:2]:
        sidecar.unlink()
    real = search._load_sidecar

    def slow(*args):
        time.sleep(0.025)
        return real(*args)

    monkeypatch.setattr(search, "_load_sidecar", slow)
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(12, GapParams(2, 3), checkpoint=ckpt) == want
    progress = [re.search(r"(\d+)/16 ranges done, ([\d.]+) s elapsed, ETA ([\d.]+) s",
                          r.getMessage()) for r in caplog.records]
    progress = [(int(m[1]), float(m[2]), float(m[3])) for m in progress if m]
    assert [done for done, *_ in progress] == [15, 16]
    _, elapsed, eta = progress[0]
    assert elapsed >= 0.3  # 16 loads of 25 ms
    assert eta <= 0.1


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


def test_checkpoint_resumes_from_sidecars_alone(tmp_path, caplog):
    # search.log is a progress record: without it every range still loads
    fresh = search_G(GapParams(2, 3), 13).to_record()
    ckpt = str(tmp_path)
    assert search_G(GapParams(2, 3), 13, checkpoint=ckpt).to_record() == fresh
    (tmp_path / "search.log").unlink()
    caplog.set_level("INFO", logger="gapdeck.search")
    assert search_G(GapParams(2, 3), 13, checkpoint=ckpt).to_record() == fresh
    assert _loaded_and_computed(caplog) == [(0, 1)] * len(fresh["scanned_lengths"])
    assert "unusable" not in caplog.text
    assert not (tmp_path / "search.log").exists()  # loaded ranges are not logged again


def _write_sidecar(path, key, lane: bytes):
    """A sidecar written by hand: the key and the lane's CRC-32, then the lane."""
    path.write_bytes(f"{key} {zlib.crc32(lane):08x}\n".encode() + lane)


def _split_sidecar(path):
    """(key, crc, lane bytes) of a sidecar."""
    line, lane = path.read_bytes().split(b"\n", 1)
    key, crc = line.decode().rsplit(" ", 1)
    return key, crc, lane


@pytest.mark.parametrize("damage", ["short lanes", "trailing bytes", "cut file", "flipped byte",
                                    "flipped crc digit", "big-endian lanes"])
def test_checkpoint_rejects_damaged_sidecar(tmp_path, caplog, damage):
    ckpt = str(tmp_path)
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    (sidecar,) = tmp_path.glob("*.lanes")
    data = sidecar.read_bytes()
    key, crc, lane = _split_sidecar(sidecar)
    assert len(lane) == 8 * 256
    if damage == "short lanes":  # a whole header, its CRC-32 right for the lanes it holds
        _write_sidecar(sidecar, key, lane[:-8])
    elif damage == "trailing bytes":  # the lane intact, its CRC-32 right, then more
        sidecar.write_bytes(data + bytes(8))
    elif damage == "cut file":
        sidecar.write_bytes(data[:100])
    elif damage == "flipped byte":  # one byte in the middle of the lane: only the CRC-32 sees it
        mid = len(data) - len(lane) // 2
        sidecar.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :])
    elif damage == "flipped crc digit":  # one bit of the fourth hex digit
        sidecar.write_bytes(f"{key} {int(crc, 16) ^ 0x1000:08x}\n".encode() + lane)
    else:  # the same lanes stored big-endian, under a key and CRC-32 of their own
        assert " <u8 " in key
        swapped = np.frombuffer(lane, dtype="<u8").astype(">u8").tobytes()
        _write_sidecar(sidecar, key.replace(" <u8 ", " >u8 "), swapped)
    assert sidecar.read_bytes() != data
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog) == [(1, 0)]
    # the range was recomputed and its sidecar rewritten whole, with no temp file left
    assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar.name, "search.log"]
    assert sidecar.read_bytes() == data
    # and the rewritten sidecar loads cleanly on the next resume
    caplog.clear()
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    assert "unusable" not in caplog.text
    assert _loaded_and_computed(caplog) == [(0, 1)]


def test_sidecar_failing_after_a_partial_read_is_recomputed_in_place(tmp_path, caplog,
                                                                     monkeypatch):
    # a resume reads each lane straight into the search's lane array; a
    # flipped byte is written there before the CRC-32, checked once the whole
    # lane is in place, rejects the sidecar, so the range must be recomputed
    # over it or the witness's lane stays wrong; the position pass then reads
    # the rewritten sidecar back
    ckpt = str(tmp_path)
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    (sidecar,) = tmp_path.glob("*.lanes")
    data = sidecar.read_bytes()
    lane = _split_sidecar(sidecar)[2]
    at = len(data) - len(lane) + 8 * 0b00001101  # a byte of the first witness's lane
    damaged = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]
    sidecar.write_bytes(damaged)
    loaded = []
    load = search._load_sidecar

    def recorded(path, key, out):
        ok = load(path, key, out)
        loaded.append((ok, out.tobytes()))
        return ok

    monkeypatch.setattr(search, "_load_sidecar", recorded)
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    # the whole damaged lane was read into place, then the rewritten one
    assert loaded == [(False, damaged[-len(lane) :]), (True, lane)]
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog) == [(1, 0)]
    assert sidecar.read_bytes() == data


def test_checkpoint_rejects_foreign_sidecar(tmp_path, caplog):
    # a sidecar of another search, copied over this range's, must be
    # recomputed, not trusted: its lanes would hide the collision
    a, b = tmp_path / "a", tmp_path / "b"
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    find_collision(8, GapParams(2, 3), FULL_B, checkpoint=str(b))
    (mine,), (foreign,) = a.glob("*.lanes"), b.glob("*.lanes")
    mine.write_bytes(foreign.read_bytes())
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert "unusable" in caplog.text
    # the rewritten sidecar is this range's again, so the next resume loads it
    caplog.clear()
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert caplog.text == ""


def test_checkpoint_recomputes_an_old_format_sidecar(tmp_path, caplog, monkeypatch):
    # a sidecar whose key names format 3 is recomputed once and rewritten in
    # the current format; a format-3 .npz left beside it is never opened. The
    # range holds the witness, so each search opens its sidecar twice: to
    # load it, and to read its positions back
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    (sidecar,) = tmp_path.glob("*.lanes")
    data = sidecar.read_bytes()
    key, _, lane = _split_sidecar(sidecar)
    assert key == "gapdeck-lanes/4 <u8 FULL_B s=2 k=2 n=8 0:256"
    _write_sidecar(sidecar, "gapdeck-lanes/3 FULL_B s=2 k=2 n=8 0:256", lane)
    npz = sidecar.with_suffix(".npz")
    npz.write_bytes(b"PK\x03\x04 a format-3 sidecar")
    opened = []
    load = search._load_sidecar
    monkeypatch.setattr(search, "_load_sidecar",
                        lambda path, *args: opened.append(path) or load(path, *args))
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog) == [(1, 0)]
    assert sidecar.read_bytes() == data
    caplog.clear()
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    assert _loaded_and_computed(caplog) == [(0, 1)]
    assert "unusable" not in caplog.text
    assert opened == [str(sidecar)] * 4
    assert npz.read_bytes() == b"PK\x03\x04 a format-3 sidecar"


def _grouped(h, size):
    """_tied_groups of h cut into ranges of `size` lanes, each sorted in place
    as the search leaves it, and restored from h: (groups as lists, ranges
    re-read, the ranges restored)."""
    ranges = [(lo, min(lo + size, len(h))) for lo in range(0, len(h), size)] or [(0, 0)]
    runs = h.copy()
    for lo, hi in ranges:
        runs[lo:hi].sort()
    restored = []

    def restore(lo, hi):
        restored.append((lo, hi))
        runs[lo:hi] = h[lo:hi]

    groups, reread = _tied_groups(runs, ranges, restore)
    return [g.tolist() for g in groups], reread, restored


def test_tied_groups_are_runs_of_equal_lanes():
    h = np.array([7, 3, 7, 5, 3, 7, 9, 3], dtype=np.uint64)
    # the 7s and the 3s are three-way groups, each sorted and ordered by its
    # first position; 5 and 9 stay alone, in one range or across several
    for size in (8, 4, 2, 1):
        assert _grouped(h, size)[:2] == ([[0, 2, 5], [1, 4, 7]], min(8 // size, 6))
    assert _grouped(np.arange(5, dtype=np.uint64), 2) == ([], 0, [])
    top = 2**64 - 1
    for lanes in ([], [9], [9, 8], [9, 9], [4] * 7, [top, 0, top, 1, 0, top], [0, top]):
        h = np.array(lanes, dtype=np.uint64)
        for size in (1, 2, 4, 8):
            assert _grouped(h, size)[0] == _dict_groups(h), (lanes, size)
    # hundreds of tied values, the extremes among them, over 1 to 64 ranges:
    # only the ranges whose run holds a tied value are restored, each once
    rng = np.random.default_rng(2024)
    pool = np.concatenate([np.array([0, top], dtype=np.uint64),
                           rng.integers(1, top, size=20000, dtype=np.uint64)])
    h = rng.choice(pool, size=4096)
    assert h.dtype == np.uint64
    h[[5, 50, 500]], h[[6, 60]] = 0, top
    expected = _dict_groups(h)
    assert len(expected) > 300
    for size in (4096, 512, 64):
        groups, reread, restored = _grouped(h, size)
        assert groups == expected
        holding = sorted({(p - p % size, p - p % size + size) for g in expected for p in g})
        assert restored == holding and reread == len(holding)
    # few ties: only their ranges are read again
    h = rng.integers(0, top, size=4096, dtype=np.uint64)
    h[3000] = h[100]
    assert _grouped(h, 256) == ([[100, 3000]], 2, [(0, 256), (2816, 3072)])


def test_tied_lanes_split_buckets_at_the_top_bits():
    # four ranges, four buckets split at multiples of 2^62: the values at
    # each edge and one below it, the extremes, and a value tied in three
    # ranges, each once for every code after the first that shares it
    e1, e2, e3 = edges = [j << 62 for j in range(1, 4)]
    top = 2**64 - 1
    h = np.array([e1, 0, top, 7, e2 - 1, e3,
                  0, e1 - 1, e2, 8, top, e3 - 1,
                  e2 - 1, e1, 0, 9, e1 - 1, e3,
                  e3 - 1, top, e2, 0, 10, 11], dtype=np.uint64)
    ranges = [(lo, lo + 6) for lo in range(0, 24, 6)]
    runs = h.copy()
    for lo, hi in ranges:
        runs[lo:hi].sort()
    repeats = _tied_lanes(runs, ranges).tolist()
    want = sorted(v for v, c in collections.Counter(h.tolist()).items() for _ in range(c - 1))
    assert repeats == want
    assert want == sorted([0, 0, 0, top, top] + [v for e in edges for v in (e - 1, e)])
    # a bucket sees the same ties from one thread or two
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        assert _tied_lanes(runs, ranges, pool.map).tolist() == repeats


def test_tied_groups_raise_when_a_lane_changes_between_the_reads():
    # a restored range that holds fewer (or more) codes of a tied value than
    # its sorted run did must raise, never drop a group
    h = np.array([5, 1, 9, 5, 2, 9, 3, 4], dtype=np.uint64)
    for change in ({1: 9}, {0: 6}, {4: 5}):
        runs = np.sort(h.reshape(2, 4), axis=1).reshape(-1)

        def restore(lo, hi, change=change):
            runs[lo:hi] = h[lo:hi]
            for at, lane in change.items():
                if lo <= at < hi:
                    runs[at] = lane

        with pytest.raises(RuntimeError, match="changed between the two reads"):
            _tied_groups(runs, [(0, 4), (4, 8)], restore)


def _dict_groups(h):
    """The positions of each lane shared by two or more, ordered by first position."""
    buckets = {}
    for i, lane in enumerate(h.tolist()):
        buckets.setdefault(lane, []).append(i)
    return sorted((g for g in buckets.values() if len(g) >= 2), key=lambda g: g[0])


_N8 = (8, GapParams(2, 2), FULL_B)
_N8_WITNESS = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))


def _designed_lanes(monkeypatch):
    """Make find_collision(*_N8) hash 4 ranges of 64 codes to designed lanes;
    return (lanes, the codes of the hash false positive).

    Equal decks keep equal lanes, so the real witness stands. Six real groups
    take the lanes 0, 2^64 - 1, the bucket edges 2^62 and 2^63 and one below
    each; three codes with distinct decks, one in each of ranges 0, 1 and 2,
    share the edge 3 * 2^62, a hash false positive tied in three ranges."""
    real = _lane_hashes(8, 2, 2, FULL_B, 0, 256)
    _, cls = np.unique(real, return_inverse=True)
    sizes = np.bincount(cls)
    lane = np.random.default_rng(8).integers(1, 2**64 - 1, size=len(sizes), dtype=np.uint64)
    tied = np.flatnonzero(sizes >= 2)
    lane[tied[:6]] = [0, 2**64 - 1, 1 << 62, (1 << 62) - 1, 1 << 63, (1 << 63) - 1]
    alone = [next(c for c in range(lo, lo + 64) if sizes[cls[c]] == 1) for lo in (0, 64, 128)]
    lane[cls[alone]] = 3 << 62
    lanes = lane[cls]
    assert _dict_groups(lanes) == sorted(_dict_groups(real) + [alone], key=lambda g: g[0])
    assert alone[0] < 0b00001101  # the false positive is confirmed before the witness's group

    def designed(n, a, b, deck_kind, lo, hi, out=None):
        assert (n, a, b, deck_kind) == (8, 2, 2, FULL_B)
        out[:] = lanes[lo:hi]
        return out

    monkeypatch.setattr(search, "_RANGE_BITS", 6)
    monkeypatch.setattr(search, "_lane_hashes", designed)
    return lanes, alone


def _spy_groups(monkeypatch):
    """Record every _tied_groups result of the searches that follow, as lists."""
    seen = []
    real = search._tied_groups

    def spy(*args):
        groups, reread = real(*args)
        seen.append(([g.tolist() for g in groups], reread))
        return groups, reread

    monkeypatch.setattr(search, "_tied_groups", spy)
    return seen


def test_designed_lanes_group_across_ranges_as_in_one_range(monkeypatch, caplog):
    # ties across ranges, lanes at a bucket edge and one below it, a value
    # tied in three ranges and a hash false positive: the groups are the
    # dictionary's, and the witness is the one-range search's
    lanes, alone = _designed_lanes(monkeypatch)
    assert any(len({p >> 6 for p in g}) >= 2 for g in _dict_groups(lanes) if g != alone)
    seen = _spy_groups(monkeypatch)
    caplog.set_level("INFO", logger="gapdeck.search")
    for workers in (1, 2, 3):
        assert find_collision(*_N8, workers=workers) == _N8_WITNESS
    monkeypatch.setattr(search, "_RANGE_BITS", 20)  # one range: ties are adjacent in its run
    assert find_collision(*_N8) == _N8_WITNESS
    assert seen == [(_dict_groups(lanes), 4)] * 3 + [(_dict_groups(lanes), 1)]
    summary = [r.getMessage() for r in caplog.records if "hash false positives" in r.getMessage()]
    assert len(summary) == 4
    assert all("1 hash false positives" in line for line in summary)
    assert [line.rsplit("; ", 1)[1] for line in summary] == (
        ["4 ranges re-read for positions"] * 3 + ["1 ranges re-read for positions"])


def test_sidecars_hold_the_code_order_lane(monkeypatch, tmp_path):
    # each range's sidecar is written before the range is sorted in place
    lanes, _ = _designed_lanes(monkeypatch)
    assert find_collision(*_N8, workers=2, checkpoint=str(tmp_path)) == _N8_WITNESS
    for lo in range(0, 256, 64):
        (sidecar,) = tmp_path.glob(f"FULL_B_s2_k2_n8_{lo}_{lo + 64}.lanes")
        lane = np.frombuffer(_split_sidecar(sidecar)[2], dtype="<u8")
        assert lane.tolist() == lanes[lo : lo + 64].tolist()
        assert lane.tolist() != sorted(lane.tolist())


def test_sidecar_failing_on_its_second_read_is_hashed_again(monkeypatch, tmp_path, caplog):
    # a sidecar that loads for the sorted run but fails when its positions are
    # read back leaves garbage in its slice; the range is hashed again over it
    lanes, _ = _designed_lanes(monkeypatch)
    ckpt = str(tmp_path)
    assert find_collision(*_N8, checkpoint=ckpt) == _N8_WITNESS
    reads = collections.Counter()
    load = search._load_sidecar

    def flaky(path, key, out):
        reads[path] += 1
        if reads[path] == 2 and path.endswith("_64_128.lanes"):
            out[:] = 12345
            return False
        return load(path, key, out)

    monkeypatch.setattr(search, "_load_sidecar", flaky)
    hashed = []
    designed = search._lane_hashes
    monkeypatch.setattr(search, "_lane_hashes", lambda *args: hashed.append(args[4:6])
                        or designed(*args))
    seen = _spy_groups(monkeypatch)
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(*_N8, workers=2, checkpoint=ckpt) == _N8_WITNESS
    assert seen == [(_dict_groups(lanes), 4)]
    assert hashed == [(64, 128)]
    assert sorted(reads.values()) == [2] * 4
    assert "_64_128.lanes is unusable; recomputing 64:128" in caplog.text
    assert _loaded_and_computed(caplog) == [(0, 4)]


def _reference_lanes(code, n, s, k, deck_kind):
    """The hash lane of one string from its deck signatures, in Python ints."""
    x = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
    params = GapParams(s, k)
    if deck_kind == EQ7_STAR:
        counts = [
            c
            for y in (x, x[1:], x[:-1], x[1:-1])  # plain, L, R, LR
            for c in signature(y, params).counts
        ]
    elif deck_kind == EXACT_D:
        counts = signature(x, params).length_slice(k)
    else:
        counts = signature(x, params).counts
    return sum(int(a) * c for a, c in zip(_hash_lanes(len(counts)), counts)) % 2**64


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
    h = _lane_hashes(n, s, k, deck_kind, lo, hi)
    assert h.tolist() == [_reference_lanes(c, n, s, k, deck_kind) for c in range(lo, hi)]


@pytest.mark.parametrize("deck_kind", DECK_KINDS)
def test_lane_hashes_across_leaf_chunks(deck_kind):
    # all 2^18 codes are four chunks, whose last s levels are lane steps; the
    # block with its top bit fixed is two chunks, each grown along that bit:
    # the shape of every range the searches hash at n >= 21. At s = 1 the
    # matmul sits at level n-1 and the one lane step is the leaf lanes' alone
    n, k = 18, 3
    for lo, hi in ((0, 1 << n), (1 << (n - 1), 1 << n)):
        for s in (1, 2, 3, 4):
            h = _lane_hashes(n, s, k, deck_kind, lo, hi)
            for code in random.Random(18 + s).sample(range(lo, hi), 200):
                assert int(h[code - lo]) == _reference_lanes(code, n, s, k, deck_kind)


@pytest.mark.parametrize("deck_kind", DECK_KINDS)
def test_lane_hashes_when_every_level_is_a_lane_step(deck_kind):
    # n <= s: the counts stop at the root, and every step reads it as gap-ready
    for s in (2, 3, 4):
        for n in range(2 if deck_kind == EQ7_STAR else 1, s + 1):
            h = _lane_hashes(n, s, 1, deck_kind, 0, 1 << n)
            assert h.tolist() == [_reference_lanes(c, n, s, 1, deck_kind) for c in range(1 << n)]


@pytest.mark.parametrize("n, a, b, deck_kind, digest", [
    pytest.param(16, 2, 4, FULL_B,
                 "4c9994d7aa0f231d7898183e60f3bd3238c186950d9101ed606c269e95d2772a",
                 id="16-2-4-FULL_B"),
    pytest.param(15, 2, 3, EQ7_STAR,
                 "6fd68e4659fc63f654a94fef127f1cbb271ba88e7de6fa008c228e6b22372463",
                 id="15-2-3-EQ7_STAR"),
    pytest.param(12, 2, 4, EXACT_D,
                 "7ebcb113dd18335c190e96c2fc800d298a4181341b6a986cb504317ad6ce61ae",
                 id="12-2-4-EXACT_D"),
    pytest.param(14, 4, 3, WILDCARD_U,
                 "de135162370442f667aa8df3da2f4feaa892500b6be5b39e53ed805bf8c05b0a",
                 id="14-4-3-WILDCARD_U"),
])
def test_lane_hashes_keep_their_digests(n, a, b, deck_kind, digest):
    # checkpoint sidecars hold these lanes under an unchanged format version:
    # a kernel change that moves any of them must bump _SIDECAR_FORMAT
    h = _lane_hashes(n, a, b, deck_kind, 0, 1 << n)
    assert hashlib.sha256(h.astype("<u8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("deck_kind, params", [
    *((kind, [(s, 3) for s in range(1, 5)]) for kind in DECK_KINDS),
    (WILDCARD_U, [(2, None), (3, 2), (4, 3), (5, 4)]),  # its tree runs at gap 1
], ids=DECK_KINDS + (WILDCARD_U,))
def test_every_aligned_block_slices_the_full_lanes(deck_kind, params):
    # a chunk fixes at most max(n-s, 0) top bits: a block smaller than 2^s
    # is hashed as its enclosing chunk and sliced, and every block of every
    # size must read as its slice of the lanes of all 2^n codes
    for a, b in params:
        for n in range(2 if deck_kind == EQ7_STAR else 1, 8):
            full = _lane_hashes(n, a, b, deck_kind, 0, 1 << n).tolist()
            for size in (1 << e for e in range(n + 1)):
                for lo in range(0, 1 << n, size):
                    h = _lane_hashes(n, a, b, deck_kind, lo, lo + size)
                    assert h.tolist() == full[lo : lo + size], (a, b, n, lo, size)


def test_lane_hashes_need_an_aligned_block():
    for lo, hi in ((0, 3), (2, 6), (4, 12), (0, 32)):
        with pytest.raises(ValueError):
            _lane_hashes(4, 2, 2, FULL_B, lo, hi)


def _reference_u_lanes(code, m, family):
    """The hash lane of one Gamma string from count_wildcard, in Python ints."""
    p = "".join("XY"[(code >> (m - 1 - i)) & 1] for i in range(m))
    counts = [count_wildcard(w, p) for w in family]
    return sum(int(a) * c for a, c in zip(_hash_lanes(len(family)), counts)) % 2**64


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
    h = _lane_hashes(m, k1, k2, WILDCARD_U, lo, hi)
    family = _su_family(k1, k2)
    assert h.tolist() == [_reference_u_lanes(c, m, family) for c in range(lo, hi)]


def test_wildcard_lane_hashes_across_leaf_chunks():
    m = 18  # 2^18 rows: four leaf chunks
    h = _lane_hashes(m, 4, 3, WILDCARD_U, 0, 1 << m)
    family = _su_family(4, 3)
    for code in random.Random(18).sample(range(1 << m), 200):
        assert int(h[code]) == _reference_u_lanes(code, m, family)


def test_search_SU_values():
    for params in ((1, None), (2, None), (3, 2), (4, 3), (5, 3)):
        r = search_SU(*params)
        assert _found(r) == _ledger("SU", params)
        assert r.deck_kind == "WILDCARD_U"
    assert u_equiv(*r.witnesses[0], USetSpec.pair(5, 3))  # r: the last report, U(5,3)'s


def test_long_scan_witnesses_hold_under_the_independent_references():
    # the smallest pair of search_SU(6, 3 or 4, m_max=23), checked without the
    # search layer: equal on U(6,3) and U(6,4), and not on U(6,5) or U(7,4)
    # (tests/test_minima.py checks the G*_2(4) pair with the naive oracle)
    p, q = LEDGER["SU", (6, 3)].witness
    assert LEDGER["SU", (6, 4)].witness == (p, q)
    assert [u_equiv(p, q, USetSpec.pair(*k)) for k in ((6, 3), (6, 4), (6, 5), (7, 4))] == [
        True, True, False, False]


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
    # the prefix tree that search_SU walks, on the classical deck at gap 1:
    # hashing the one-code block p at length len(p) with a unit lane on each
    # binary pattern that a family pattern matches reads back its count
    k = max(map(len, family))
    code = int("0" + p.translate(str.maketrans("XY", "01")), 2)
    got = []
    for w in family:
        unit = np.zeros(pattern_count(k), dtype=np.uint64)
        for v in patterns_upto(k):
            if len(v) == len(w) and all(c in ("J", "XY"[b]) for c, b in zip(w, v)):
                unit[pattern_index(v)] = 1
        (count,) = _tree_hashes(len(p), 1, k, code, code + 1, unit)
        got.append(int(count))
    assert got == [count_wildcard(w, p) for w in family]


def test_wide_decks_keep_each_level_within_the_cell_budget(monkeypatch):
    # U(9, 5) hashes the classical depth-9 deck, 1023 columns wide: its
    # chunks hold fewer codes than 2^16, so no level grows past the budget
    cells, extend = [], search._extend

    def counted(prev, ready, tables):
        nxt = extend(prev, ready, tables)
        cells.append(nxt.size)
        return nxt

    monkeypatch.setattr(search, "_extend", counted)
    h = _lane_hashes(18, 9, 5, WILDCARD_U, 0, 1 << 16)
    assert cells and max(cells) <= search._LEAF_CELLS
    family = _su_family(9, 5)
    for code in random.Random(95).sample(range(1 << 16), 20):
        assert int(h[code]) == _reference_u_lanes(code, 18, family)


def test_tree_grows_only_the_prefix_columns(monkeypatch):
    # the length-k columns are never read back as a gap-ready parent, so the
    # tree grows the 2^k - 1 prefix columns (the depth-(k-1) deck) alone and
    # carries the lane down it; level m = n - s, read only by the last lane
    # step, is never grown: that step is one 2-row _extend in lane space.
    # 2^14 codes are one chunk with no top bits, so each tree over n' letters
    # grows levels 1 .. m-1 and then takes level m's step; the lanes stay
    # those of the full deck
    shapes, extend = [], search._extend

    def recorded(prev, ready, tables):
        nxt = extend(prev, ready, tables)
        shapes.append(nxt.shape)
        return nxt

    def one_chunk(n, s, narrow):
        m = n - s
        return [(narrow, 1 << e) for e in range(1, m)] + [(2, 1 << m)]

    monkeypatch.setattr(search, "_extend", recorded)
    n = 14
    for deck_kind in DECK_KINDS:
        for s in (1, 2, 3, 4):
            shapes.clear()
            h = _lane_hashes(n, s, 3, deck_kind, 0, 1 << n)
            trees = (n, n - 1) if deck_kind == EQ7_STAR else (n,)  # EQ7_STAR's L tree
            want = [shape for t in trees for shape in one_chunk(t, s, (1 << 3) - 1)]
            assert shapes == want, (deck_kind, s)
            for code in random.Random(s).sample(range(1 << n), 20):
                assert int(h[code]) == _reference_lanes(code, n, s, 3, deck_kind)
    for k1, k2 in ((4, 3), (5, None)):
        shapes.clear()
        h = _lane_hashes(n, k1, k2, WILDCARD_U, 0, 1 << n)
        assert shapes == one_chunk(n, 1, (1 << k1) - 1), (k1, k2)
        family = _su_family(k1, k2)
        for code in random.Random(k1).sample(range(1 << n), 20):
            assert int(h[code]) == _reference_u_lanes(code, n, family)


def _check_levels(outputs, n, s, k, lo, hi, lanes, per_level=None):
    """Every _extend output of the block [lo, hi), in order: each chunk's
    grown levels, then level m's lane step.

    Each chunk grows levels depth+1 .. m-1 from 2 rows up, and each holds
    deck._run_pass's narrow state over every prefix it stands for: below the
    chunk's top bits, row r of a level (its column level[:, r], as the levels
    are transposed) stands for the letters r & 1, (r >> 1) & 1, ..., the
    newest letter its most significant bit. Level m = max(n-s, 0) is never
    grown: a chunk with m > depth ends on one 2-row output, level m's lanes
    (lanes, as (2^k - 1, 2)) from level m-1 and its gap-ready ancestor, level
    m-s. per_level, if given, samples that many rows of each level. Returns
    the number of chunks that took that step."""
    m, narrow = max(n - s, 0), (1 << k) - 1
    last = lanes.reshape(narrow, 2)
    chunks, grown = [], []
    for out in outputs:
        if len(out) == 2:  # level m's lane step ends its chunk (2^k - 1 is odd)
            chunks.append((grown, out))
            grown = []
        else:
            grown.append(out)
    assert not grown, "levels grown without level m's lane step"
    rnd = random.Random(n * 100 + s * 10 + k)
    for j, (chunk, step) in enumerate(chunks):
        depth = m - 1 - len(chunk)
        span = 1 << (n - depth)
        start = lo - lo % span + j * span
        top = [(start >> (n - 1 - i)) & 1 for i in range(depth)]
        for ell, level in enumerate(chunk, 1):
            assert level.shape == (narrow, 1 << ell)
            rows = range(1 << ell)
            for r in rows if per_level is None else rnd.sample(rows, min(per_level, len(rows))):
                prefix = top + [(r >> t) & 1 for t in range(ell)]
                ring = _run_pass(prefix, s, _deck_tables(k), pattern_count(k) + 1)
                assert level[:, r].tolist() == ring[-1][0, :narrow].tolist(), (n, s, k, start, ell, r)

        def level(i):  # the chunk's level i: grown, or the state of its top bits' prefix
            if i > depth:
                return chunk[i - depth - 1]
            ring = _run_pass(top[: max(i, 0)], s, _deck_tables(k), pattern_count(k) + 1)
            return ring[-1][0, :narrow, None]

        grown_m = _extend(level(m - 1), level(m - s), _deck_tables(k - 1))
        assert step.tolist() == np.einsum("jr,jb->br", grown_m, last).tolist(), (n, s, k, start)
    return len(chunks)


@pytest.mark.parametrize("s", (1, 2, 3, 4))
def test_tree_levels_hold_the_narrow_state_of_their_prefixes(monkeypatch, s):
    # each level is letter-major and transposed: (2^k - 1 columns, rows),
    # [previous level + letter-0 update | previous level + letter-1 update]
    outputs, extend = [], search._extend

    def recorded(prev, ready, tables):
        outputs.append(extend(prev, ready, tables))
        return outputs[-1]

    monkeypatch.setattr(search, "_extend", recorded)
    for k in (1, 2, 3, 4):
        lanes = _hash_lanes(pattern_count(k))
        # all codes, a block below 3 top bits, and a block of 4 codes: its
        # chunk fixes n - s top bits, so only at s = 1 does it take level m's step
        for n, lo, hi in ((9, 0, 1 << 9), (9, 3 << 6, 4 << 6), (9, 5 << 2, 6 << 2)):
            outputs.clear()
            _tree_hashes(n, s, k, lo, hi, lanes)
            assert _check_levels(outputs, n, s, k, lo, hi, lanes) == (hi - lo > 1 << s)
    # the depth-9 deck: chunks of 2^12 codes, so two of them cover 2^13
    outputs.clear()
    lanes = _hash_lanes(pattern_count(9))
    _tree_hashes(13, s, 9, 0, 1 << 13, lanes)
    assert _check_levels(outputs, 13, s, 9, 0, 1 << 13, lanes, per_level=6) == 2


@pytest.mark.parametrize("deck_kind", DECK_KINDS)
def test_lane_hashes_where_level_m_takes_no_lane_space_step(deck_kind):
    # a chunk takes level m's step in lane space only when m = n - s lies
    # below its top bits; around that edge: blocks of 2^(s-1), 2^s and
    # 2^(s+1) codes (a chunk fixes at most m top bits, so the smaller ones
    # are sliced out of it and reach m at their top bits), s >= n (m = 0),
    # and EQ7_STAR's L tree over n - 1 letters, whose m is one less
    rnd = random.Random(7)
    for s in (1, 2, 3, 4):
        for n in range(2 if deck_kind == EQ7_STAR else 1, s + 3):
            for size in sorted({1 << max(s - 1, 0), 1 << s, 1 << (s + 1)}):
                if size > 1 << n:
                    continue
                lo = rnd.randrange(0, 1 << n, size)
                h = _lane_hashes(n, s, 3, deck_kind, lo, lo + size)
                want = [_reference_lanes(c, n, s, 3, deck_kind) for c in range(lo, lo + size)]
                assert h.tolist() == want, (s, n, lo, size)


def test_bit_reversal_index():
    # every f-bit index is a read-only strided view of one table of
    # max(f, _LEAF_BITS) bits
    for f in range(19):
        want = [int(format(c, f"0{f}b")[::-1], 2) for c in range(1 << f)]
        rev = search._bit_reversal(f)
        assert rev.tolist() == want
        assert not rev.flags.writeable
        if f <= search._LEAF_BITS:
            assert np.shares_memory(rev, search._bit_reversal(search._LEAF_BITS))


def test_sidecar_is_a_header_line_then_the_raw_lane(tmp_path):
    h = _lane_hashes(12, 2, 3, FULL_B, 0, 1 << 12)
    sidecar, key = search._sidecar(str(tmp_path), 12, GapParams(2, 3), FULL_B, 0, 1 << 12)
    assert key == "gapdeck-lanes/4 <u8 FULL_B s=2 k=3 n=12 0:4096"
    search._save_sidecar(sidecar, key, h)
    out = np.zeros_like(h)
    assert search._load_sidecar(sidecar, key, out)
    assert out.tolist() == h.tolist()
    # one line, the key and the lane's CRC-32 in 8 hex digits, then the lane
    # at a fixed offset to the end of the file
    (path,) = tmp_path.iterdir()  # no temp file left
    assert path.name == "FULL_B_s2_k3_n12_0_4096.lanes"
    lane = h.astype("<u8").tobytes()
    assert path.read_bytes() == f"{key} {zlib.crc32(lane):08x}\n".encode() + lane
    stored = np.fromfile(sidecar, dtype="<u8", offset=len(key) + 10)
    assert stored.tolist() == h.tolist()


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
    (mine,) = tmp_path.glob("WILDCARD_U_k14_k23_n7_*.lanes")
    (foreign,) = tmp_path.glob("WILDCARD_U_k13_k22_n7_*.lanes")
    mine.write_bytes(foreign.read_bytes())
    caplog.clear()
    assert search_SU(4, 3, checkpoint=ckpt).to_record() == fresh
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog)[6] == (1, 0)


def test_search_SU_builds_its_family_once(monkeypatch):
    # one wildcard family per (k1, k2), not one per length, range and confirmation
    calls = []

    def counted(spec):
        calls.append(spec)
        return enumerate_U(spec)

    monkeypatch.setattr(search, "enumerate_U", counted)
    search._family.cache_clear()
    assert search_SU(4, 3).n == 12
    assert len(calls) <= 1
    assert isinstance(search._family(4, 3), tuple)  # shared, so immutable


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
