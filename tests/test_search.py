import functools
import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdeck import oracle, search
from gapdeck.deck import (
    ExactOverflowError,
    GapParams,
    _run_pass,
    _trie_tables,
    deck_equal,
    exact_deck_equal,
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
    _hash_groups,
    _hash_lanes,
    _lane_hashes,
    _tree_hashes,
    find_collision,
    search_G,
    search_G_star,
    search_SU,
    search_exact_D,
)
from gapdeck.strings import complement, reverse
from gapdeck.wildcard import USetSpec, count_wildcard, enumerate_U, u_equiv


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
    with pytest.raises(ExactOverflowError):
        find_collision(400, GapParams(2, 24), FULL_B)


def test_search_G_small_values():
    r = search_G(GapParams(2, 2), 8)
    assert r.n == 6
    assert r.scanned_lengths == (3, 4, 5, 6)
    x, y = r.witnesses[0]
    assert deck_equal(x, y, GapParams(2, 2))

    r = search_G(GapParams(2, 3), 13)
    assert r.n == 13
    assert deck_equal(*r.witnesses[0], GapParams(2, 3))


def test_search_G_classical_gap():
    for k, expected in ((2, 4), (3, 7), (4, 12)):
        assert search_G(GapParams(1, k), 12).n == expected


def test_search_G_open_report():
    r = search_G(GapParams(2, 2), 5)
    assert r.n is None
    assert r.witnesses == ()
    assert any("n_max" in note for note in r.notes)


def test_search_exact_D_minima():
    assert search_exact_D(GapParams(2, 2), 6).n == 3
    assert search_exact_D(GapParams(2, 3), 8).n == 5
    assert search_exact_D(GapParams(2, 4), 10).n == 7
    # gap 3: the depth-2 slice first exists at length 4, where two strings
    # agreeing at positions 0 and 3 already collide
    assert search_exact_D(GapParams(3, 2), 8).n == 4


def test_search_G_star_values():
    r = search_G_star(GapParams(2, 1), 6)
    assert r.n == 4
    assert r.witnesses[0] == ((0, 0, 1, 0), (0, 1, 0, 0))
    # the depth-1 slice of a length-1 string is not empty: the puncture excludes it
    assert r.notes == ("length 1 excluded: the both-sides puncture needs n >= 2",)
    r2 = search_G_star(GapParams(2, 2), 10)
    assert r2.n == 8
    assert r2.notes == ("lengths 1..2 excluded: depth-2 slice is empty there (every pair "
                        "vacuously equal), first meaningful length is 3",)
    # the starred relation refines full-deck equality
    assert r2.n >= search_G(GapParams(2, 2), 10).n
    r33 = search_G_star(GapParams(3, 3), 19)
    assert r33.n == 19
    assert ["".join(map(str, w)) for w in r33.witnesses[0]] == [
        "0010001010010101010", "0010010000111001010"]


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
    assert [find_collision(*case, workers=1) for case in cases] == want


def test_worker_count_does_not_change_reports():
    r1 = search_G(GapParams(2, 3), 13, workers=1)
    r4 = search_G(GapParams(2, 3), 13, workers=4)
    assert json.dumps(r1.to_record(), sort_keys=True) == json.dumps(
        r4.to_record(), sort_keys=True
    )


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


@pytest.mark.parametrize("damage", ["short lanes", "cut file", "flipped byte"])
def test_checkpoint_rejects_damaged_sidecar(tmp_path, caplog, damage):
    ckpt = str(tmp_path)
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    (sidecar,) = tmp_path.glob("*.npz")
    data = sidecar.read_bytes()
    if damage == "short lanes":
        with np.load(sidecar) as arrays:
            key, h = arrays["key"], arrays["h"]
        with open(sidecar, "wb") as fh:
            np.savez(fh, key=key, h=h[:-1])
    elif damage == "cut file":
        sidecar.write_bytes(data[:100])
    else:  # one byte in the middle of the stored lane: only the zip's CRC-32 sees it
        mid = len(data) // 2
        assert data.index(b"h.npy") < mid < data.rindex(b"key.npy")
        sidecar.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :])
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    assert "unusable" in caplog.text
    assert _loaded_and_computed(caplog) == [(1, 0)]
    # the range was recomputed and its sidecar rewritten whole, with no temp file left
    assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar.name, "search.log"]
    with np.load(sidecar) as arrays:
        assert arrays["h"].shape == (256,)
    # and the rewritten sidecar loads cleanly on the next resume
    caplog.clear()
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=ckpt) == expected
    assert "unusable" not in caplog.text
    assert _loaded_and_computed(caplog) == [(0, 1)]


def test_checkpoint_rejects_foreign_sidecar(tmp_path, caplog):
    # a sidecar of another search, copied over this range's, must be
    # recomputed, not trusted: its lanes would hide the collision
    a, b = tmp_path / "a", tmp_path / "b"
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    find_collision(8, GapParams(2, 3), FULL_B, checkpoint=str(b))
    (mine,), (foreign,) = a.glob("*.npz"), b.glob("*.npz")
    mine.write_bytes(foreign.read_bytes())
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert "unusable" in caplog.text
    # the rewritten sidecar is this range's again, so the next resume loads it
    caplog.clear()
    with caplog.at_level("WARNING", logger="gapdeck.search"):
        assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(a)) == expected
    assert caplog.text == ""


def test_checkpoint_recomputes_a_format_2_sidecar(tmp_path, caplog):
    # a format-2 sidecar held two lanes, h1 and h2; its key names the old
    # format, so it is recomputed once and rewritten in the current format
    expected = ((0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    (sidecar,) = tmp_path.glob("*.npz")
    with np.load(sidecar) as data:
        h = data["h"]
    with open(sidecar, "wb") as fh:
        np.savez(fh, key=np.array("gapdeck-lanes/2 FULL_B s=2 k=2 n=8 0:256"), h1=h, h2=~h)
    caplog.set_level("INFO", logger="gapdeck.search")
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    assert "unusable" in caplog.text
    with np.load(sidecar) as data:
        assert str(data["key"]).startswith("gapdeck-lanes/3 ")
        assert sorted(data.files) == ["h", "key"]
    caplog.clear()
    assert find_collision(8, GapParams(2, 2), FULL_B, checkpoint=str(tmp_path)) == expected
    assert _loaded_and_computed(caplog) == [(0, 1)]
    assert "unusable" not in caplog.text


def test_hash_groups_are_runs_of_equal_lanes():
    h = np.array([7, 3, 7, 5, 3, 7, 9, 3], dtype=np.uint64)
    # the 7s and the 3s are three-way groups, each sorted and ordered by its
    # first position; 5 and 9 stay alone
    groups = _hash_groups(h)
    assert [g.tolist() for g in groups] == [[0, 2, 5], [1, 4, 7]]
    assert _hash_groups(np.arange(5, dtype=np.uint64)) == []
    top = 2**64 - 1
    for lanes in ([], [9], [9, 8], [9, 9], [4] * 7, [top, 0, top, 1, 0, top], [0, top]):
        h = np.array(lanes, dtype=np.uint64)
        assert [g.tolist() for g in _hash_groups(h)] == _dict_groups(h), lanes
    # hundreds of tied values, the extremes among them: np.isin takes its sort
    # method (the inputs above take its table and per-value methods)
    rng = np.random.default_rng(2024)
    pool = np.concatenate([np.array([0, top], dtype=np.uint64),
                           rng.integers(1, top, size=20000, dtype=np.uint64)])
    h = rng.choice(pool, size=4000)
    assert h.dtype == np.uint64
    h[[5, 50, 500]], h[[6, 60]] = 0, top
    expected = _dict_groups(h)
    assert len(expected) > 300
    assert [g.tolist() for g in _hash_groups(h)] == expected


def _dict_groups(h):
    """The positions of each lane shared by two or more, ordered by first position."""
    buckets = {}
    for i, lane in enumerate(h.tolist()):
        buckets.setdefault(lane, []).append(i)
    return sorted((g for g in buckets.values() if len(g) >= 2), key=lambda g: g[0])


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
    r = search_SU(1)
    assert (r.n, r.witnesses[0]) == (2, ("XY", "YX"))
    assert search_SU(2).n == 4
    r32 = search_SU(3, 2)
    assert r32.n == 7
    assert r32.witnesses[0] == ("XYYXXXY", "YXXXYYX")
    assert r32.deck_kind == "WILDCARD_U"
    r43 = search_SU(4, 3)
    assert (r43.n, r43.witnesses[0]) == (12, ("XYYXXXYXXYYX", "YXXXYXYYXXXY"))
    r53 = search_SU(5, 3)
    assert (r53.n, r53.witnesses[0]) == (16, ("XYYXXXXXYYYXXXXY", "YXXXXYYYXXXXXYYX"))
    assert u_equiv(*r53.witnesses[0], USetSpec.pair(5, 3))


def test_long_scan_witnesses_hold_under_the_independent_references():
    # the smallest pairs of search_SU(6, 3 or 4, m_max=23) and of
    # search_G_star((2, 4), 26), checked without the search layer: the pair is
    # equal on U(6,3) and U(6,4) and not on U(6,5) or U(7,4), and the G* pair
    # has equal naive decks before and after each one-bit puncture
    p, q = "XYYXXXXXXXYXYXXXXXXXYYX", "YXXXXYYXXXXXXXXXYYXXXXY"
    assert [u_equiv(p, q, USetSpec.pair(*k)) for k in ((6, 3), (6, 4), (6, 5), (7, 4))] == [
        True, True, False, False]
    x, y = (tuple(map(int, t)) for t in ("00010110011001010101100110",
                                          "00011001010101100110010110"))
    assert _eq7_equal_naive(x, y, GapParams(2, 4))


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
    # both kernels over the family's trie: one pass over p, and the prefix
    # tree that search_SU walks, hashing the one-code block p at length
    # len(p) with a unit lane per family column, which reads back its count
    tables, cols = _trie_tables(family, "XY")
    want = [count_wildcard(w, p) for w in family]
    row = _run_pass(["XY".index(c) for c in p], 1, tables, len(cols) + 1)[-1][0]
    assert [int(row[cols[w]]) for w in family] == want
    code = int("0" + p.translate(str.maketrans("XY", "01")), 2)
    got = []
    for w in family:
        unit = np.zeros(len(cols), dtype=np.uint64)
        unit[cols[w] - 1] = 1
        (count,) = _tree_hashes(len(p), 1, tables, len(cols) + 1, code, code + 1, unit)
        got.append(int(count))
    assert got == want


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
    (mine,) = tmp_path.glob("WILDCARD_U_k14_k23_n7_*.npz")
    (foreign,) = tmp_path.glob("WILDCARD_U_k13_k22_n7_*.npz")
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
