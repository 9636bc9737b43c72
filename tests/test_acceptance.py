"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `criterion NN: PASS/FAIL` line (run with -s to see
them all). Two criteria are strict expected failures because the demanded
values are contradicted by this package's own exhaustive oracle:

* criterion 6's gap-3 clause expects minimum length 5, but complete
  enumeration finds colliding exact decks at length 4 (24 witness pairs;
  the depth-2 slice at gap 3 first exists at length s(k-1)+1 = 4, where
  strings agreeing at positions 0 and 3 already collide);
* criterion 11 expects every substitution-harness conclusion flag to be
  true, but the depth-4 decks of the substituted strings genuinely differ
  (pattern 0000: 39033 vs 39031 occurrences; 0001: 8041 vs 8042; 1000:
  7947 vs 7948 — confirmed by three independent counters).

Both are marked xfail(strict=True): the criterion is asserted exactly as
stated, the failure is expected and documented, and the suite will flag it
loudly if either ever starts passing.
"""
import itertools
import json
import math
import random
import time

import pytest

from gapdeck.cli import main as cli_main
from gapdeck.constructions import concat_swap, padded_mt, padded_mt_trimmed, s_padded_mt
from gapdeck.deck import GapParams, deck_equal, exact_deck_equal, signature, verify_eq7
from gapdeck.oracle import classical_deck_naive, signature_counts_naive
from gapdeck.search import search_G, search_SU, search_exact_D
from gapdeck.strings import parse_binary
from gapdeck.bounds import best_bound, closed_form_bound, padded_bound
from gapdeck.wildcard import Lemma3Instance, lemma3_check

PAPER_PAIRS = {
    2: ("010011", "001101"),
    3: ("1101111010111", "1110101111011"),
    4: ("110011010101001100110100", "110100110011010101001100"),
}

TABLE2 = {28: 42742211, 29: 60773950, 30: 86039831,
          31: 121319982, 32: 170424514, 33: 238563374}


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_small_table_values():
    t0 = time.time()
    ok = True
    values = {}
    for k in (2, 3):
        r = search_G(GapParams(2, k), 13)
        values[k] = r.n
        ok &= r.n == (6 if k == 2 else 13)
        ok &= deck_equal(*r.witnesses[0], GapParams(2, k))
        x, y = (parse_binary(t) for t in PAPER_PAIRS[k])
        ok &= deck_equal(x, y, GapParams(2, k))
    elapsed = time.time() - t0
    ok &= elapsed < 10
    assert report(1, ok, f"G(2)={values[2]}, G(3)={values[3]}, "
                         f"reference pairs verify, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_02_large_table_value():
    t0 = time.time()
    r = search_G(GapParams(2, 4), 24, workers=8)
    certified = r.scanned_lengths == tuple(range(7, 25))
    x, y = (parse_binary(t) for t in PAPER_PAIRS[4])
    pair_ok = deck_equal(x, y, GapParams(2, 4))
    ok = r.n == 24 and certified and pair_ok
    assert report(2, ok, f"G(4)={r.n}, lengths 7..23 certified clear, "
                         f"reference pair verifies, {time.time()-t0:.0f}s")


def test_criterion_03_ungapped_cross_check():
    t0 = time.time()
    got = {k: search_G(GapParams(1, k), 12).n for k in (2, 3, 4)}
    ok = got == {2: 4, 3: 7, 4: 12} and time.time() - t0 < 60
    assert report(3, ok, f"gap-1 minima {got[2]},{got[3]},{got[4]} "
                         f"in {time.time()-t0:.1f}s")


def test_criterion_04_padded_construction():
    ok = True
    for k in range(1, 7):
        pair = padded_mt(k)
        ok &= len(pair.x) == 4 * (2**k - 1)
        ok &= verify_eq7(pair.x, pair.y, GapParams(2, k)).all_equal
        trimmed = padded_mt_trimmed(k)
        ok &= len(trimmed.x) == 4 * (2**k - 1) - 2
        ok &= deck_equal(trimmed.x, trimmed.y, GapParams(2, k))
    for k in range(7, 11):
        pair = padded_mt(k)
        ok &= verify_eq7(pair.x, pair.y, GapParams(2, k)).all_equal
    assert report(4, ok, "four-way equality k<=10, exact (k=8..10 on two primes), "
                         "lengths 4(2^k-1) and 4(2^k-1)-2")


def test_criterion_05_s_padded_construction():
    findings = []
    for s in (3, 4):
        for k in range(1, 6):
            pair = s_padded_mt(s, k)
            if not verify_eq7(pair.x, pair.y, GapParams(s, k)).all_equal:
                findings.append(f"four-way equality fails at s={s}, k={k}")
            trimmed = s_padded_mt(s, k, trimmed=True)
            if not deck_equal(trimmed.x, trimmed.y, GapParams(s, k)):
                findings.append(f"trimmed equality fails at s={s}, k={k}")
            if len(trimmed.x) != (5 * s - 2) * 2 ** (k - 1) - 5 * s + 4:
                findings.append(f"trimmed length off at s={s}, k={k}")
    ok = not findings
    assert report(5, ok, "gap 3 and 4 pairs verify through k=5"
                  if ok else "; ".join(findings))


@pytest.mark.xfail(
    strict=True,
    reason="gap-3 clause: exhaustive enumeration finds the exact-deck minimum "
    "at length 4, not the stated 5; see the module docstring",
)
def test_criterion_06_exact_deck_minima():
    got = {k: search_exact_D(GapParams(2, k), 10).n for k in (2, 3, 4)}
    s2_ok = got == {2: 3, 3: 5, 4: 7}
    s3 = search_exact_D(GapParams(3, 2), 10).n
    ok = s2_ok and s3 == 5
    report(6, ok, f"gap-2 minima {got}, gap-3 depth-2 minimum {s3} "
                  f"(criterion expects 5; enumeration says 4)")
    assert s2_ok
    assert s3 == 5


def test_criterion_07_oracle_equivalence():
    t0 = time.time()
    ok = True
    for s in (1, 2, 3):
        params = GapParams(s, 4)
        for n in range(1, 13):
            for bits in itertools.product((0, 1), repeat=n):
                if signature(bits, params).counts != signature_counts_naive(bits, params):
                    ok = False
    elapsed = time.time() - t0
    ok &= elapsed < 300
    assert report(7, ok, f"dynamic program matches naive enumeration on all "
                         f"strings n<=12, depths<=4, gaps 1..3, {elapsed:.0f}s")


def test_criterion_08_sum_identity():
    rng = random.Random(20240817)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 200)
        s = rng.randint(1, 4)
        k = rng.randint(1, 8)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        sig = signature(x, GapParams(s, k))
        for ell in range(1, k + 1):
            top = n - (ell - 1) * (s - 1)
            expected = math.comb(top, ell) if top >= ell else 0
            if sum(sig.length_slice(ell)) != expected:
                ok = False
    assert report(8, ok, "every slice sums to C(n-(l-1)(s-1), l) on 500 random strings")


def test_criterion_09_wildcard_counting():
    from gapdeck.wildcard import count_wildcard

    ok = count_wildcard("JX", "YXYX") == 4
    rng = random.Random(907)
    for _ in range(500):
        w = "".join(rng.choice("XYJ") for _ in range(rng.randint(1, 5)))
        p = "".join(rng.choice("XY") for _ in range(rng.randint(1, 20)))
        js = [i for i, c in enumerate(w) if c == "J"]
        total = 0
        for combo in itertools.product("XY", repeat=len(js)):
            resolved = list(w)
            for i, c in zip(js, combo):
                resolved[i] = c
            total += count_wildcard("".join(resolved), p)
        if total != count_wildcard(w, p):
            ok = False
    assert report(9, ok, "worked example and 500 expansion-identity cases")


def test_criterion_10_concat_swap_property():
    rng = random.Random(1010)
    checked = 0
    ok = True
    for k in (1, 2, 3):
        pairs = []
        for n in range(2, 11):
            groups = {}
            for bits in itertools.product((0, 1), repeat=n):
                key = tuple(sorted(classical_deck_naive(bits, k).items()))
                groups.setdefault(key, []).append(bits)
            for members in groups.values():
                if len(members) >= 2:
                    pairs.extend(itertools.combinations(members, 2))
            if len(pairs) >= 2000:
                break
        for x, y in rng.sample(pairs, 67):
            cx, cy = concat_swap(x, y)
            if not exact_deck_equal(cx, cy, GapParams(1, k + 1)):
                ok = False
            checked += 1
    ok &= checked >= 200
    assert report(10, ok, f"{checked} enumeration-found deck-equal pairs lift "
                          f"to depth k+1 after concat-and-swap")


@pytest.mark.xfail(
    strict=True,
    reason="the conclusion flags are genuinely false on this instance: the "
    "substituted strings' depth-4 decks differ; see the module docstring",
)
def test_criterion_11_substitution_harness():
    pair = padded_mt(1)
    su = search_SU(3, 2)
    p, q = su.witnesses[0]
    rep = lemma3_check(Lemma3Instance(x=pair.x, y=pair.y, p=p, q=q, k=1, sigma=1))
    ok = rep.hypotheses_true and rep.distinct and rep.conclusions_true
    report(11, ok, f"hypotheses {rep.hypotheses_true}, "
                   f"plain/L/R/LR conclusions {rep.conclusion_plain}/"
                   f"{rep.conclusion_l}/{rep.conclusion_r}/{rep.conclusion_lr}")
    assert rep.hypotheses_true and rep.distinct
    assert rep.conclusions_true


def test_criterion_12_bounds():
    ok = padded_bound(4) == 58
    table = [best_bound(k).value for k in range(2, 11)]
    ok &= table == [6, 13, 24, 124, 252, 508, 1020, 2044, 4092]
    for k, value in TABLE2.items():
        got = closed_form_bound(k)
        ok &= abs(got - value) <= 2 and got == value
    assert report(12, ok, "padded bound 58, summary table k=2..10, all six "
                          "closed-form values exact under ceil rounding")


def test_criterion_13_determinism(capsys):
    outputs = []
    for workers in ("1", "8"):
        for k in ("2", "3"):
            code = cli_main(["search", "G", "--s", "2", "--k", k,
                             "--n-max", "13", "--json", "--workers", workers])
            assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    with capsys.disabled():
        assert report(13, ok, "worker counts 1 and 8 emit byte-identical reports")


def test_structured_reports_are_json_serialisable():
    r = search_G(GapParams(2, 2), 6)
    json.dumps(r.to_record())
    json.dumps(best_bound(30).to_record())
