"""The benchmark's workloads: inputs, the operations they run and the checks.

A workload round is a fresh pass over its queries (timed as wall_s), then
resume passes over the same queries in the same process (timed as resume_s)
that start from whatever state the fresh pass saved. The searches save
checkpoints, so their resume skips the per-string DP; certify keeps no
state, so its resume pass is a second cold pass. Every operation's answer is compared with a reference
value recorded in reference.json (or, for seeded random strings, with the
slice-sum identity), and a mismatch or an exception counts as a failed op.

The program is called through module attributes (`cli.main`,
`search.search_G`, `deck.verify_eq7`, ...) so that the tracer's wrappers see
each call. Each op runs inside Checks.run as soon as it is defined, so the
closures below may use their loop variables.
"""
from __future__ import annotations

import io
import os
import random
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout

from gapdeck import cli, constructions, deck, search, wildcard
from gapdeck.deck import GapParams
from gapdeck.strings import parse_binary

SIZES = {
    "scan-G": {
        # The n=24 certification scaled down: no collision through 19, so the
        # time goes to the batched DP and hashing. Ranges are 2^20 codes and
        # the worker pool only starts at n >= 21, so no worker is spawned.
        "full": {"s": 2, "k": 4, "n_max": 19},
        "tiny": {"s": 2, "k": 3, "n_max": 12},
    },
    "minima": {
        "full": {"scans": [["G", 3, 3, 17], ["Gstar", 2, 3, 15], ["exactD", 2, 4, 10]],
                 "su": [4, 3]},
        "tiny": {"scans": [["G", 2, 2, 8], ["Gstar", 2, 2, 10], ["exactD", 2, 3, 8]],
                 "su": [3, 2]},
    },
    "certify": {
        # padded_mt: exact up to exact_k, fingerprint above. The random
        # strings have a fixed (n, s, k, mode) schedule so that a run's cost
        # does not depend on the seed; only their bits are drawn from it.
        "full": {"padded_k": 10, "exact_k": 6, "s_padded_k": 5, "s_gaps": [3, 4],
                 "random_exact": 48, "random_exact_n": [256, 384, 512, 640],
                 "random_fp": 4, "random_fp_n": 1536, "random_fp_k": 8},
        "tiny": {"padded_k": 4, "exact_k": 3, "s_padded_k": 2, "s_gaps": [3],
                 "random_exact": 3, "random_exact_n": [16, 24],
                 "random_fp": 2, "random_fp_n": 40, "random_fp_k": 4},
    },
}

_SCAN_FN = {"G": "search_G", "Gstar": "search_G_star", "exactD": "search_exact_D"}


class Checks:
    """Counts answer-checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name, op, check):
        """Run op(), count it, and count it failed unless check(answer) holds."""
        self.attempted += 1
        try:
            ok = bool(check(op()))
        except Exception:  # an op that raises is a failed op, the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"perfbench: op {name} gave a wrong answer", file=sys.stderr)


def _log_done_ranges(ckpt):
    """(lo, hi) of every finished code range in a checkpoint's range log."""
    path = os.path.join(ckpt, "search.log")
    if not os.path.exists(path):
        return []
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 2 and parts[-1] == "done" and ":" in parts[-2]:
                lo, hi = parts[-2].split(":")
                out.append((int(lo), int(hi)))
    return out


def _dir_bytes(ckpt):
    return {f: os.path.getsize(os.path.join(ckpt, f)) for f in os.listdir(ckpt)}


class _Checkpointed:
    """A workload whose searches write one checkpoint directory per round.

    A resume pass leaves a complete checkpoint as it found it, so each round
    resumes several times: a sub-second pass is otherwise too short a sample
    on a machine whose speed drifts over seconds.
    """

    resume_passes = 3

    def __init__(self, tmp):
        self.tmp = tmp
        self.ckpt = None
        self.counters = {}

    def new_round(self):
        self.ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.tmp)
        self.counters = {"search.ckpt.bytes_written": 0,
                         "search.strings_hashed": 0,
                         "search.ckpt.ranges_recomputed_on_resume": 0}

    @contextmanager
    def observe(self, phase):
        """Count checkpoint bytes, files and recomputed ranges over one pass."""
        before = _dir_bytes(self.ckpt)
        ranges_before = len(_log_done_ranges(self.ckpt))
        yield
        after = _dir_bytes(self.ckpt)
        new = _log_done_ranges(self.ckpt)[ranges_before:]
        self.counters["search.ckpt.bytes_written"] += sum(
            max(0, size - before.get(f, 0)) for f, size in after.items())
        self.counters["search.strings_hashed"] += sum(hi - lo for lo, hi in new)
        if phase == "resume":
            self.counters["search.ckpt.ranges_recomputed_on_resume"] += len(new)
        self.counters["search.ckpt.files"] = len(after)

    def end_round(self):
        shutil.rmtree(self.ckpt, ignore_errors=True)


class ScanG(_Checkpointed):
    name = "scan-G"

    def __init__(self, size, ref, seed, tmp):
        super().__init__(tmp)
        p = SIZES[self.name][size]
        self.argv = ["search", "G", "--s", str(p["s"]), "--k", str(p["k"]),
                     "--n-max", str(p["n_max"]), "--workers", "2", "--json"]
        self.ref = ref[self.name][size]
        floor = p["s"] * (p["k"] - 1) + 1
        self.strings = sum(1 << n for n in range(floor, p["n_max"] + 1))

    def _pass(self, checks, phase):
        out = io.StringIO()

        def op():
            with redirect_stdout(out):
                code = cli.main(self.argv + ["--checkpoint", self.ckpt])
            return code, out.getvalue()

        checks.run(f"{self.name}.{phase}", op,
                   lambda got: got == (self.ref["exit_code"], self.ref["stdout"]))
        self.counters["cli.stdout_bytes"] = (
            self.counters.get("cli.stdout_bytes", 0) + len(out.getvalue().encode()))

    def fresh(self, checks):
        self._pass(checks, "fresh")

    def resume(self, checks):
        self._pass(checks, "resume")

    def warm_up(self):
        with redirect_stdout(io.StringIO()):
            cli.main(["search", "G", "--s", "2", "--k", "2", "--n-max", "8", "--json"])


class Minima(_Checkpointed):
    name = "minima"

    def __init__(self, size, ref, seed, tmp):
        super().__init__(tmp)
        p = SIZES[self.name][size]
        self.scans = [(which, GapParams(s, k), n_max) for which, s, k, n_max in p["scans"]]
        self.su = tuple(p["su"])
        self.ref = ref[self.name][size]
        self.strings = sum(1 << n for rec in self.ref.values() for n in rec["scanned_lengths"])

    def _scans(self, checks, phase):
        for which, params, n_max in self.scans:
            fn = getattr(search, _SCAN_FN[which])
            checks.run(f"{self.name}.{which}.{phase}",
                       lambda: fn(params, n_max, checkpoint=self.ckpt).to_record(),
                       lambda got: got == self.ref[which])

    def fresh(self, checks):
        self._scans(checks, "fresh")
        checks.run(f"{self.name}.SU", lambda: search.search_SU(*self.su).to_record(),
                   lambda got: got == self.ref["SU"])

    def resume(self, checks):
        self._scans(checks, "resume")

    def warm_up(self):
        search.search_G(GapParams(2, 2), 6)
        search.search_SU(2, 2, m_max=4)


def _slice_sums_hold(sig, n):
    """Criterion 8: each length-l slice sums to C(n-(l-1)(s-1), l) (mod p)."""
    s, k = sig.params
    for ell in range(1, k + 1):
        want = deck.slice_bound(n, s, ell)
        got = sig.length_slice(ell)
        if sig.mode == "exact":
            if sum(got) != want:
                return False
        else:
            for j, p in enumerate(sig.primes):
                if sum(c[j] for c in got) % p != want % p:
                    return False
    return True


class Certify:
    name = "certify"
    resume_passes = 1

    def __init__(self, size, ref, seed, tmp):
        self.p = SIZES[self.name][size]
        self.ref = ref[self.name]
        rng = random.Random(seed)
        self.randoms = []
        for i in range(self.p["random_exact"]):
            n = self.p["random_exact_n"][i % len(self.p["random_exact_n"])]
            self.randoms.append((tuple(rng.getrandbits(1) for _ in range(n)),
                                 GapParams(1 + i % 4, 4 + i % 3), "exact"))
        for i in range(self.p["random_fp"]):
            n = self.p["random_fp_n"]
            self.randoms.append((tuple(rng.getrandbits(1) for _ in range(n)),
                                 GapParams(1 + i % 3, self.p["random_fp_k"]), "fingerprint"))
        self.lemma3 = [
            (key, wildcard.Lemma3Instance(
                x=parse_binary(inst["x"]), y=parse_binary(inst["y"]), p=inst["p"], q=inst["q"],
                k=inst["k"], sigma=inst["sigma"]))
            for key, inst in sorted(self.ref["lemma3"].items())
        ]
        pairs = self.p["padded_k"] + self.p["exact_k"] + 2 * len(self.p["s_gaps"]) * self.p["s_padded_k"]
        self.strings = 2 * (pairs + len(self.lemma3)) + len(self.randoms)
        self.counters = {}

    def new_round(self):
        pass

    def observe(self, phase):
        return nullcontext()

    def end_round(self):
        pass

    def _verdict(self, checks, name, op):
        checks.run(f"{self.name}.{name}", op,
                   lambda got: got == self.ref["verdicts"][name])

    def fresh(self, checks):
        p = self.p
        for k in range(1, p["padded_k"] + 1):
            mode = "exact" if k <= p["exact_k"] else "fingerprint"

            def eq7():
                pair = constructions.padded_mt(k)
                return (len(pair.x) == 4 * (2**k - 1)
                        and deck.verify_eq7(pair.x, pair.y, GapParams(2, k), mode).all_equal)
            self._verdict(checks, f"padded_mt({k}).eq7.{mode}", eq7)
            if k <= p["exact_k"]:
                def trimmed():
                    pair = constructions.padded_mt_trimmed(k)
                    return (len(pair.x) == 4 * (2**k - 1) - 2
                            and deck.deck_equal(pair.x, pair.y, GapParams(2, k)))
                self._verdict(checks, f"padded_mt_trimmed({k}).deck_equal", trimmed)
        for s in p["s_gaps"]:
            for k in range(1, p["s_padded_k"] + 1):
                def s_eq7():
                    pair = constructions.s_padded_mt(s, k)
                    return deck.verify_eq7(pair.x, pair.y, GapParams(s, k)).all_equal

                def s_trimmed():
                    pair = constructions.s_padded_mt(s, k, trimmed=True)
                    return (len(pair.x) == (5 * s - 2) * 2 ** (k - 1) - 5 * s + 4
                            and deck.deck_equal(pair.x, pair.y, GapParams(s, k)))
                self._verdict(checks, f"s_padded_mt({s},{k}).eq7", s_eq7)
                self._verdict(checks, f"s_padded_mt({s},{k},trimmed).deck_equal", s_trimmed)
        for i, (x, params, mode) in enumerate(self.randoms):
            checks.run(f"{self.name}.random[{i}].slice_sums",
                       lambda: deck.signature(x, params, mode),
                       lambda sig: _slice_sums_hold(sig, len(x)))
        for key, inst in self.lemma3:
            checks.run(f"{self.name}.lemma3.{key}",
                       lambda: wildcard.lemma3_check(inst).to_record(),
                       lambda got: got == self.ref["lemma3"][key]["flags"])

    resume = fresh

    def warm_up(self):
        pair = constructions.padded_mt(3)
        deck.verify_eq7(pair.x, pair.y, GapParams(2, 3))
        deck.verify_eq7(pair.x, pair.y, GapParams(2, 3), "fingerprint")
        wildcard.u_equiv("XYYX", "YXXY", wildcard.USetSpec.single(1, 2))


WORKLOADS = {w.name: w for w in (ScanG, Minima, Certify)}

