"""Run one workload in this (fresh) process and print its result as JSON.

Set-up (imports, input generation, warm-up) is timed from the first line of
this file. Then rounds run closed-loop, one caller, each starting when the
previous one returned: a fresh pass, then resume passes. Rounds repeat
until a run has lasted about --seconds (a round at least). With --trace 1 the odd rounds are traced and the even
ones are not; the per-layer metrics are per traced round.

Run it through run.py, which adds the median set-up time of several fresh
processes. The last stdout line is one JSON object.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")


def _import_program():
    """Import gapdeck from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import gapdeck
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gapdeck from {SRC}: {exc}")
    where = os.path.realpath(gapdeck.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: gapdeck imported from {where}, not from {SRC}")


def _peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _rounds(wl, checks, seconds, tracer, name, seed):
    rounds = []
    start = time.perf_counter()
    last = 0.0
    min_rounds = 2 if tracer else 1
    # Start another round while it would end nearer to --seconds than stopping now.
    while len(rounds) < min_rounds or time.perf_counter() - start + last / 2 <= seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        run_id = f"{name}-seed{seed}-round{len(rounds)}"
        t_round = time.perf_counter()
        wl.new_round()
        with tracer.installed(run_id) if traced else nullcontext():
            gc.collect()
            with wl.observe("fresh"):
                t = time.perf_counter()
                wl.fresh(checks)
                fresh = time.perf_counter() - t
            resume = []
            for _ in range(wl.resume_passes):
                gc.collect()
                with wl.observe("resume"):
                    t = time.perf_counter()
                    wl.resume(checks)
                    resume.append(time.perf_counter() - t)
        wl.end_round()
        last = time.perf_counter() - t_round
        rounds.append({"run": run_id, "traced": traced, "fresh_s": fresh,
                       "resume_s": resume, "counters": dict(wl.counters)})
    return rounds


def _layer_metrics(tracer, rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    totals = tracer.layer_totals({r["run"] for r in traced})
    for r in traced:
        for key, value in r["counters"].items():
            totals[key] = totals.get(key, 0) + value
    values = {key: value / len(traced) for key, value in totals.items()}
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["fresh_s"] for r in traced)
        / statistics.median(r["fresh_s"] for r in plain) - 1.0)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _, _ in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)

    _import_program()
    import numpy

    from workloads import WORKLOADS, Checks

    with open(args.reference) as fh:
        ref = json.load(fh)
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(STATE, "tmp"))
    try:
        wl = WORKLOADS[args.workload](args.size, ref, args.seed, tmp)
        wl.warm_up()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checks = Checks()
        tracer = Tracer() if args.trace else None
        rounds = _rounds(wl, checks, args.seconds, tracer, args.workload, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer:
        metrics = _layer_metrics(tracer, rounds)
        os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
        tracer.dump(os.path.join(STATE, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        wall = statistics.median(r["fresh_s"] for r in rounds)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "strings_per_s": {"value": wl.strings / wall, "unit": "1/s"},
            "resume_s": {"value": statistics.median(t for r in rounds for t in r["resume_s"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "rounds": [{k: r[k] for k in ("traced", "fresh_s", "resume_s")} for r in rounds],
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
