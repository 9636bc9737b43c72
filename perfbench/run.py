"""gapdeck benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload {scan-G,minima,certify} \
        --seed N --seconds T --trace {0,1}

Workloads (closed loop, one caller; see workloads.py):
  scan-G   `gapdeck search G --s 2 --k 4 --n-max 19 --workers 2 --json`
           through cli.main, with --checkpoint so that it can be resumed.
           No collision exists through 19: the time goes to the search's
           batched DP and hashing. Ranges are 2^20 codes and the worker pool
           only starts at n >= 21, so --workers 2 spawns no worker here.
  minima   the exact minima users quote: G(3,3)=17, G*(2,3)=15,
           exact-D(2,4)=7 and SU(4,3)=12, then a resume of the three deck
           scans from their checkpoints. Collisions exist, so confirmation,
           the 4-pass EQ7_STAR path and count_wildcard all run.
  certify  padded_mt(1..10) through verify_eq7 (exact to k=6, fingerprint
           above), s_padded_mt for s=3,4 and k<=5, the trimmed pairs, seeded
           random strings checked by the slice-sum identity, and lemma3_check
           on two fixed instances. It never calls the search layer.

Seed policy: certify draws its random strings' bits from --seed (their
lengths and parameters are fixed, so cost does not depend on the seed);
scan-G and minima are exhaustive and ignore it.

Not measured: gapdeck.bounds (both tables take ~0.2 ms, nothing to optimise)
and gapdeck.oracle (the deliberately slow independent reference).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
tracing.PER_LAYER for which end-to-end metric each should move). Every
answer is checked against reference.json; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, preceded by one line of
machine facts and per-round times. The exit code is 0 only if a result was
printed.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scan-G", "minima", "certify")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("strings_per_s", "1/s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROCESSES = 7  # setup_s is the median over this many fresh processes
DEADLINE_S = 170  # the whole call must end within 180 s


def _worker(args, extra, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest():
    """sha256 over src/gapdeck/*.py: identifies the code when no git commit is known."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "gapdeck")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def _machine(loadavg):
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        if f"SC_{key}" in os.sysconf_names:
            caches[key.lower()] = os.sysconf(f"SC_{key}")
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cache_bytes": caches,
        "loadavg_at_start": loadavg,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="gapdeck benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long self-test size with its own references")
    args = ap.parse_args(argv)

    start = time.monotonic()
    loadavg = os.getloadavg()
    result = _worker(args, [], DEADLINE_S)
    setups = [result["setup_s"]]
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            left = DEADLINE_S - (time.monotonic() - start)
            setups.append(_worker(args, ["--setup-only"], left)["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    machine = _machine(loadavg)
    machine["numpy"] = result["numpy"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine, "setup_samples_s": setups,
                      "rounds": result["rounds"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
