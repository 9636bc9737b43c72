"""Benchmark records: run perfbench/run.py over alternating seeds and write
BENCH_<tag>.json for each tree measured.

    python3 tools/bench.py TAG[=TREE] [TAG=TREE ...] [--seed 1]

TREE is a checkout that holds perfbench/ and src/ (default: this one). Run
r of the RUNS (10) runs uses seed --seed + r and measures every workload that
BENCHMARK.json lists once in every tree, one fresh `perfbench/run.py
--trace 0` process each, for BENCHMARK.json's run_seconds; the order of the
trees alternates from run to run, so two trees are compared in adjacent
pairs made under the same machine conditions. Then one `--trace 1` run per
tree and workload, with seed --seed, records the layer split: BENCHMARK.json's
per-layer metrics, which tracing adds to the run's cost and so are kept apart
from the timed runs.

BENCH_<TAG>.json, written at the root of this repository, holds, per
workload and end-to-end metric, the median, quartiles and IQR over the runs
and every sample, the op counts, the machine facts that run.py prints for
the first run, and every run's load average; under per_layer, per
workload, the traced run's verdict and its per-layer metrics. The code
measured is named by the tag and the machine facts' src_sha256; run.py's
`commit` is left out, as it names whatever commit the checkout's .git points
at, not the tree's code.
With two or more trees, each tree after the first also holds a `versus`
section against the first: per metric, the ratio of the medians, the
baseline's IQR, and the pairs (same run) in which this tree is better, read
with the directions of BENCHMARK.json. The same comparison is printed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # pairs of runs per comparison: the fewest a claimed gain is judged on


def _benchmark():
    """BENCHMARK.json: its workloads, run length and metric directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _directions(benchmark):
    """metric name -> "lower" or "higher", as BENCHMARK.json declares them."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def _run(tree, workload, seed, seconds, trace=0):
    """run.py's two stdout lines: the machine line and the result line."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    machine, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return machine, result


def _per_layer(result, benchmark):
    """A --trace 1 run's verdict and BENCHMARK.json's per-layer metrics from it."""
    return {"correct": result["correct"],
            "metrics": {m["name"]: result["metrics"][m["name"]] for m in benchmark["per_layer"]}}


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "samples": values}


def _versus(mine, base, directions):
    """Per metric: ratio of medians, baseline IQR, and pairs in which `mine` is better."""
    out = {}
    for name, better in directions.items():
        a, b = base["metrics"][name]["samples"], mine["metrics"][name]["samples"]
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
        out[name] = {"ratio": statistics.median(b) / statistics.median(a),
                     "baseline_iqr": base["metrics"][name]["iqr"],
                     "median_gap": abs(statistics.median(b) - statistics.median(a)),
                     "better_pairs": wins, "pairs": len(a)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", metavar="TAG[=TREE]")
    ap.add_argument("--seed", type=int, default=1, help="run r uses seed --seed + r")
    args = ap.parse_args(argv)
    trees = [(tag, os.path.abspath(path or ROOT))
             for tag, _, path in (t.partition("=") for t in args.trees)]
    benchmark = _benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    directions = _directions(benchmark)

    runs = {tag: {w: [] for w in workloads} for tag, _ in trees}
    for r in range(RUNS):
        seed = args.seed + r
        order = trees if r % 2 == 0 else trees[::-1]
        for w in workloads:
            for tag, tree in order:
                machine, result = _run(tree, w, seed, seconds)
                runs[tag][w].append((machine, result))
                print(f"run {r + 1}/{RUNS} seed {seed} {w} {tag}: "
                      f"wall_s {result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    layers = {tag: {} for tag, _ in trees}
    for w in workloads:
        for tag, tree in trees:
            layers[tag][w] = _per_layer(_run(tree, w, args.seed, seconds, trace=1)[1], benchmark)
            print(f"traced run seed {args.seed} {w} {tag}", file=sys.stderr)

    records = {}
    for tag, _ in trees:
        machine = dict(runs[tag][workloads[0]][0][0]["machine"])
        del machine["commit"]
        record = {
            "tag": tag,
            "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
            "seeds": [args.seed + r for r in range(RUNS)],
            "trees_alternated": [t for t, _ in trees],
            "machine": machine,
            "workloads": {},
            "per_layer_command": f"perfbench/run.py --trace 1 --seconds {seconds:g} "
                                 f"--seed {args.seed}",
            "per_layer": layers[tag],
        }
        for w in workloads:
            done = runs[tag][w]
            record["workloads"][w] = {
                "correct": all(res["correct"] for _, res in done),
                "attempted": sum(res["attempted"] for _, res in done),
                "failed": sum(res["failed"] for _, res in done),
                "loadavg_at_start": [m["machine"]["loadavg_at_start"] for m, _ in done],
                "metrics": {name: {"unit": done[0][1]["metrics"][name]["unit"],
                                   **_summary([res["metrics"][name]["value"] for _, res in done])}
                            for name in directions},
            }
        records[tag] = record
    base_tag = trees[0][0]
    for tag, _ in trees[1:]:
        records[tag]["versus"] = {"baseline": base_tag, "workloads": {
            w: _versus(records[tag]["workloads"][w], records[base_tag]["workloads"][w], directions)
            for w in workloads}}
        for w, metrics in records[tag]["versus"]["workloads"].items():
            for name, v in metrics.items():
                print(f"{w:8s} {name:14s} {tag}/{base_tag} {v['ratio']:.3f}  better in "
                      f"{v['better_pairs']}/{v['pairs']} pairs  gap {v['median_gap']:.4g} vs "
                      f"baseline IQR {v['baseline_iqr']:.4g}")
    for tag, record in records.items():
        with open(os.path.join(ROOT, f"BENCH_{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
