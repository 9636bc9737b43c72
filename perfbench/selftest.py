"""Tiny-size self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, run.py and tracing.PER_LAYER agree on metric
names and units, that every workload prints exactly those metrics at the
tiny size with every answer correct, and that a deliberately wrong reference
answer is counted in `failed`.
"""
import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# One wrong answer per workload, each in a different kind of reference.
CORRUPTIONS = {
    "scan-G": lambda ref: ref["scan-G"]["tiny"].update(exit_code=0),
    "minima": lambda ref: ref["minima"]["tiny"]["G"].update(n=7),
    "certify": lambda ref: ref["certify"]["lemma3"]["criterion11"]["flags"].update(
        conclusion_plain=True),
}


def _last_json(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER]
    return bench


def check_tiny_runs(bench):
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = _last_json([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", workload, "--seed", "7", "--seconds", "0.1",
                              "--trace", str(trace), "--size", "tiny"])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want[trace], (workload, trace, got)
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            print(f"ok: {workload} --trace {trace}: {out['attempted']} ops correct")


def check_wrong_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for workload, corrupt in CORRUPTIONS.items():
        bad = copy.deepcopy(ref)
        corrupt(bad)
        path = os.path.join(ROOT, ".perfbench", f"wrong-reference-{workload}.json")
        with open(path, "w") as fh:
            json.dump(bad, fh)
        out = _last_json([sys.executable, os.path.join(HERE, "worker.py"),
                          "--workload", workload, "--seed", "7", "--seconds", "0",
                          "--size", "tiny", "--reference", path])
        os.remove(path)
        assert out["failed"] >= 1 and not out["correct"], (workload, out)
        print(f"ok: {workload} with a wrong reference: failed={out['failed']}")


def main():
    bench = check_names()
    print("ok: metric names and units agree")
    check_tiny_runs(bench)
    check_wrong_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
