import importlib
import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, where=PERFBENCH):
    """A perfbench (or tools) module, loaded from its path as a script beside it."""
    spec = importlib.util.spec_from_file_location(f"{where.name}_{name}", where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_sites_resolve_to_callables():
    # `perfbench/run.py --trace 1` wraps each site by name: a renamed or
    # removed function would otherwise break only traced runs
    tracing = _load("tracing")
    assert tracing.SITES
    missing = [(mod, attr) for mod, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


@pytest.mark.parametrize("name", ["scan-G", "minima", "certify"])
def test_workloads_match_their_references(name, tmp_path):
    # one fresh and one resume pass at the benchmark's own size: a wrong
    # answer, or a resume that recomputes a checkpointed range, fails here
    # instead of only in a timed run
    workloads = _load("workloads")
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    wl = workloads.WORKLOADS[name]("full", ref, 1, str(tmp_path))
    checks = workloads.Checks()
    wl.new_round()
    for phase, run in (("fresh", wl.fresh), ("resume", wl.resume)):
        with wl.observe(phase):
            run(checks)
    counters = dict(wl.counters)
    wl.end_round()
    assert checks.attempted > 0 and checks.failed == 0
    if name != "certify":
        assert counters["search.strings_hashed"] > 0
        assert counters["search.ckpt.ranges_recomputed_on_resume"] == 0


def test_bench_records_read_every_workload_and_metric():
    # tools/bench.py summarises run.py's output into BENCH_<tag>.json: its
    # workloads and metric directions are BENCHMARK.json's, run.py takes each
    # of them, a pair counts for the change only when it reads better in
    # that direction, and the layer split it records from a --trace 1 run
    # holds BENCHMARK.json's per-layer metrics, each of which the run reports
    bench = _load("bench", PERFBENCH.parent / "tools")
    run = _load("run")
    benchmark = bench._benchmark()
    assert {w["name"] for w in benchmark["workloads"]} <= set(run.WORKLOADS)
    assert list(bench._directions(benchmark)) == [name for name, _ in run.END_TO_END]
    traced = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        name: {"value": 1.0, "unit": unit} for name, unit, _, _ in _load("tracing").PER_LAYER}}
    layers = bench._per_layer(traced, benchmark)
    assert layers["correct"] is True
    assert list(layers["metrics"]) == [m["name"] for m in benchmark["per_layer"]]
    directions = {"wall_s": "lower", "strings_per_s": "higher"}
    base = {"metrics": {m: bench._summary([1.0, 2.0, 3.0, 4.0]) for m in directions}}
    mine = {"metrics": {m: bench._summary([0.5, 2.5, 1.0, 1.0]) for m in directions}}
    versus = bench._versus(mine, base, directions)
    assert versus["wall_s"] == {"ratio": 0.4, "baseline_iqr": 1.5, "median_gap": 1.5,
                                "better_pairs": 3, "pairs": 4}
    assert versus["strings_per_s"]["better_pairs"] == 1
