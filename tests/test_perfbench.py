import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_sites_resolve_to_callables():
    # `perfbench/run.py --trace 1` wraps each site by name: a renamed or
    # removed function would otherwise break only traced runs
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [(mod, attr) for mod, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
