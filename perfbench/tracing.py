"""Per-layer tracing from outside the program.

Wrappers are installed at the names the gapdeck modules bind (for example
`gapdeck.search.signature`, which the search layer calls to confirm hash
groups, and `gapdeck.deck.signature`, which deck_equal and verify_eq7 call).
A call through a wrapper records a span (name, start, end, parent, run id).
`count_wildcard` is called about 300k times per search_SU, so its calls are
aggregated per parent span (calls, seconds) instead of one span each.
Spans stay in memory and are written out once, when the run ends.

PER_LAYER lists every per-layer metric with its unit, its direction and the
end-to-end metric (and workload) it is expected to move.
"""
from __future__ import annotations

import importlib
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

PER_LAYER = (
    # name, unit, better, end-to-end metric it should move
    ("search.find_collision.calls", "count", "lower",
     "wall_s, strings_per_s on scan-G (~all of it); ~half of wall_s on minima; nothing on certify"),
    ("search.find_collision.self_s", "s", "lower",
     "wall_s, strings_per_s on scan-G (~all of it); ~half of wall_s on minima; nothing on certify"),
    ("search.find_collision.top_n_s", "s", "lower",
     "wall_s, strings_per_s on scan-G; wall_s on minima"),
    ("search.strings_hashed", "count", "lower",
     "wall_s, strings_per_s on scan-G and minima"),
    ("search.confirm.signature_calls", "count", "lower", "resume_s on minima"),
    ("search.confirm.s", "s", "lower", "resume_s on minima"),
    ("search.confirm.yield", "pairs/call", "higher", "resume_s on minima"),
    ("search.ckpt.bytes_written", "B", "lower", "wall_s, resume_s on minima"),
    ("search.ckpt.files", "count", "lower", "wall_s, resume_s on minima"),
    ("search.ckpt.ranges_recomputed_on_resume", "count", "lower",
     "resume_s on minima and scan-G (expected 0)"),
    ("search.self_cpu_s", "s", "lower", "wall_s on scan-G"),
    ("search.child_cpu_s", "s", "lower", "wall_s on scan-G once the search runs in workers"),
    ("search.search_SU.s", "s", "lower", "wall_s on minima; nothing on scan-G"),
    ("wildcard.count_wildcard.calls", "count", "lower", "wall_s on minima; nothing on scan-G"),
    ("wildcard.count_wildcard.s", "s", "lower", "wall_s on minima; nothing on scan-G"),
    ("deck.signature.calls", "count", "lower", "wall_s on certify (~90% of it)"),
    ("deck.signature.exact.s", "s", "lower", "wall_s on certify"),
    ("deck.signature.fingerprint.s", "s", "lower", "wall_s on certify"),
    ("deck.verify_eq7.s", "s", "lower", "wall_s on certify"),
    ("deck.deck_equal.s", "s", "lower", "wall_s on certify"),
    ("deck.cell_updates", "cells-computed", "lower", "wall_s on certify"),
    ("deck.cell_updates_per_s", "1/s", "higher", "wall_s on certify"),
    ("wildcard.lemma3_check.s", "s", "lower", "wall_s on certify (small share)"),
    ("wildcard.u_equiv.s", "s", "lower", "wall_s on certify (small share)"),
    ("constructions.build.s", "s", "lower", "wall_s on certify (small share)"),
    ("cli.main.self_s", "s", "lower", "wall_s on scan-G (negligible share)"),
    ("cli.stdout_bytes", "B", "lower", "wall_s on scan-G (negligible share)"),
    ("trace.overhead_pct", "%", "lower",
     "none: traced fresh pass against the untraced one in the same run"),
)

# module, attribute, span name. A function bound under several names gets a
# wrapper at each, so a call is attributed to the layer that made it.
SITES = (
    ("gapdeck.cli", "main", "cli.main"),
    ("gapdeck.cli", "search_G", "search.scan"),
    ("gapdeck.search", "search_G", "search.scan"),
    ("gapdeck.search", "search_G_star", "search.scan"),
    ("gapdeck.search", "search_exact_D", "search.scan"),
    ("gapdeck.search", "search_SU", "search.search_SU"),
    ("gapdeck.search", "find_collision", "search.find_collision"),
    ("gapdeck.search", "signature", "search.confirm.signature"),
    ("gapdeck.search", "count_wildcard", "wildcard.count_wildcard"),
    ("gapdeck.deck", "signature", "deck.signature"),
    ("gapdeck.deck", "deck_equal", "deck.deck_equal"),
    ("gapdeck.deck", "verify_eq7", "deck.verify_eq7"),
    ("gapdeck.wildcard", "deck_equal", "deck.deck_equal"),
    ("gapdeck.wildcard", "verify_eq7", "deck.verify_eq7"),
    ("gapdeck.wildcard", "count_wildcard", "wildcard.count_wildcard"),
    ("gapdeck.wildcard", "u_equiv", "wildcard.u_equiv"),
    ("gapdeck.wildcard", "lemma3_check", "wildcard.lemma3_check"),
    ("gapdeck.constructions", "padded_mt", "constructions.build"),
    ("gapdeck.constructions", "padded_mt_trimmed", "constructions.build"),
    ("gapdeck.constructions", "s_padded_mt", "constructions.build"),
)
_AGGREGATED = {"wildcard.count_wildcard"}
_CPU = {"search.scan", "search.search_SU"}


def _cpu():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _signature_attrs(args, kwargs, result):
    from gapdeck.deck import DEFAULT_FINGERPRINT_PRIMES

    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    primes = args[3] if len(args) > 3 else kwargs.get("primes", DEFAULT_FINGERPRINT_PRIMES)
    lanes = 1 if mode == "exact" else len(primes)
    # One cell update per (position, pattern, residue lane).
    return {"mode": mode, "cells": len(args[0]) * ((1 << (args[1][1] + 1)) - 2) * lanes}


_ATTRS = {
    "deck.signature": _signature_attrs,
    "search.find_collision": lambda a, kw, r: {"n": a[0], "pair": r is not None},
}


class Tracer:
    """Records the spans of one run; installed() wraps every site in SITES."""

    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, run, attrs
        self.aggregates = defaultdict(lambda: [0, 0.0])  # (name, parent) -> calls, s
        self.run_id = None
        self._stack = []
        self._next_id = 0

    def _wrap(self, fn, name):
        attrs_of = _ATTRS.get(name)
        if name in _AGGREGATED:
            def traced(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg = self.aggregates[(name, self._stack[-1] if self._stack else None)]
                    agg[0] += 1
                    agg[1] += time.perf_counter() - t0
            return traced

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            cpu0 = _cpu() if name in _CPU else None
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else {}
                if cpu0 is not None:
                    cpu1 = _cpu()
                    attrs["cpu_self"] = cpu1[0] - cpu0[0]
                    attrs["cpu_children"] = cpu1[1] - cpu0[1]
                self.spans.append({"id": sid, "name": name, "start": t0, "end": t1,
                                   "parent": parent, "run": self.run_id, "attrs": attrs})
        return traced

    @contextmanager
    def installed(self, run_id):
        """Wrap every site for the duration of the block, then restore."""
        self.run_id = run_id
        saved = []
        try:
            for mod_name, attr, name in SITES:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self.run_id = None

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, parent), (calls, seconds) in sorted(
                self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or -1)
            ):
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "seconds": seconds}) + "\n")

    def layer_totals(self, runs):
        """Span-derived per-layer totals over the spans of the given run ids."""
        spans = [sp for sp in self.spans if sp["run"] in runs]
        ids = {sp["id"] for sp in spans}
        by_id = {sp["id"]: sp for sp in spans}
        children = defaultdict(float)
        for sp in spans:
            if sp["parent"] is not None:
                children[sp["parent"]] += sp["end"] - sp["start"]
        agg_calls = agg_s = 0.0
        for (name, parent), (calls, seconds) in self.aggregates.items():
            if parent in ids:
                children[parent] += seconds
                agg_calls += calls
                agg_s += seconds

        def dur(sp):
            return sp["end"] - sp["start"]

        def named(name):
            return [sp for sp in spans if sp["name"] == name]

        def self_s(name):
            return sum(dur(sp) - children[sp["id"]] for sp in named(name))

        def outermost(name):
            return [sp for sp in named(name)
                    if sp["parent"] is None or by_id[sp["parent"]]["name"] != name]

        top_n = 0.0
        for scan in named("search.scan"):
            calls = [sp for sp in named("search.find_collision") if sp["parent"] == scan["id"]]
            if calls:
                top_n += dur(max(calls, key=lambda sp: sp["attrs"]["n"]))
        searches = named("search.scan") + named("search.search_SU")
        confirms = named("search.confirm.signature")
        sigs = named("deck.signature")
        cells = sum(sp["attrs"]["cells"] for sp in sigs)
        sig_s = sum(dur(sp) for sp in sigs)
        pairs = sum(1 for sp in named("search.find_collision") if sp["attrs"]["pair"])
        return {
            "search.find_collision.calls": len(named("search.find_collision")),
            "search.find_collision.self_s": self_s("search.find_collision"),
            "search.find_collision.top_n_s": top_n,
            "search.confirm.signature_calls": len(confirms),
            "search.confirm.s": sum(dur(sp) for sp in confirms),
            "search.confirm.yield": pairs / len(confirms) if confirms else 0.0,
            "search.self_cpu_s": sum(sp["attrs"]["cpu_self"] for sp in searches),
            "search.child_cpu_s": sum(sp["attrs"]["cpu_children"] for sp in searches),
            "search.search_SU.s": sum(dur(sp) for sp in named("search.search_SU")),
            "wildcard.count_wildcard.calls": agg_calls,
            "wildcard.count_wildcard.s": agg_s,
            "deck.signature.calls": len(sigs),
            "deck.signature.exact.s": sum(dur(sp) for sp in sigs if sp["attrs"]["mode"] == "exact"),
            "deck.signature.fingerprint.s": sum(
                dur(sp) for sp in sigs if sp["attrs"]["mode"] == "fingerprint"),
            "deck.verify_eq7.s": sum(dur(sp) for sp in outermost("deck.verify_eq7")),
            "deck.deck_equal.s": sum(dur(sp) for sp in outermost("deck.deck_equal")),
            "deck.cell_updates": cells,
            "deck.cell_updates_per_s": cells / sig_s if sig_s > 0 else 0.0,
            "wildcard.lemma3_check.s": sum(dur(sp) for sp in named("wildcard.lemma3_check")),
            "wildcard.u_equiv.s": sum(dur(sp) for sp in named("wildcard.u_equiv")),
            "constructions.build.s": sum(dur(sp) for sp in outermost("constructions.build")),
            "cli.main.self_s": self_s("cli.main"),
        }
