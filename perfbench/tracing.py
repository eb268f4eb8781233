"""Span tracing from outside the package: wrap the layers' public functions.

`Tracer.install` replaces each traced public function of the seven layer
modules with a wrapper that records one span per call (name id, parent span,
start and end in nanoseconds).  Names one module imports from another
(`witness.locate`, `grid.evaluate`, `grid.add_two`, ...) are patched too, so
calls made inside the package land in the trace with the right parent.
Private helpers are not wrapped: their time counts in the traced caller.

Spans are kept in flat arrays in memory and only summarised and written
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("radix", "greedy", "grid", "fractal", "witness", "verify", "cli")

# Leaf helpers called millions of times per verify run (string tests, digit
# folds, one-step coordinate maps).  Each call costs about as much as the
# wrapper would, so wrapping them would mostly measure the tracer; their time
# stays in the traced caller's self time.  row_values_by_length is the
# recursion behind row_values_below, whose self time should include it.
UNTRACED = frozenset({
    "radix.canonicalize", "radix.is_canonical", "radix.scaled_value",
    "grid.binary_string", "grid.main_suffix",
    "fractal.descend", "fractal.zoom_coord", "fractal.row_values_by_length",
    "verify.resolve_caps",
})

SUITES = ("radix", "greedy", "grid", "fractal", "witness", "refdata", "theorem1", "theorem2")

PER_LAYER_UNITS = {
    **{f"radix.{f}.{k}": u for f in ("represent", "add_two", "evaluate")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "greedy.build_partition.calls": "count",
    "greedy.build_partition.self_s": "s",
    "greedy.values_sieved": "count",
    "greedy.rows_opened": "count",
    "greedy.probes_per_value": "count/value",
    "greedy.forbidden_bytes_computed": "bytes",
    "greedy.peak_alloc_mib": "MiB",
    "grid.row_of.calls": "count",
    "grid.row_of.self_s": "s",
    "grid.row_of.columns_per_call": "count/call",
    "grid.cell.calls": "count",
    "grid.cell.self_s": "s",
    "grid.window.self_s": "s",
    "fractal.locate.calls": "count",
    "fractal.locate.self_s": "s",
    "fractal.halfz_of.self_s": "s",
    "fractal.traversal.self_s": "s",
    "fractal.row_values_below.self_s": "s",
    "witness.witness.calls": "count",
    "witness.witness.self_s": "s",
    "witness.steps_per_call": "count/call",
    "witness.locate_per_call": "count/call",
    "witness.witness_oracle.self_s": "s",
    **{f"verify.suite_{s}.s": "s" for s in SUITES},
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
}


class Tracer:
    """In-memory span recorder; `install` patches the layer modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # computed counters, taken from returned results
        self.sieves: list[tuple[int, int, int]] = []   # (limit, rows, sum of row_index + 1)
        self.witness_steps = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        """Return a wrapper of fn that records a span called `name` per call."""
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced public function of the layer modules, wherever it is bound."""
        modules = [getattr(package, m) for m in LAYERS]
        layer_names = {m.__name__ for m in modules}
        hooks = {"greedy.build_partition": self._on_partition, "witness.witness": self._on_witness}
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ not in layer_names:
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in UNTRACED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, name, hooks.get(name))
                setattr(mod, attr, wrappers[obj])

    def _on_partition(self, part) -> None:
        probes = sum((i + 1) * len(r) for i, r in enumerate(part.rows))
        self.sieves.append((part.bound, part.num_rows, probes))

    def _on_witness(self, result) -> None:
        self.witness_steps += len(result[1])

    # -- summary ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self, probe) -> dict:
        """Per-name calls, inclusive and self seconds, plus the ratios the metrics need.

        Times are read on the probe's reference clock (see speed.py).
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = probe.reference(a["end_ns"] / 1e9) - probe.reference(a["start_ns"] / 1e9)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        by_name = {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

        def under(child_name: str, parent_name: str) -> int:
            if child_name not in self._ids or parent_name not in self._ids:
                return 0
            mask = (name == self._ids[child_name]) & has_parent
            return int(np.count_nonzero(name[parent[mask]] == self._ids[parent_name]))

        return {
            "by_name": by_name,
            "evaluate_under_row_of": under("radix.evaluate", "grid.row_of"),
            "locate_under_witness": under("fractal.locate", "witness.witness"),
            "witness_steps": self.witness_steps,
            "sieves": self.sieves,
            "spans": int(len(name)),
        }

    def write(self, out_dir: Path, stem: str, summary: dict, probe) -> None:
        """Write the raw spans and speed samples (npz), and the name table with the summary (json)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savez(out_dir / f"{stem}-spans.npz", **self.arrays(),
                 probe_end_s_speed=np.array(sorted(probe.samples)))
        doc = {"names": self.names, "summary": summary}
        (out_dir / f"{stem}-trace.json").write_text(json.dumps(doc, indent=1) + "\n")


def per_layer_metrics(summary: dict, traced_wall: float, untraced_wall: float,
                      peak_alloc_mib: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass's summary."""
    by = summary["by_name"]

    def calls(n):
        return by.get(n, {}).get("calls", 0)

    def self_s(n):
        return by.get(n, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for f in ("radix.represent", "radix.add_two", "radix.evaluate", "greedy.build_partition",
              "grid.row_of", "grid.cell", "fractal.locate", "witness.witness"):
        m[f"{f}.calls"] = calls(f)
        m[f"{f}.self_s"] = self_s(f)
    sieves = summary["sieves"]
    values = sum(lim for lim, _, _ in sieves)
    m["greedy.values_sieved"] = values
    m["greedy.rows_opened"] = sum(rows for _, rows, _ in sieves)
    m["greedy.probes_per_value"] = ratio(sum(p for _, _, p in sieves), values)
    m["greedy.forbidden_bytes_computed"] = sum(lim * rows for lim, rows, _ in sieves)
    m["greedy.peak_alloc_mib"] = peak_alloc_mib
    m["grid.row_of.columns_per_call"] = ratio(summary["evaluate_under_row_of"], calls("grid.row_of"))
    m["grid.window.self_s"] = self_s("grid.window")
    for f in ("halfz_of", "traversal", "row_values_below"):
        m[f"fractal.{f}.self_s"] = self_s(f"fractal.{f}")
    m["witness.steps_per_call"] = ratio(summary["witness_steps"], calls("witness.witness"))
    m["witness.locate_per_call"] = ratio(summary["locate_under_witness"], calls("witness.witness"))
    m["witness.witness_oracle.self_s"] = self_s("witness.witness_oracle")
    for s in SUITES:
        m[f"verify.suite_{s}.s"] = by.get(f"verify.suite_{s}", {}).get("total_s", 0.0)
    m["cli.self_s"] = sum(v["self_s"] for n, v in by.items() if n.startswith("cli."))
    m["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    return m
