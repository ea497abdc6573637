"""Traced runs: spans at the simulator's module boundaries, plus per-layer counters.

The tracer wraps every public function defined in each layer module, found by
walking the module, so a function added or renamed later still lands in its
layer.  Each module namespace of the package that holds a wrapped function is
patched, which catches calls between modules as well as the benchmark's own
calls; nothing in ``src/`` changes.  Methods and properties of the package's
classes are not wrapped: their time counts to the layer that called them.

A call records a span (name, start, end, parent) only when it crosses into
another layer; a call inside the same layer runs unwrapped apart from one
comparison.  A few functions carry probes that count work or time every call.
Spans stay in memory and are written out when the run ends.  A layer's self
time is the sum over its spans of the span minus its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

PACKAGE = "conformal_v2v"
LAYERS = ("scenario", "geometry", "phase", "channel", "link", "experiments", "cli")
ROOT = "bench"

# (name, unit, better) of every per-layer metric, in report order.  Input
# descriptors (vehicles and candidates per trial) should not move with a
# change to the program; their direction is nominal.
METRICS = (
    ("scenario.self_s", "s/op", "lower"),
    ("scenario.calls", "1/op", "lower"),
    ("scenario.segment_tests", "1/op", "lower"),
    ("scenario.vehicles_per_scene", "count", "higher"),
    ("scenario.dropped_placements", "1/op", "lower"),
    ("scenario.irs_candidates_per_trial", "count", "higher"),
    ("scenario.ris_candidates_per_trial", "count", "higher"),
    ("scenario.ris_truncated_trials", "1/op", "lower"),
    ("geometry.self_s", "s/op", "lower"),
    ("geometry.calls", "1/op", "lower"),
    ("geometry.elements_built", "1/op", "lower"),
    ("geometry.rebuild_ratio", "ratio", "lower"),
    ("phase.self_s", "s/op", "lower"),
    ("phase.calls", "1/op", "lower"),
    ("phase.elements_synthesized", "1/op", "lower"),
    ("phase.fixed_useful_ratio", "ratio", "higher"),
    ("channel.self_s", "s/op", "lower"),
    ("channel.calls", "1/op", "lower"),
    ("channel.cascade_s", "s/op", "lower"),
    ("channel.cascade_calls", "1/op", "lower"),
    ("channel.cascade_pairs", "1/op", "lower"),
    ("channel.cascade_temp_bytes", "B", "lower"),
    ("channel.gain_s", "s/op", "lower"),
    ("channel.gain_calls", "1/op", "lower"),
    ("channel.gain_elements", "count", "lower"),
    ("link.self_s", "s/op", "lower"),
    ("link.calls", "1/op", "lower"),
    ("link.beam_evaluations", "1/op", "lower"),
    ("experiments.self_s", "s/op", "lower"),
    ("experiments.calls", "1/op", "lower"),
    ("experiments.bootstrap_s", "s/op", "lower"),
    ("experiments.csv_s", "s/op", "lower"),
    ("experiments.csv_bytes", "B/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.calls", "1/op", "lower"),
    ("bench.self_s", "s/op", "lower"),
    ("trace.spans", "1/op", "lower"),
    ("trace.traced_ops_per_s", "ops/s", "higher"),
    ("trace.untraced_ops_per_s", "ops/s", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Installs boundary wrappers, records spans and counters, reports metrics."""

    def __init__(self, max_candidates: int, scores_relays: bool):
        self.max_candidates = max_candidates
        self.scores_relays = scores_relays
        self.spans: list = []         # [id, parent, name, start_ns, end_ns]
        self._child_ns: list[int] = []
        self._stack: list[tuple[int, str]] = []
        self.count: Counter = Counter()
        self.ns: Counter = Counter()  # inclusive time of probed functions
        self._layouts: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._probes = {
            "scenario.count_blockers": self._on_segment_test,
            "scenario.generate_traffic": self._on_scene,
            "scenario.candidate_relays_irs": self._on_irs,
            "scenario.candidate_relays_ris": self._on_ris,
            "geometry.build_cirs_geometry": self._on_geometry,
            "phase.preconfigured_phase": self._on_fixed_profile,
            "channel.cascaded_channels": self._on_cascade,
            "channel.channel_gain_elevation": self._on_gain,
            "channel.channel_gain_azimuth": self._on_gain,
            "link.beam_power": self._on_beam,
            "experiments.bootstrap_median_ci": self._on_bootstrap,
            "experiments.write_csv": self._on_output,
            "experiments.write_sidecar": self._on_output,
        }

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    fn = _with_peak_memory(obj) if name == "cascaded_channels" else obj
                    wrappers[id(obj)] = self._wrap(fn, layer, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, qualname: str):
        stack, spans, child = self._stack, self.spans, self._child_ns
        probe = self._probes.get(qualname)
        if probe is None and layer == "phase":
            probe = self._on_profile
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_layer = stack[-1]
            boundary = parent_layer != layer
            if not boundary and probe is None:
                return fn(*args, **kwargs)
            if boundary:
                sid = len(spans)
                spans.append(None)
                child.append(0)
                stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if boundary:
                    stack.pop()
                    spans[sid] = (sid, parent, qualname, start, end)
                    child[parent] += end - start
            if probe is not None:
                probe(fn, args, kwargs, result, end - start)
            return result

        return wrapper

    # --- rounds ------------------------------------------------------------

    def begin_round(self) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        self._child_ns.append(0)
        self._stack.append((sid, ROOT))
        self._layouts = set()
        self._round_start = time.perf_counter_ns()

    def end_round(self) -> None:
        end = time.perf_counter_ns()
        sid, _ = self._stack.pop()
        self.spans[sid] = (sid, -1, f"{ROOT}.round", self._round_start, end)
        self.count["distinct_layouts"] += len(self._layouts)

    # --- probes ------------------------------------------------------------

    def _on_segment_test(self, fn, args, kwargs, result, ns):
        self.count["segment_tests"] += 1

    def _on_scene(self, fn, args, kwargs, result, ns):
        self.count["scenes"] += 1
        self.count["vehicles"] += len(result.vehicles)
        self.count["dropped"] += result.dropped

    def _on_irs(self, fn, args, kwargs, result, ns):
        self.count["irs_calls"] += 1
        self.count["irs_candidates"] += len(result)
        if self.scores_relays:
            self.count["irs_scored"] += min(len(result), self.max_candidates)

    def _on_ris(self, fn, args, kwargs, result, ns):
        self.count["ris_calls"] += 1
        self.count["ris_candidates"] += len(result)
        self.count["ris_truncated"] += len(result) > self.max_candidates

    def _on_geometry(self, fn, args, kwargs, result, ns):
        self.count["geometries"] += 1
        self.count["elements_built"] += result.m_count * result.n_count
        self._layouts.add(
            (result.m_count, result.n_count, result.radius, result.d_m, result.d_n)
        )

    def _on_profile(self, fn, args, kwargs, result, ns):
        shape = getattr(result, "shape", None)
        if isinstance(shape, tuple) and len(shape) == 2:
            self.count["phase_elements"] += shape[0] * shape[1]

    def _on_fixed_profile(self, fn, args, kwargs, result, ns):
        self.count["fixed_profiles"] += 1
        self._on_profile(fn, args, kwargs, result, ns)

    def _on_cascade(self, fn, args, kwargs, result, ns):
        a = _bind(fn, args, kwargs)
        self.count["cascade_calls"] += 1
        self.count["cascade_pairs"] += 2 * a["geometry"].element_count * a["k_antennas"]
        self.count["cascade_peak_bytes"] += fn.last_peak_bytes
        self.ns["cascade"] += ns

    def _on_gain(self, fn, args, kwargs, result, ns):
        self.count["gain_calls"] += 1
        self.count["gain_elements"] += _bind(fn, args, kwargs)["geometry"].element_count
        self.ns["gain"] += ns

    def _on_beam(self, fn, args, kwargs, result, ns):
        self.count["beam_evaluations"] += 1

    def _on_bootstrap(self, fn, args, kwargs, result, ns):
        self.ns["bootstrap"] += ns

    def _on_output(self, fn, args, kwargs, result, ns):
        self.ns["csv"] += ns
        self.count["csv_bytes"] += Path(result).stat().st_size

    # --- report --------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Self time and span count per layer."""
        self_ns, calls = Counter(), Counter()
        for sid, parent, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            self_ns[layer] += (end - start) - self._child_ns[sid]
            if parent >= 0:
                calls[layer] += 1
        return self_ns, calls

    def metrics(self, ops: int, traced_rate: float, untraced_rate: float) -> dict:
        self_ns, calls = self.layer_totals()
        c, t = self.count, self.ns

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "scenario.segment_tests": per_op(c["segment_tests"]),
            "scenario.vehicles_per_scene": ratio(c["vehicles"], c["scenes"]),
            "scenario.dropped_placements": per_op(c["dropped"]),
            "scenario.irs_candidates_per_trial": ratio(c["irs_candidates"], c["irs_calls"]),
            "scenario.ris_candidates_per_trial": ratio(c["ris_candidates"], c["ris_calls"]),
            "scenario.ris_truncated_trials": per_op(c["ris_truncated"]),
            "geometry.elements_built": per_op(c["elements_built"]),
            "geometry.rebuild_ratio": ratio(c["geometries"], c["distinct_layouts"]),
            "phase.elements_synthesized": per_op(c["phase_elements"]),
            "phase.fixed_useful_ratio": ratio(c["irs_scored"], c["fixed_profiles"]),
            "channel.cascade_s": per_op(t["cascade"] * 1e-9),
            "channel.cascade_calls": per_op(c["cascade_calls"]),
            "channel.cascade_pairs": per_op(c["cascade_pairs"]),
            "channel.cascade_temp_bytes": ratio(c["cascade_peak_bytes"], c["cascade_calls"]),
            "channel.gain_s": per_op(t["gain"] * 1e-9),
            "channel.gain_calls": per_op(c["gain_calls"]),
            "channel.gain_elements": ratio(c["gain_elements"], c["gain_calls"]),
            "link.beam_evaluations": per_op(c["beam_evaluations"]),
            "experiments.bootstrap_s": per_op(t["bootstrap"] * 1e-9),
            "experiments.csv_s": per_op(t["csv"] * 1e-9),
            "experiments.csv_bytes": per_op(c["csv_bytes"]),
            "trace.spans": per_op(len(self.spans)),
            "trace.traced_ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead_ratio": ratio(traced_rate, untraced_rate),
        }
        for layer in (*LAYERS, ROOT):
            values[f"{layer}.self_s"] = per_op(self_ns[layer] * 1e-9)
            if layer != ROOT:
                values[f"{layer}.calls"] = per_op(calls[layer])
        return {name: values[name] for name, _, _ in METRICS}

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON, gzip-compressed; times in ns from the first span."""
        t0 = min((s[3] for s in self.spans), default=0)
        payload = dict(header)
        payload["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns"]
        payload["spans"] = [[s[0], s[1], s[2], s[3] - t0, s[4] - t0] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _with_peak_memory(fn):
    """fn, recording on itself the peak bytes allocated during its last call.

    numpy reports its buffers to tracemalloc, so the peak covers the dense
    temporaries as well as the returned arrays.
    """

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            measured.last_peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    measured.last_peak_bytes = 0
    return measured
