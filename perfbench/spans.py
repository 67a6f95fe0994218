"""Spans and counts at the program's layer boundaries, from outside it.

``Tracer.install`` replaces public functions in the syncon modules (and the
names other syncon modules imported them under) with wrappers that record
one span per call: name, start, end, parent span and arc id.  The closed
loops that navigation builds come back with their flow map, indicators,
jump map and projection wrapped too.  ``uninstall`` puts every original
back.  Nothing under ``src/`` is changed.

Spans are kept in flat arrays and written out with ``save``.  While they
are recorded, each span's duration, and its self time (duration minus the
time its child spans cover), is also summed per (name, parent name), which
is what ``layer_metrics`` reads.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from time import perf_counter

import numpy as np

from syncon import cli, engine, harness, numdiff

ENGINE_SPANS = ("engine.simulate", "engine.step_flow", "engine.locate",
                "engine.select_jump")
BUILDERS = ("hybrid_closed_loop", "smooth_closed_loop",
            "backstep_closed_loop", "gradient_closed_loop")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_arc = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans, innermost last: [span index, name id, child seconds].
        self._stack: list[list] = []
        # (name id, parent name id or -1) -> [calls, seconds, self seconds]
        self.agg: dict[tuple[int, int], list] = {}
        self.counts: dict[str, int] = {}
        self.arc_id = -1
        self.arc_keys: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_arc(self, key: str) -> None:
        """Spans recorded from now on belong to a new arc."""
        self.arc_id = len(self.arc_keys)
        self.arc_keys.append(key)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, after=None):
        """fn, recording a span per call; ``after(args, result)`` runs
        outside the span."""
        nid = self._id(name)
        stack = self._stack
        names, parents, arcs = self.span_name, self.span_parent, self.span_arc
        starts, ends = self.span_start, self.span_end
        agg = self.agg
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else None
            names.append(nid)
            parents.append(parent[0] if parent else -1)
            arcs.append(self.arc_id)
            ends.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                key = (nid, parent[1] if parent else -1)
                acc = agg.get(key)
                if acc is None:
                    acc = agg[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[2]
                if parent:
                    parent[2] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_spec(self, spec: engine.HybridSystemSpec,
                  layer: str) -> engine.HybridSystemSpec:
        """The spec with each callable recorded as a ``layer`` span."""
        def clamped(args, out):
            self.count(f"{layer}.project_clamps",
                       int(out is not args[0] and not np.array_equal(out, args[0])))

        project = spec.project_flow
        return dataclasses.replace(
            spec,
            flow_map=self.wrap(spec.flow_map, f"{layer}.flow"),
            jump_map=self.wrap(spec.jump_map, f"{layer}.jump_map"),
            in_flow_set=self.wrap(spec.in_flow_set, f"{layer}.indicator"),
            in_jump_set=self.wrap(spec.in_jump_set, f"{layer}.indicator"),
            project_flow=None if project is None else
            self.wrap(project, f"{layer}.project", after=clamped))

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        def arc_size(args, arc):
            self.count("engine.samples", arc.total_samples)
            self.count("engine.jumps", arc.n_jumps)

        def file_size(key):
            return lambda args, _: self.count(key, os.path.getsize(args[1]))

        def audited(args, report):
            self.count("synergy.audit_samples", report.n_states_checked)

        simulate = self.wrap(engine.simulate, "engine.simulate", after=arc_size)
        self._patch(engine, "simulate", simulate)
        self._patch(harness, "simulate", simulate)
        self._patch(engine, "step_flow",
                    self.wrap(engine.step_flow, "engine.step_flow"))
        self._patch(engine, "locate_boundary",
                    self.wrap(engine.locate_boundary, "engine.locate"))
        self._patch(engine, "_select_jump",
                    self.wrap(engine._select_jump, "engine.select_jump"))

        for attr in BUILDERS:
            build = self.wrap(getattr(harness, attr), "navigation.build")
            self._patch(harness, attr, lambda *a, _build=build, **k:
                        self.wrap_spec(_build(*a, **k), "navigation"))

        self._patch(harness, "audit_quadruple",
                    self.wrap(harness.audit_quadruple, "synergy.audit",
                              after=audited))
        self._patch(harness, "tracking_lyapunov",
                    self.wrap(harness.tracking_lyapunov, "smoothing.lyapunov"))
        self._patch(harness, "tracked_feedback",
                    self.wrap(harness.tracked_feedback, "smoothing.feedback"))
        self._patch(harness, "backstep_lyapunov",
                    self.wrap(harness.backstep_lyapunov, "backstepping.lyapunov"))

        self._patch(harness, "parse_config",
                    self.wrap(harness.parse_config, "harness.parse"))
        self._patch(cli, "load_config",
                    self.wrap(cli.load_config, "harness.load_config"))
        self._patch(cli, "run_scenario",
                    self.wrap(cli.run_scenario, "harness.run_scenario"))
        self._patch(cli, "write_csv",
                    self.wrap(cli.write_csv, "harness.csv",
                              after=file_size("harness.csv_bytes")))
        self._patch(cli, "write_svg",
                    self.wrap(cli.write_svg, "harness.svg",
                              after=file_size("harness.svg_bytes")))
        self._patch(cli, "check_scenario",
                    self.wrap(cli.check_scenario, "harness.check"))
        self._patch(cli, "main", self.wrap(cli.main, "cli.main"))

        for attr in ("central_gradient", "central_jacobian"):
            self._patch(numdiff, attr, self.wrap(getattr(numdiff, attr),
                                                 "numdiff.call"))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading the aggregates ---------------------------------------------

    def calls(self, name: str, parents=None) -> int:
        """Calls of ``name``, only those made from ``parents`` if given."""
        return int(sum(acc[0] for acc in self._select(name, parents)))

    def seconds(self, name: str, parents=None) -> float:
        return float(sum(acc[1] for acc in self._select(name, parents)))

    def self_seconds(self, name: str, parents=None) -> float:
        return float(sum(acc[2] for acc in self._select(name, parents)))

    def _select(self, name, parents) -> list:
        nid = self._ids.get(name)
        pids = None if parents is None else {self._ids.get(p, -2) for p in parents}
        return [acc for (n, p), acc in self.agg.items()
                if n == nid and (pids is None or p in pids)]

    def count_summary(self) -> dict:
        """Every call count and counter; these must repeat run to run."""
        out = dict(sorted(self.counts.items()))
        for (nid, pid), acc in sorted(self.agg.items()):
            parent = self.names[pid] if pid >= 0 else "-"
            out[f"calls:{self.names[nid]}<{parent}"] = acc[0]
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 arc_keys=np.array(self.arc_keys),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 arc=np.frombuffer(self.span_arc, dtype=np.int64),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced pass, keyed by metric name."""
    def engine_calls(kind):
        """Calls of a spec callable made by the engine, whatever built it."""
        return sum(tr.calls(f"{layer}.{kind}", ENGINE_SPANS)
                   for layer in ("navigation", "model"))

    samples = tr.counts.get("engine.samples", 0)
    simulate_s = tr.seconds("engine.simulate")
    locate_calls = tr.calls("engine.locate")
    nav_project = tr.calls("navigation.project")

    run_s = tr.seconds("harness.run_scenario")
    postprocess_s = (run_s
                     - tr.seconds("navigation.build", ["harness.run_scenario"])
                     - tr.seconds("engine.simulate", ["harness.run_scenario"]))

    def us_per_call(name):
        return 1e6 * _ratio(tr.seconds(name), tr.calls(name))

    return {
        "engine.simulate_s": simulate_s,
        "engine.self_s": sum(tr.self_seconds(name) for name in ENGINE_SPANS),
        "engine.samples": samples,
        "engine.us_per_sample": 1e6 * _ratio(simulate_s, samples),
        "engine.flow_calls_per_sample": _ratio(engine_calls("flow"), samples),
        "engine.indicator_calls_per_sample":
            _ratio(engine_calls("indicator"), samples),
        "engine.step_flow_calls": tr.calls("engine.step_flow"),
        "engine.locate_calls": locate_calls,
        "engine.locate_s": tr.seconds("engine.locate"),
        "engine.probes_per_event":
            _ratio(tr.calls("engine.step_flow", ["engine.locate"]), locate_calls),
        "engine.jumps": tr.counts.get("engine.jumps", 0),
        "engine.jump_select_s": tr.seconds("engine.select_jump"),
        "navigation.build_s": tr.seconds("navigation.build"),
        "navigation.flow_calls": tr.calls("navigation.flow"),
        "navigation.flow_us": us_per_call("navigation.flow"),
        "navigation.indicator_calls": tr.calls("navigation.indicator"),
        "navigation.indicator_us": us_per_call("navigation.indicator"),
        "navigation.jump_map_us": us_per_call("navigation.jump_map"),
        "navigation.project_calls": nav_project,
        "navigation.project_us": us_per_call("navigation.project"),
        "navigation.clamp_ratio":
            _ratio(tr.counts.get("navigation.project_clamps", 0), nav_project),
        "synergy.audit_s": tr.seconds("synergy.audit"),
        "synergy.audit_samples": tr.counts.get("synergy.audit_samples", 0),
        "smoothing.lyapunov_us": us_per_call("smoothing.lyapunov"),
        "smoothing.feedback_us": us_per_call("smoothing.feedback"),
        "backstepping.lyapunov_us": us_per_call("backstepping.lyapunov"),
        "harness.parse_s": tr.seconds("harness.parse"),
        "harness.postprocess_s": postprocess_s,
        "harness.postprocess_us_per_sample":
            1e6 * _ratio(postprocess_s, samples) if run_s else 0.0,
        "harness.csv_s": tr.seconds("harness.csv"),
        "harness.csv_bytes": tr.counts.get("harness.csv_bytes", 0),
        "harness.svg_s": tr.seconds("harness.svg"),
        "harness.svg_bytes": tr.counts.get("harness.svg_bytes", 0),
        "harness.check_s": tr.seconds("harness.check"),
        "cli.overhead_s": tr.self_seconds("cli.main"),
        "numdiff.calls": tr.calls("numdiff.call"),
        "trace.spans": len(tr.span_start),
    }
