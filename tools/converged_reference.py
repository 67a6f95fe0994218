"""Print each method's error against a converged run, per shipped config.

    python3 tools/converged_reference.py [--t-max T] [--tolerances RTOL/ATOL,...]

Run from anywhere inside a syncon checkout; it imports the checkout's own
``src/``.  For each file in ``configs/`` it runs the config's loop from its
start three ways: RK4 at dt / 16, the converged reference, and then RK4 at
the config's own dt and dopri5 (the engine's error-controlled method,
sampled on the same dt grid).  It prints one row
per run: the largest entry of |endpoint - reference endpoint|, the largest
|jump time - reference jump time| (or the two jump counts, where they
differ), and the steps (``rk4_steps``: steps tried) and flow-map calls the
run made.  Then, for ``tools/arc_digest.py``'s 18 thermostat starts, each
method's worst switch-time error against the closed form
(``perfbench/workloads.thermostat_switch_times``).  ``--t-max`` caps every
horizon, for a short run; ``--tolerances`` repeats the dopri5 rows for each
(RTOL, ATOL) pair given, which the engine's constants otherwise set.  The
shipped configs' horizons take about ten seconds in all.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import arc_digest  # noqa: E402  (it puts the checkout's src/ on the path)
from syncon import engine, harness  # noqa: E402

# The converged reference takes steps of dt / REFINE.
REFINE = 16


def counted(spec: engine.HybridSystemSpec):
    """spec with its flow map wrapped to count its calls, and the count."""
    calls = [0]
    flow = spec.flow_map

    def wrapped(v):
        calls[0] += 1
        return flow(v)

    return dataclasses.replace(spec, flow_map=wrapped), calls


def run(spec, x0, sim):
    """(arc, flow-map calls) of one run."""
    spec, calls = counted(spec)
    return engine.simulate(spec, x0, sim), calls[0]


def errors(arc: engine.HybridArc, ref: engine.HybridArc) -> tuple[str, str]:
    """The endpoint and jump-time errors of arc against ref, as text."""
    end = float(abs(arc.final_state - ref.final_state).max())
    if arc.n_jumps != ref.n_jumps:
        jump = f"{arc.n_jumps} vs {ref.n_jumps} jumps"
    elif arc.n_jumps:
        jump = f"{max(abs(a.t - b.t) for a, b in zip(arc.jumps, ref.jumps)):.2e}"
    else:
        jump = "-"
    return f"{end:.2e}", jump


def tolerance_pairs(text: str | None) -> list[tuple[float, float]]:
    """The (RTOL, ATOL) pairs of ``text``, "r/a,r/a", or the engine's own."""
    if not text:
        return [(engine.RTOL, engine.ATOL)]
    return [tuple(float(v) for v in pair.split("/")) for pair in text.split(",")]


def with_tolerances(rtol: float, atol: float) -> None:
    """Set the engine's dopri5 tolerances; its kernels are compiled anew."""
    engine.RTOL, engine.ATOL = rtol, atol
    engine._call_kernel.cache_clear()


def config_rows(t_max: float | None, pairs) -> list[list[str]]:
    """One row per shipped config and run: config, run, endpoint error,
    jump-time error, steps, flow calls."""
    rows = []
    for path in arc_digest.config_paths():
        cfg = harness.load_config(path)
        sim = cfg.sim if t_max is None else dataclasses.replace(
            cfg.sim, t_max=min(t_max, cfg.sim.t_max))
        spec = harness.build_closed_loop(cfg)
        x0 = harness.initial_packed_state(cfg)
        ref = engine.simulate(spec, x0,
                              dataclasses.replace(sim, dt=sim.dt / REFINE))
        runs = [("rk4", sim)]
        runs += [(f"dopri5 {r:g}/{a:g}", (r, a)) for r, a in pairs]
        for name, how in runs:
            if name != "rk4":
                with_tolerances(*how)
                how = dataclasses.replace(sim, method="dopri5")
            arc, calls = run(spec, x0, how)
            rows.append([path.stem, name, *errors(arc, ref),
                         str(arc.stats["rk4_steps"]), str(calls)])
    return rows


def thermostat_rows(t_max: float | None, pairs) -> list[list[str]]:
    """One row per method: the worst switch-time error over the thermostat
    starts, the steps and the flow calls, summed over the starts."""
    workloads = arc_digest._workloads()
    methods = [("rk4", None)]
    methods += [(f"dopri5 {r:g}/{a:g}", (r, a)) for r, a in pairs]
    rows = []
    for name, tols in methods:
        if tols is not None:
            with_tolerances(*tols)
        worst, steps, calls = 0.0, 0, 0
        for x0, spec, sim in arc_digest.thermostat_runs():
            sim = dataclasses.replace(
                sim, method="rk4" if tols is None else "dopri5",
                t_max=sim.t_max if t_max is None else min(t_max, sim.t_max))
            arc, n = run(spec, x0, sim)
            closed = workloads.thermostat_switch_times(float(x0[0]), int(x0[1]),
                                                       sim.t_max)
            got = [ev.t for ev in arc.jumps]
            if len(got) != len(closed):
                raise SystemExit(f"thermostat {x0.tolist()}: {len(got)} "
                                 f"switches, closed form {len(closed)}")
            worst = max([worst] + [abs(a - b) for a, b in zip(got, closed)])
            steps += arc.stats["rk4_steps"]
            calls += n
        rows.append(["thermostat", name, "-", f"{worst:.2e}", str(steps),
                     str(calls)])
    return rows


def table(rows: list[list[str]]) -> list[str]:
    """rows under the header, as a Markdown table."""
    head = ["config", "run", "endpoint error", "jump-time error", "steps",
            "flow calls"]
    return ["| " + " | ".join(row) + " |"
            for row in [head, ["---"] * len(head), *rows]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-max", type=float, default=None,
                        help="cap every run's horizon")
    parser.add_argument("--tolerances", default=None,
                        help='dopri5 (RTOL, ATOL) pairs, "r/a,r/a"')
    args = parser.parse_args(argv)
    pairs = tolerance_pairs(args.tolerances)
    own = (engine.RTOL, engine.ATOL)
    try:
        rows = config_rows(args.t_max, pairs)
        rows += thermostat_rows(args.t_max, pairs)
    finally:
        with_tolerances(*own)
    print("\n".join(table(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
