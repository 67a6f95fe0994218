"""Print one SHA-256 per shipped config and one for the benchmark's ring grid.

    python3 tools/arc_digest.py

Run from anywhere inside a syncon checkout; it takes no options and imports
the checkout's own ``src/``.  A change that claims to leave the numerics
alone should print the same lines before and after.

Each config line covers, for one file in ``configs/``: the arc (every
segment's j, times and states, every jump, the termination, ``arc.stats``
and the notes), the CSV and SVG bytes that ``syncon run --csv --svg``
writes (the CSV streamed by ``run_scenario(cfg, csv=...)``, as run does it),
the run summary with its wall time zeroed, and the ``syncon check``
report.  The ``ring_grid`` line covers the arcs and stats of all
``RING_GRID`` starts of perfbench's ring_sweep through both of its loops, at
the workload's horizons.  The ``thermostat`` line covers the arcs and stats
of event_storm's thermostat, at the workload's step, horizon and method
(the engine's default, dopri5), from nine
temperatures evenly spaced over [0.5, 1.5] in either mode: the only line
whose arcs locate boundaries, with a spec that is not complementary and a
flow map that returns ndarrays.  The ``generic`` line covers the generic
layer constructions on fig5_backstep's world, gains and layers:
``assemble_closed_loop`` over ``nominal_controller``, ``smoothed_quadruple``
and ``backstepped_quadruple``, each started from that config's packed start
cut to its width and run at dt 1e-3 to t = 0.5, plus one seeded
``audit_quadruple`` report per family.  After these, one ``<config>:audit``
line per shipped config covers what ``syncon audit`` prints and returns on
it, by default and with ``--samples 50 --seed 7``.  The last, ``locator``
line covers every probe fraction, located state and count of
``locate_boundary`` on the unit clock (x' = 1 over one unit step, so the
state is the fraction) at 51 fixed roots of six indicator shapes: a cubic,
an exponential, a kink flat on one side, atan, a signed square root and a
step with no zero.  Unlike the thermostat's, these locations reach the
secant and midpoint probes.  The ``theta3`` line covers the arcs and stats
of the ``RING_GRID`` starts through fig5_hybrid's loop with the three
candidates ``THETA3`` = [-0.3, 0.2, 0.3], at ring_sweep's hybrid horizon:
the only line whose loop scans more than two candidates.
The ``code`` line covers the compiled code of the loops of every shipped
config, the theta3 loop and ring_sweep's two loops: for each, the flow map,
its inlined RK4 step, for a switched loop its switching kernel
``in_flow_set``, and the channel map ``navigation.loop_channels`` builds
for it, each by its bytecode, constants (nested code objects in turn),
global names and local names, but not its file name or line table.
Bytecode differs between CPython versions, so this line is only comparable
between runs on one Python version.  The ``dopri5`` line, printed last,
covers the arcs and stats of every shipped config's loop from its start,
simulated under ``dataclasses.replace(cfg.sim, method="dopri5")``; the
scenario runs themselves stay on RK4.
Standard library and numpy only; the whole run takes a few seconds.
``tools/arc_record.py`` records the config, thermostat and generic runs
from the lists here (``config_paths``, ``thermostat_runs``, ``generic_runs``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from syncon import (  # noqa: E402
    backstepping, cli, engine, harness, navigation, smoothing, synergy)


def _feed_arc(h, arc: engine.HybridArc) -> None:
    for seg in arc.segments:
        h.update(repr(seg.j).encode())
        h.update(seg.ts.tobytes())
        h.update(seg.xs.tobytes())
    for ev in arc.jumps:
        h.update(repr((ev.t, ev.j_pre, ev.n_candidates)).encode())
        h.update(ev.x_pre.tobytes())
        h.update(ev.x_post.tobytes())
    h.update(json.dumps([arc.termination, arc.stats, arc.notes],
                        sort_keys=True).encode())


def config_paths() -> list[Path]:
    """The shipped configs, in the order their lines are printed."""
    return sorted((ROOT / "configs").glob("*.json"))


def config_digest(path: Path) -> str:
    """Digest of one config's arc, stats, exports, summary and check."""
    h = hashlib.sha256()
    cfg = harness.load_config(path)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, svg_path = Path(tmp) / "run.csv", Path(tmp) / "run.svg"
        record = harness.run_scenario(cfg, csv=csv_path)
        harness.write_svg(record, svg_path)
        _feed_arc(h, record.arc)
        h.update(csv_path.read_bytes())
        h.update(svg_path.read_bytes())
    summary = dataclasses.replace(record, wall_time=0.0).summary_lines()
    h.update("\n".join(summary).encode())
    h.update("\n".join(harness.check_scenario(cfg).lines()).encode())
    return h.hexdigest()


def _workloads():
    """perfbench's workloads module, imported from this checkout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def grid_digest(cfgs: dict, ks) -> str:
    """Digest of ring_sweep's grid starts ``ks`` through the loop of each
    config in ``cfgs``, keyed by loop name."""
    workloads = _workloads()
    h = hashlib.sha256()
    for loop, cfg in cfgs.items():
        spec = harness.build_closed_loop(cfg)
        for k in ks:
            h.update(f"{loop}@{k}".encode())
            _feed_arc(h, engine.simulate(spec, workloads.ring_start(cfg, k),
                                         cfg.sim))
    return h.hexdigest()


def ring_digest() -> str:
    """Digest of every ring_sweep grid start through both ring loops."""
    workloads = _workloads()
    return grid_digest(workloads.ring_configs(), range(workloads.RING_GRID))


THETA3 = [-0.3, 0.2, 0.3]


def theta3_config():
    """fig5_hybrid with Theta = THETA3, at ring_sweep's hybrid horizon."""
    base, t_max = _workloads().RING_LOOPS["hybrid"]
    raw = json.loads((ROOT / "configs" / f"{base}.json").read_text())
    raw["name"] = "theta3"
    raw["gains"]["Theta"] = THETA3
    raw["sim"]["t_max"] = t_max
    return harness.parse_config(raw, source=raw["name"])


def theta3_digest() -> str:
    """Digest of every ring_sweep grid start through the theta3 loop."""
    workloads = _workloads()
    return grid_digest({"theta3": theta3_config()}, range(workloads.RING_GRID))


def _feed_code(h, code: types.CodeType) -> None:
    h.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _feed_code(h, const)
        else:
            h.update(repr(const).encode())
    h.update(repr((code.co_names, code.co_varnames)).encode())


def code_digest() -> str:
    """Digest of the compiled flow maps, inlined steps, switching kernels and
    channel maps of the shipped configs' loops, the theta3 loop and the ring
    loops."""
    cfgs = {path.stem: harness.load_config(path) for path in config_paths()}
    cfgs["theta3"] = theta3_config()
    cfgs.update(_workloads().ring_configs())
    h = hashlib.sha256()
    for name, cfg in cfgs.items():
        spec = harness.build_closed_loop(cfg)
        h.update(name.encode())
        funcs = [spec.flow_map, spec.flow_map.rk4_step.__func__]
        if cfg.controller != "non_hybrid":
            funcs.append(spec.in_flow_set)
        funcs.append(navigation.loop_channels(
            cfg.world, cfg.gains, harness.governing_gap(cfg), cfg.smoothed,
            cfg.backstep))
        for func in funcs:
            _feed_code(h, func.__code__)
    return h.hexdigest()


def thermostat_runs() -> list:
    """(x0, spec, sim) of event_storm's thermostat from a fixed grid of
    starts, at the workload's step and horizon."""
    workloads = _workloads()
    spec = workloads.thermostat_spec()
    cfg = engine.SimConfig(dt=workloads.THERMO_DT, t_max=workloads.THERMO_T_MAX)
    return [(np.array([temp, mode]), spec, cfg)
            for temp in np.linspace(0.5, 1.5, 9) for mode in (0.0, 1.0)]


def thermostat_digest() -> str:
    """Digest of event_storm's thermostat from a fixed grid of starts."""
    h = hashlib.sha256()
    for x0, spec, cfg in thermostat_runs():
        h.update(x0.tobytes())
        _feed_arc(h, engine.simulate(spec, x0, cfg))
    return h.hexdigest()


GENERIC_CONFIG = ROOT / "configs" / "fig5_backstep.json"
GENERIC_SIM = engine.SimConfig(dt=1e-3, t_max=0.5)


def generic_runs(cfg) -> dict:
    """name -> (plant, family, x0) of cfg's layers through the generic
    constructions, each started from cfg's packed start cut to its width."""
    world, gains, sp, bp = cfg.world, cfg.gains, cfg.smoothed, cfg.backstep
    plant, q = navigation.nominal_controller(world, gains)
    d = navigation.decomposed_feedback(world, gains)
    families = {
        "nominal": (plant, q),
        "smoothed": smoothing.smoothed_quadruple(plant, q, d, sp),
        "backstepped": backstepping.backstepped_quadruple(plant, q, d, sp, bp),
    }
    start = harness.initial_packed_state(cfg)
    return {name: (fam_plant, fam,
                   np.concatenate([start[:fam_plant.dim_x], start[-1:]]))
            for name, (fam_plant, fam) in families.items()}


def generic_digest() -> str:
    """Digest of fig5_backstep's layers through the generic constructions."""
    cfg = harness.load_config(GENERIC_CONFIG)
    lo, hi = harness.audit_box(cfg)
    p_star = navigation.find_critical_point(cfg.world)
    h = hashlib.sha256()
    for name, (fam_plant, fam, x0) in generic_runs(cfg).items():
        n = fam_plant.dim_x
        h.update(name.encode())
        _feed_arc(h, engine.simulate(synergy.assemble_closed_loop(fam_plant, fam),
                                     x0, GENERIC_SIM))
        # The box and the stuck point carry the start's tracker and
        # integrator entries, with a unit margin on each.
        tail = x0[2:n]
        box = (np.concatenate([lo[:2], tail - 1.0, lo[2:]]),
               np.concatenate([hi[:2], tail + 1.0, hi[2:]]))
        report = synergy.audit_quadruple(
            fam_plant, fam, sample_states=[(x0[:n], x0[n:])],
            critical_states=[(np.concatenate([p_star, tail]), np.zeros(1))],
            box=box, n_samples=50, seed=cfg.seed)
        h.update(json.dumps(dataclasses.asdict(report)).encode())
    return h.hexdigest()


def audit_digest(path: Path) -> str:
    """Digest of ``syncon audit`` on one config: the printed report and the
    exit status, by default and with ``--samples 50 --seed 7``."""
    h = hashlib.sha256()
    for extra in ([], ["--samples", "50", "--seed", "7"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["audit", str(path), *extra])
        h.update(f"{out.getvalue()}exit {status}\n".encode())
    return h.hexdigest()


LOCATOR_SHAPES = {
    "cubic": lambda c: lambda s: s ** 3 - c ** 3,
    "exp": lambda c: lambda s: math.exp(5.0 * s) - math.exp(5.0 * c),
    "kink": lambda c: lambda s: (math.expm1(min(700.0, 1e4 * (s - c)))
                                 if s > c else 1e-3 * (s - c)),
    "atan": lambda c: lambda s: math.atan(50.0 * (s - c)),
    "sqrt": lambda c: lambda s: math.copysign(math.sqrt(abs(s - c)), s - c),
    "step": lambda c: lambda s: -1.0 if s < c else 1.0,
}
LOCATOR_ROOTS = [*np.linspace(0.03, 0.97, 48).tolist(), 0.25, 0.5, 0.75]


def locator_digest() -> str:
    """Digest of ``locate_boundary``'s probes on the unit clock."""
    clock = engine.HybridSystemSpec(
        dim=1, flow_map=lambda v: [1.0], jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0, in_jump_set=lambda v: 1.0)
    step_flow, fractions = engine.step_flow, []

    def logged_step(spec, x, h):
        fractions.append(h)
        return step_flow(spec, x, h)

    h = hashlib.sha256()
    engine.step_flow = logged_step
    try:
        for name, shape in LOCATOR_SHAPES.items():
            for c in LOCATOR_ROOTS:
                f = shape(c)
                fractions.clear()
                stats = dict.fromkeys(engine.STAT_KEYS, 0)
                x, s = engine.locate_boundary(clock, [0.0], 1.0,
                                              lambda v: f(v[0]), stats=stats)
                h.update(f"{name}@{c!r}".encode())
                h.update(np.array([*fractions, *x, s]).tobytes())
                h.update(json.dumps(stats, sort_keys=True).encode())
    finally:
        engine.step_flow = step_flow
    return h.hexdigest()


def dopri5_digest() -> str:
    """Digest of every shipped config's loop under dopri5."""
    h = hashlib.sha256()
    for path in config_paths():
        cfg = harness.load_config(path)
        h.update(path.stem.encode())
        _feed_arc(h, engine.simulate(
            harness.build_closed_loop(cfg), harness.initial_packed_state(cfg),
            dataclasses.replace(cfg.sim, method="dopri5")))
    return h.hexdigest()


def main() -> int:
    configs = config_paths()
    for path in configs:
        print(f"{config_digest(path)}  {path.stem}")
    print(f"{ring_digest()}  ring_grid")
    print(f"{thermostat_digest()}  thermostat")
    print(f"{generic_digest()}  generic")
    for path in configs:
        print(f"{audit_digest(path)}  {path.stem}:audit")
    print(f"{locator_digest()}  locator")
    print(f"{theta3_digest()}  theta3")
    print(f"{code_digest()}  code")
    print(f"{dopri5_digest()}  dopri5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
