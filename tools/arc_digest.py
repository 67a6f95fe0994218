"""Print one SHA-256 per shipped config and one for the benchmark's ring grid.

    python3 tools/arc_digest.py

Run from anywhere inside a syncon checkout; it takes no options and imports
the checkout's own ``src/``.  A change that claims to leave the numerics
alone should print the same lines before and after.

Each config line covers, for one file in ``configs/``: the arc (every
segment's j, times and states, every jump, the termination, ``arc.stats``
and the notes), the CSV and SVG bytes that ``syncon run --csv --svg``
writes, the run summary with its wall time zeroed, and the ``syncon check``
report.  The ``ring_grid`` line covers the arcs and stats of all
``RING_GRID`` starts of perfbench's ring_sweep through both of its loops, at
the workload's horizons.  The ``thermostat`` line covers the arcs and stats
of event_storm's thermostat, at the workload's step and horizon, from nine
temperatures evenly spaced over [0.5, 1.5] in either mode: the only line
whose arcs locate boundaries, with a spec that is not complementary and a
flow map that returns ndarrays.  The ``generic`` line covers the generic
layer constructions on fig5_backstep's world, gains and layers:
``assemble_closed_loop`` over ``nominal_controller``, ``smoothed_quadruple``
and ``backstepped_quadruple``, each started from that config's packed start
cut to its width and run at dt 1e-3 to t = 0.5, plus one seeded
``audit_quadruple`` report per family.  Standard library and numpy only;
the whole run takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from syncon import (  # noqa: E402
    backstepping, engine, harness, navigation, smoothing, synergy)


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


def config_digest(path: Path) -> str:
    """Digest of one config's arc, stats, exports, summary and check."""
    h = hashlib.sha256()
    cfg = harness.load_config(path)
    record = harness.run_scenario(cfg)
    _feed_arc(h, record.arc)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, svg_path = Path(tmp) / "run.csv", Path(tmp) / "run.svg"
        harness.write_csv(record, csv_path)
        harness.write_svg(record, svg_path)
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


def ring_digest() -> str:
    """Digest of every ring_sweep grid start through both ring loops."""
    workloads = _workloads()
    h = hashlib.sha256()
    for loop, cfg in workloads.ring_configs().items():
        spec = harness.build_closed_loop(cfg)
        for k in range(workloads.RING_GRID):
            h.update(f"{loop}@{k}".encode())
            _feed_arc(h, engine.simulate(spec, workloads.ring_start(cfg, k),
                                         cfg.sim))
    return h.hexdigest()


def thermostat_digest() -> str:
    """Digest of event_storm's thermostat from a fixed grid of starts."""
    workloads = _workloads()
    spec = workloads.thermostat_spec()
    cfg = engine.SimConfig(dt=workloads.THERMO_DT, t_max=workloads.THERMO_T_MAX)
    h = hashlib.sha256()
    for temp in np.linspace(0.5, 1.5, 9):
        for mode in (0.0, 1.0):
            x0 = np.array([temp, mode])
            h.update(x0.tobytes())
            _feed_arc(h, engine.simulate(spec, x0, cfg))
    return h.hexdigest()


def generic_digest() -> str:
    """Digest of fig5_backstep's layers through the generic constructions."""
    cfg = harness.load_config(ROOT / "configs" / "fig5_backstep.json")
    world, gains, sp, bp = cfg.world, cfg.gains, cfg.smoothed, cfg.backstep
    plant, q = navigation.nominal_controller(world, gains)
    d = navigation.decomposed_feedback(world, gains)
    families = {
        "nominal": (plant, q),
        "smoothed": smoothing.smoothed_quadruple(plant, q, d, sp),
        "backstepped": backstepping.backstepped_quadruple(plant, q, d, sp, bp),
    }
    start = harness.initial_packed_state(cfg)
    sim = engine.SimConfig(dt=1e-3, t_max=0.5)
    lo, hi = harness.audit_box(cfg)
    p_star = navigation.find_critical_point(world)
    h = hashlib.sha256()
    for name, (fam_plant, fam) in families.items():
        n = fam_plant.dim_x
        x0 = np.concatenate([start[:n], start[-1:]])
        h.update(name.encode())
        _feed_arc(h, engine.simulate(synergy.assemble_closed_loop(fam_plant, fam),
                                     x0, sim))
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


def main() -> int:
    for path in sorted((ROOT / "configs").glob("*.json")):
        print(f"{config_digest(path)}  {path.stem}")
    print(f"{ring_digest()}  ring_grid")
    print(f"{thermostat_digest()}  thermostat")
    print(f"{generic_digest()}  generic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
