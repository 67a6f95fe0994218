"""Write the committed regression record of the digest's runs.

    python3 tools/arc_record.py

Run from anywhere inside a syncon checkout; it takes no options, imports the
checkout's own ``src/`` and rewrites ``tests/arc_record.json``, which
``tests/test_acceptance.py`` compares with a fresh run: counts exactly,
floats within a relative 1e-12, so a change to the step, the locator or a
kernel fails tier-1 while a different libm does not.  Rewrite the record
only with a change that moves the numerics on purpose, and state in
CHANGES.md which fields moved, by how much and why.

The runs are ``tools/arc_digest.py``'s: each shipped config through
``run_scenario`` at its own horizon, the thermostat grid, and fig5_backstep's
three layers through the generic constructions (without their audits).  Each
entry holds the termination, the sample and jump counts, every ``arc.stats``
count, each jump's time and ``j_pre``, the final state, and, for the
navigation runs, the final V and the minimum obstacle clearance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import arc_digest  # noqa: E402  (it puts the checkout's src/ on the path)
from syncon import engine, harness, navigation, synergy  # noqa: E402

ROOT = arc_digest.ROOT
RECORD = ROOT / "tests" / "arc_record.json"


def arc_entry(arc: engine.HybridArc, V: float | None = None,
              clearance: float | None = None) -> dict:
    """The recorded fields of one arc."""
    return {"termination": arc.termination, "samples": arc.total_samples,
            "jumps": arc.n_jumps, "stats": arc.stats,
            "jump_t": [ev.t for ev in arc.jumps],
            "jump_j_pre": [ev.j_pre for ev in arc.jumps],
            "endpoint": arc.final_state.tolist(), "V": V,
            "clearance": clearance}


def thermostat_entries() -> dict:
    """The entries of the thermostat grid, keyed by start."""
    return {"{:.3f}/{:g}".format(*x0): arc_entry(engine.simulate(spec, x0, cfg))
            for x0, spec, cfg in arc_digest.thermostat_runs()}


def generic_entries() -> dict:
    """The entries of the generic constructions' arcs, keyed by layer."""
    cfg = harness.load_config(arc_digest.GENERIC_CONFIG)
    out = {}
    for name, (plant, fam, x0) in arc_digest.generic_runs(cfg).items():
        arc = engine.simulate(synergy.assemble_closed_loop(plant, fam), x0,
                              arc_digest.GENERIC_SIM)
        n = plant.dim_x
        end = arc.final_state
        out[name] = arc_entry(
            arc, float(fam.V(end[:n], end[n:])),
            min(navigation.obstacle_distance(cfg.world, x[:2])
                for seg in arc.segments for x in seg.xs))
    return out


def record(runs: dict[str, harness.RunRecord]) -> dict:
    """The record, with the shipped configs' entries taken from ``runs``,
    their run_scenario records by config name."""
    return {"configs": {name: arc_entry(rec.arc, float(rec.V[-1]),
                                        rec.min_clearance)
                        for name, rec in runs.items()},
            "thermostat": thermostat_entries(),
            "generic": generic_entries()}


def main() -> int:
    runs = {path.stem: harness.run_scenario(harness.load_config(path))
            for path in arc_digest.config_paths()}
    # One line per arc, so a diff of the record names the arcs that moved.
    groups = []
    for group, entries in record(runs).items():
        arcs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}"
                           for name, entry in entries.items())
        groups.append(f" {json.dumps(group)}: {{\n{arcs}\n }}")
    RECORD.write_text("{\n" + ",\n".join(groups) + "\n}\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
