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
the workload's horizons.  Standard library and numpy only; the whole run
takes a few seconds.
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

from syncon import engine, harness  # noqa: E402


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


def ring_digest() -> str:
    """Digest of every ring_sweep grid start through both ring loops."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    h = hashlib.sha256()
    for loop, cfg in workloads.ring_configs().items():
        spec = harness.build_closed_loop(cfg)
        for k in range(workloads.RING_GRID):
            h.update(f"{loop}@{k}".encode())
            _feed_arc(h, engine.simulate(spec, workloads.ring_start(cfg, k),
                                         cfg.sim))
    return h.hexdigest()


def main() -> int:
    for path in sorted((ROOT / "configs").glob("*.json")):
        print(f"{config_digest(path)}  {path.stem}")
    print(f"{ring_digest()}  ring_grid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
