"""Record the reference endpoints that the benchmark checks arcs against.

    python3 perfbench/reference.py

Run from the root of a checkout.  Writes perfbench/reference.json with the
final CSV row of each shipped config (``syncon run --csv``) and the final
state of every ring_sweep grid start.  The checks allow workloads.ENDPOINT_TOL
per component.  Record again only for a change that alters the numerics on
purpose, and say so where the change is described.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from syncon import cli, engine, harness  # noqa: E402


def main() -> int:
    out_dir = workloads.OUT_DIR / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    demo = {}
    for name in workloads.DEMO_CONFIGS:
        csv_path = out_dir / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(workloads.CONFIG_DIR / f"{name}.json"),
                           "--csv", str(csv_path)])
        if rc != 0:
            raise SystemExit(f"{name}: syncon run exited with {rc}")
        demo[name] = workloads.demo_endpoint(
            workloads.csv_columns(csv_path.read_text()))
    ring = {}
    for loop, cfg in workloads.ring_configs().items():
        spec = harness.build_closed_loop(cfg)
        for k in range(workloads.RING_GRID):
            arc = engine.simulate(spec, workloads.ring_start(cfg, k), cfg.sim)
            ring[f"{loop}@{k}"] = workloads.ring_endpoint(arc)
    workloads.REFERENCE_FILE.write_text(json.dumps(
        {"demo_scenarios": demo, "ring_sweep": ring}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
