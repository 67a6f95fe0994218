"""Write a committed BENCH_<n>.json from traced benchmark runs.

    python3 tools/bench_snapshot.py --source "<what this tree is>"

Run from anywhere inside a syncon checkout.  Runs the unchanged
``perfbench/run.py --workload <name> --seed 811 --seconds 20 --trace 1`` and
then the same command with ``--trace 0`` on each workload that
``BENCHMARK.json`` lists, one after another, and writes ``BENCH_<n>.json``
at the repository root, ``n`` one past the highest existing file.  Seed and
length are fixed so that every snapshot compares with the others.  The file
holds the source label, the traced command, the environment block of the
first run (without the workload name) and each workload's traced result
object, the last line run.py prints.  Under ``"untraced"`` it holds the
untraced command and each workload's untraced result object, whose
``wall_s`` is the calibrated median over the whole run rather than the one
plain pass that ``trace.untraced_wall_s`` times.  A run that fails, or whose
result is not ``correct``, stops the script before anything is written.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 811
SECONDS = 20


def run_args(trace: int) -> list[str]:
    return ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]


def command(trace: int) -> str:
    return " ".join(["python3 perfbench/run.py --workload <name>",
                     *run_args(trace)])


def run_workload(name: str, trace: int) -> tuple[dict, dict]:
    """(environment block, result object) of one run, traced or not."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           *run_args(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    *_, report_line, result_line = proc.stdout.splitlines()
    report = json.loads(report_line)
    result = json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"error: {name} is not correct: {report['problems']}")
    return report["env"], result


def next_number() -> int:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(taken, default=0) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", required=True,
                        help="what the measured tree is, e.g. a commit subject")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env, results, untraced = None, {}, {}
    for name in (w["name"] for w in bench["workloads"]):
        print(f"running {name} ...", file=sys.stderr)
        run_env, results[name] = run_workload(name, 1)
        _, untraced[name] = run_workload(name, 0)
        if env is None:
            env = {k: v for k, v in run_env.items() if k != "workload"}
    snapshot = {
        "source": args.source,
        "command": command(1),
        "env": env,
        "workloads": results,
        "untraced": {"command": command(0), "workloads": untraced},
    }
    path = ROOT / f"BENCH_{next_number()}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
