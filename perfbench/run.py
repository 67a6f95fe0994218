"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a syncon checkout; the program is imported from its
``src/``.  Workloads: demo_scenarios, ring_sweep, event_storm (see NOTES.md).

--trace 0  measures end-to-end metrics with no instrumentation: set-up time
           (median of several fresh interpreters), then whole passes of the
           workload until --seconds have gone by.
--trace 1  runs one plain pass and two traced passes of the same inputs,
           reports per-layer metrics from the second traced pass and the
           tracing overhead (first traced pass minus the plain one), and
           fails if any count differs between the two traced passes.

Every arc is checked (see workloads.py); a failed check makes the result
incorrect.  The last line of standard output is the result object; the line
before it holds the environment block and the details.  Both are also
written to .bench_out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# One thread: pin BLAS through this process's own environment, before numpy
# loads; the set-up probes inherit it.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up probes per run, half before the timed passes and half after, so
# that they sample the host at two times.
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 60
# Arcs that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# Period of the calibration samples taken while a timed call runs.
SAMPLE_PERIOD_S = 0.1

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "arc_s.p50": "s",
             "arc_s.tail": "s", "peak_rss_mb": "MB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str, seed: int,
                  repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first simulate, raw
    and scaled to the reference host speed."""
    raw, scaled = [], []
    for _ in range(repeats):
        before = calibrate.kernel_seconds()
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds = float(proc.stdout.strip().splitlines()[-1]) - t0
        raw.append(seconds)
        after = calibrate.kernel_seconds()
        scaled.append(seconds * 2.0 * calibrate.REFERENCE_S / (before + after))
    return raw, scaled


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def pass_problems(passes) -> list[str]:
    """Failed arc checks, plus any arc whose outputs differ between passes."""
    problems = []
    first = {}
    for arcs in passes:
        for arc in arcs:
            problems += [f"{arc.key}: {p}" for p in arc.problems]
            if arc.problems:
                continue
            seen = first.setdefault(arc.key, arc.fingerprint)
            if seen != arc.fingerprint:
                problems.append(f"{arc.key}: outputs differ between passes")
    return problems


def pass_wall(arcs) -> float:
    return sum(a.seconds + a.extra_s for a in arcs)


def calibrated_pass(wl, sampler, begin_arc=None):
    """One pass, with a calibration sample before each arc and after the
    last.  Returns the arcs and each arc's (scaled seconds, scaled extra)."""
    def begin(key):
        sampler.mark()
        if begin_arc:
            begin_arc(key)

    arcs = wl.run_pass(begin_arc=begin)
    sampler.mark()
    scaled = []
    for a in arcs:
        k, spent = sampler.calibrate(a.start, a.start + a.seconds)
        k_extra, spent_extra = sampler.calibrate(
            a.start + a.seconds, a.start + a.seconds + a.extra_s)
        scaled.append(((a.seconds - spent) * k,
                       (a.extra_s - spent_extra) * k_extra))
    return arcs, scaled


def untraced(args, wl) -> tuple[dict, dict, list]:
    setup_raw, setup = measure_setup(args.workload, args.seed,
                                     SETUP_REPEATS // 2)
    runs = []
    start = perf_counter()
    with calibrate.Sampler(SAMPLE_PERIOD_S) as sampler:
        # Whole passes, until the next one would end after --seconds.
        while True:
            runs.append(calibrated_pass(wl, sampler))
            elapsed = perf_counter() - start
            if elapsed * (len(runs) + 1) / len(runs) > args.seconds:
                break
    more_raw, more = measure_setup(args.workload, args.seed,
                                   SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_raw += more_raw
    setup += more
    ok = [(a.seconds, s) for arcs, scaled in runs
          for a, (s, _) in zip(arcs, scaled) if not a.problems]
    arc_s = [s for _, s in ok]
    arc_raw = [r for r, _ in ok]
    walls = [sum(s + e for s, e in scaled) for _, scaled in runs]
    tail_value, tail_pct, beyond = tail(arc_s) if arc_s else (0.0, 0.0, 0)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "arc_s.p50": statistics.median(arc_s) if arc_s else 0.0,
        "arc_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kernels = [k for _, _, k in sampler.samples]
    details = {
        "passes": len(runs),
        "arc_s.tail": {"percentile": tail_pct, "samples": len(arc_s),
                       "beyond": beyond},
        "calibration": {"samples": len(kernels),
                        "kernel_s.p50": statistics.median(kernels),
                        "reference_s": calibrate.REFERENCE_S},
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(pass_wall(arcs) for arcs, _ in runs),
            "arc_s.p50": statistics.median(arc_raw) if arc_raw else 0.0,
            "arc_s.tail": tail(arc_raw)[0] if arc_raw else 0.0,
        },
        "setup_s.samples": {"raw": setup_raw, "scaled": setup},
        "pass_wall_s": walls,
    }
    return ({k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
            details, [arcs for arcs, _ in runs])


def traced(args, wl) -> tuple[dict, dict, list]:
    import spans

    def traced_pass(sampler):
        tr = spans.Tracer()
        tr.install()
        try:
            wl.setup(wrap_spec=tr.wrap_spec)
            run = calibrated_pass(wl, sampler, begin_arc=tr.begin_arc)
        finally:
            tr.uninstall()
        return tr, run

    # The overhead compares a plain and a traced pass, both calibrated
    # while they run.  The per-layer numbers come from a second traced pass
    # with calibration samples only between arcs, so that none falls inside
    # a span.
    with calibrate.Sampler(SAMPLE_PERIOD_S) as sampler:
        runs = [calibrated_pass(wl, sampler)]
        tr_a, run = traced_pass(sampler)
        runs.append(run)
    tr_b, run = traced_pass(calibrate.Sampler(SAMPLE_PERIOD_S))
    runs.append(run)
    wl.setup()
    counts = [tr.count_summary() for tr in (tr_a, tr_b)]
    drift = sorted(k for k in counts[0].keys() | counts[1].keys()
                   if counts[0].get(k) != counts[1].get(k))
    walls = [sum(s + e for s, e in scaled) for _, scaled in runs]
    layer = spans.layer_metrics(tr_b)
    layer["trace.untraced_wall_s"] = walls[0]
    layer["trace.wall_s"] = walls[1]
    layer["trace.overhead_s"] = walls[1] - walls[0]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in units}
    tr_b.save(OUT_DIR / f"spans-{args.workload}.npz")
    details = {"counts": counts[1], "count_drift": drift,
               "raw": {"untraced_wall_s": pass_wall(runs[0][0]),
                       "wall_s": pass_wall(runs[1][0])}}
    return ({k: {"value": v, "unit": units[k]} for k, v in layer.items()},
            details, [arcs for arcs, _ in runs])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "syncon" / "__init__.py").is_file():
        print(f"error: no syncon sources under {SRC}; run from the root of a "
              f"syncon checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else untraced
    metrics, details, passes = run(args, wl)

    problems = pass_problems(passes)
    if args.trace and details["count_drift"]:
        problems += [f"count differs between traced passes: {k}"
                     for k in details["count_drift"]]
    attempted = sum(len(arcs) for arcs in passes)
    failed = sum(1 for arcs in passes for a in arcs if a.problems)
    report = {
        "env": environment(args),
        "fail_frac": {"value": failed / attempted, "unit": "arcs/arc",
                      "failed": failed, "attempted": attempted},
        **details,
        "metrics": metrics,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**report, "result": result},
                                           indent=1) + "\n")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted} arcs)")
    for p in problems[:20]:
        print(f"problem: {p}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
