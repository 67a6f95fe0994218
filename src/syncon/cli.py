"""Command line front end: run, check, audit, and compare scenarios."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import SynconError
from .harness import (
    audit_box,
    check_scenario,
    compare_records,
    load_config,
    nominal_family,
    run_scenario,
    write_csv,
    write_svg,
)
from .synergy import audit_quadruple


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncon",
        description="Simulate and validate synergistic hybrid feedback "
                    "scenarios for planar obstacle avoidance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--csv", help="write per-sample channels to this path")
    p_run.add_argument("--svg", help="write a trajectory plot to this path")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the summary lines")

    p_check = sub.add_parser("check",
                             help="validate bounds and audit the family")
    p_check.add_argument("config", help="path to a scenario JSON file")
    p_check.add_argument("--samples", type=_non_negative_int, default=200,
                         help="box samples for the family audit")

    p_audit = sub.add_parser("audit",
                             help="audit the switched family on its own")
    p_audit.add_argument("config", help="path to a scenario JSON file")
    p_audit.add_argument("--samples", type=_non_negative_int, default=400)
    p_audit.add_argument("--seed", type=_non_negative_int, default=None,
                         help="override the config seed")

    p_cmp = sub.add_parser("compare",
                           help="run configs and tabulate outcomes")
    p_cmp.add_argument("configs", nargs="+",
                       help="one or more scenario JSON files")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            record = run_scenario(load_config(args.config))
            if args.csv:
                write_csv(record, args.csv)
            if args.svg:
                write_svg(record, args.svg)
            if not args.quiet:
                for line in record.summary_lines():
                    print(line)
            return 0

        if args.command == "check":
            report = check_scenario(load_config(args.config),
                                    n_audit_samples=args.samples)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 1

        if args.command == "audit":
            cfg = load_config(args.config)
            plant, q, critical, note = nominal_family(cfg)
            if note is not None:
                print(f"[note] no stuck point: {note}")
            lo, hi = audit_box(cfg)
            seed = cfg.seed if args.seed is None else args.seed
            report = audit_quadruple(
                plant, q,
                sample_states=[(cfg.initial.p0.copy(), np.zeros(1))],
                critical_states=critical,
                box=(lo, hi), n_samples=args.samples, seed=seed)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 1

        records = [run_scenario(load_config(path)) for path in args.configs]
        for line in compare_records(records):
            print(line)
        return 0
    except (SynconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
