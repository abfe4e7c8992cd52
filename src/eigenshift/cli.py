"""Command line entry points: run, sweep, verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ScenarioConfig,
    run_scenario,
    verify_abstract,
    verify_fem,
    write_csv,
    write_report,
)


def _cmd_scenario(args) -> int:
    """``run`` writes report.json and rows.csv, ``sweep`` the CSV rows only."""
    report = run_scenario(ScenarioConfig.from_json(args.config))
    if args.command == "run":
        path = write_report(report, args.out)
        print(f"report: {path}")
        print(f"rows:   {Path(args.out) / 'rows.csv'}")
    else:
        write_csv(report, args.csv)
        print(f"rows: {args.csv}")
    for failure in report.failures:
        print(f"FAIL {failure}")
    print("status: " + ("ok" if report.passed else "failed"))
    return 0 if report.passed else 1


def _print_margins(name: str, summary: dict) -> None:
    print(f"[{name}]")
    for key, value in sorted(summary.items()):
        if isinstance(value, dict) and "worst_margin" in value:
            margin = value["worst_margin"]
            flag = "ok " if (margin is None or margin >= 0) else "VIOLATED"
            shown = "n/a" if margin is None else f"{margin:.3e}"
            print(f"  {flag} {key}: worst margin {shown} over {value['cases']} cases")
            for case in value["violations"]:
                print(f"    counterexample: {json.dumps(case)}")
        elif isinstance(value, bool):
            print(f"  {'ok ' if value else 'VIOLATED'} {key}")
        elif key not in ("passed",):
            print(f"      {key}: {value}")
    print(f"  passed: {summary['passed']}")


def _cmd_verify(args) -> int:
    ok = True
    if args.suite in ("abstract", "all"):
        summary = verify_abstract(seed=args.seed, n_cases=args.cases)
        _print_margins("abstract", summary)
        ok = ok and summary["passed"]
    if args.suite in ("fem", "all"):
        summary = verify_fem(seed=args.seed)
        _print_margins("fem", summary)
        ok = ok and summary["passed"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenshift",
        description="Eigenvalue drift under domain perturbation: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config, write report.json and rows.csv")
    run_p.add_argument("--config", required=True, help="scenario config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_scenario)

    sweep_p = sub.add_parser("sweep", help="run a scenario config, write CSV rows only")
    sweep_p.add_argument("--config", required=True, help="scenario config JSON")
    sweep_p.add_argument("--csv", required=True, help="output CSV path")
    sweep_p.set_defaults(func=_cmd_scenario)

    verify_p = sub.add_parser("verify", help="run the invariant suites")
    verify_p.add_argument("--suite", choices=("abstract", "fem", "all"), default="all")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--cases", type=int, default=500)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
