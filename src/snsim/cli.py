"""Command-line front end: run scenarios, sweep parameters, check claims.

    snsim run <scenario> [--config FILE] [--out DIR]
    snsim sweep --param NAME --values a,b,c [--config FILE] [--out DIR] [--jobs N]
    snsim check [--out DIR]

Exit status is 0 exactly when every check of the invocation passed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError, SimulationError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    _config_problems,
    _out_dir_problems,
    _parse_lines,
    run_scenario,
    sweep,
)


def _load_config(path, scenario=None) -> ScenarioConfig:
    # key and owner rules; run_scenario and sweep check the plans they run
    values, errors = {}, []
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
        values, errors = _parse_lines(text)
    if scenario is not None:
        values["scenario"] = scenario
    cfg = ScenarioConfig(**values)
    errors += _config_problems(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snsim",
        description="Self-gravitating wavepacket simulator and guidance analysis",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", choices=SCENARIOS)
    p_run.add_argument("--config", default=None, help="config file (key = value)")
    p_run.add_argument("--out", default="out", help="output directory")

    p_sweep = sub.add_parser("sweep", help="run one scenario per parameter value")
    p_sweep.add_argument("--param", required=True, help="numeric config key")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--scenario", default=None, choices=SCENARIOS)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="concurrent runs")

    p_check = sub.add_parser("check", help="run the full acceptance suite")
    p_check.add_argument("--out", default=None,
                         help="optional directory for a check report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="[%(name)s] %(message)s",
    )
    try:
        if args.command == "run":
            cfg = _load_config(args.config, args.scenario)
            report = run_scenario(cfg, args.out)
            for check in report.checks:
                print(check.line())
            print(f"report: {Path(args.out) / 'report.txt'}")
            return 0 if report.passed else 1

        if args.command == "sweep":
            cfg = _load_config(args.config, args.scenario)
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ConfigError("--values must be comma-separated numbers")
            rows, all_passed = sweep(cfg, args.param, values, args.out,
                                     args.jobs)
            for value, report, err in rows:
                if report is None:
                    print(f"{args.param}={value:g}: ERROR {err}")
                else:
                    state = "PASS" if report.passed else "FAIL"
                    print(f"{args.param}={value:g}: {state}")
            print(f"sweep table: {Path(args.out) / 'sweep.tsv'}")
            return 0 if all_passed else 1

        if args.command == "check":
            from .acceptance import run_acceptance

            problems = _out_dir_problems(args.out) if args.out else []
            if problems:
                raise ConfigError(problems)
            results = run_acceptance()
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                with open(out / "acceptance.txt", "w") as fh:
                    for check in results:
                        fh.write(check.line() + "\n")
            failed = [c for c in results if not c.passed]
            print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
            return 0 if not failed else 1
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
