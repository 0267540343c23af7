"""Command line interface.

Subcommands mirror the pipeline stages; each one reads the intermediates the
previous stage wrote, so

    matchstudy run --config study.json

and the chain simulate / propensity / match / balance / infer / sensitivity /
report produce byte-identical outputs.

Exit codes: 0 success, 1 invalid configuration or missing inputs, 2 runtime
failure (a failure manifest naming the stage is left in the output directory).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .config import config_from_dict, default_config_dict, load_config
from .dataset import SchemaError, ValidationError
from .matching import MatchingError
from .multiplicity import ProtocolError
from .oracles import run_oracle_suite
from .pipeline import (
    MissingIntermediateError,
    PipelineError,
    _write_failure_manifest,
    run_pipeline,
    stage_balance,
    stage_infer,
    stage_match,
    stage_propensity,
    stage_report,
    stage_sensitivity,
    stage_simulate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_VALIDATION_ERRORS = (
    SchemaError,
    ValidationError,
    ProtocolError,
    MatchingError,
    MissingIntermediateError,
)

STAGE_COMMANDS = {
    "simulate": ("write a synthetic cohort csv", stage_simulate),
    "propensity": ("fit the configured score models", stage_propensity),
    "match": ("build matched sets for every comparison and method", stage_match),
    "balance": ("tabulate covariate balance and select a match per comparison", stage_balance),
    "infer": ("run the randomization tests and interval inversions", stage_infer),
    "sensitivity": ("compute hidden-bias bounds over the gamma grid", stage_sensitivity),
    "report": ("render the report tables from stored intermediates", stage_report),
}

log = logging.getLogger("matchstudy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchstudy",
        description="Matched observational study pipeline: scores, matching, "
        "randomization inference, and sensitivity analysis.",
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the built-in configuration as json and exit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(s):
        s.add_argument("--config", help="path to a json study configuration")
        s.add_argument("--seed", type=int, help="override the configured base seed")
        s.add_argument("--out", help="override the configured output directory")

    for name, (help_text, _) in STAGE_COMMANDS.items():
        common(sub.add_parser(name, help=help_text))
    common(sub.add_parser("run", help="run every stage in order"))
    oracle = sub.add_parser("oracle", help="run the brute-force self-checks")
    oracle.add_argument("--seed", type=int, default=0, help="seed for the generated instances")
    return parser


def _load_config(args):
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = config_from_dict(default_config_dict())
    replacements = {}
    if getattr(args, "seed", None) is not None:
        replacements["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        replacements["output_dir"] = args.out
    if replacements:
        cfg = dataclasses.replace(cfg, **replacements)
    return cfg


def _run_oracle(seed: int) -> int:
    checks = run_oracle_suite(seed=seed)
    ok = True
    for check in checks:
        ok = ok and check.passed
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {check.detail}")
    return EXIT_OK if ok else EXIT_RUNTIME


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(json.dumps(default_config_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    if args.command == "oracle":
        return _run_oracle(args.seed)

    try:
        cfg = _load_config(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (json.JSONDecodeError, *_VALIDATION_ERRORS, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "run":
        try:
            out = run_pipeline(cfg)
        except PipelineError as exc:
            cause = exc.__cause__
            if isinstance(cause, _VALIDATION_ERRORS):
                print(f"error: {cause}", file=sys.stderr)
                return EXIT_VALIDATION
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        log.info("wrote %s", out)
        return EXIT_OK

    stage_fn = STAGE_COMMANDS[args.command][1]
    try:
        stage_fn(cfg)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure: leave a manifest naming the stage
        stage = "inference" if args.command == "infer" else args.command
        _write_failure_manifest(cfg, stage, exc)
        print(f"error: stage {stage}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    log.info("%s done", args.command)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
