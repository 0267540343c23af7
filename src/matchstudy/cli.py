"""Command line interface.

Subcommands mirror the pipeline stages; each one reads the intermediates the
previous stage wrote, so

    matchstudy run --config study.json

and the chain simulate / propensity / match / balance / infer / sensitivity /
report produce byte-identical outputs.

The subcommands and the order ``run`` takes them in come from
``pipeline.STAGES``, and ``run`` and each stage subcommand run a stage
through ``pipeline.run_stage``, so both fail the same way.

Exit codes: 0 success, 1 invalid configuration or missing inputs (no failure
manifest is written), 2 runtime failure (``failure_manifest.txt`` naming the
stage is left in the output directory).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .config import config_from_dict, default_config_dict, load_config
from .oracles import run_oracle_suite
from .pipeline import STAGES, VALIDATION_ERRORS, PipelineError, run_pipeline, run_stage

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

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

    for command, _, help_text in STAGES:
        common(sub.add_parser(command, help=help_text))
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
    except ValueError as exc:  # ValidationError, SchemaError and bad JSON among them
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.command == "run":
            done = f"wrote {run_pipeline(cfg)}"
        else:
            run_stage(cfg, args.command)
            done = f"{args.command} done"
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    log.info(done)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
