"""Command-line driver: one subcommand per experiment kind.

Usage:
    hrcs <kind> --config spec.json [--seed N] [--workers N] [--out PATH]
                [--format jsonl|csv]

The config file is a JSON experiment spec (see README for the schema); CLI
flags override the matching spec fields.  Exit code 0 on success, 1 with a
diagnostic on stderr when the spec is refused or a run fails, and 2 with a
usage message (argparse's) when the command line itself is wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import CapacityError, ConfigurationError
from .runner import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    InstanceFailure,
    run_experiment,
    write_records,
)

# subcommand -> spec kind; "theory_table" reads better bare
_COMMANDS = {kind.replace("_", "-"): kind for kind in EXPERIMENT_KINDS if kind != "theory_table"}
_COMMANDS["theory"] = "theory_table"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hrcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in sorted(_COMMANDS):
        p = sub.add_parser(command, help=f"run a {_COMMANDS[command]} experiment")
        p.add_argument("--config", required=True, help="path to a JSON experiment spec")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default: 1)")
        p.add_argument("--out", default=None, help="override output path")
        p.add_argument("--format", choices=["jsonl", "csv"], default=None,
                       help="override output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec.from_json_file(args.config)
        kind = _COMMANDS[args.command]
        if spec.kind != kind:
            raise ConfigurationError(
                f"config is a {spec.kind!r} spec but the {args.command!r} command was invoked"
            )
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        if spec.out is None:
            raise ConfigurationError("no output path: set 'out' in the config or pass --out")
        records = run_experiment(spec, workers=args.workers)
        write_records(records, spec.out, spec.format)
        print(f"wrote {len(records)} records to {spec.out}")
        return 0
    except (ConfigurationError, CapacityError, InstanceFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
