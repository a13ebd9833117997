"""Command-line entry point: explore, diff, export, stats, validate-model.

Exit codes: 0 success, 1 usage/input error, 2 runtime failure,
3 partial results written (the wall-clock timeout or the action budget ran out).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diff import RunSnapshot, diff_graphs
from .engine import ExplorationConfig, explore, write_outputs
from .errors import DanglingReference, SceneTGError, SchemaError
from .graphs import export_dot, read_run_document
from .simulator import load_app_model, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_TIMEOUT = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _default_seed() -> int:
    env = os.environ.get("SCENETG_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise CliError(f"SCENETG_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scenetg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("explore", help="explore an app model and emit its scene transition graph")
    p.add_argument("--app", required=True, help="app model JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dynamic-timeout", type=float, default=1800.0)
    p.add_argument("--max-actions", type=int, default=None, help="driver actions before the run stops partial")
    p.add_argument("--no-fuzzing", action="store_true")
    p.add_argument("--no-indirect", action="store_true")
    p.add_argument("--no-scene-id", action="store_true")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("diff", help="compare two explore output directories")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--out", required=True, help="diff report JSON file")

    p = sub.add_parser("stats", help="print graph metrics for an explore output")
    p.add_argument("--in", dest="in_dir", required=True)

    p = sub.add_parser("export", help="re-emit a stored graph")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--format", choices=["dot", "json"], required=True)

    p = sub.add_parser("validate-model", help="check an app model file against the schema")
    p.add_argument("--app", required=True)
    return parser


def _cmd_explore(args) -> int:
    model = load_app_model(args.app)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        config = ExplorationConfig(
            dynamic_timeout=args.dynamic_timeout,
            rng_seed=seed,
            enable_fuzzing=not args.no_fuzzing,
            enable_indirect=not args.no_indirect,
            enable_scene_id=not args.no_scene_id,
            max_actions=args.max_actions,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    result = explore(model, simulate(model), config)
    write_outputs(result, args.out, model.package)
    print(json.dumps(result.report["stats"]))
    return EXIT_TIMEOUT if result.report["partial"] else EXIT_OK


def _explore_output(directory) -> Path:
    if not (Path(directory) / "scenetg.json").is_file():
        raise CliError(f"{directory} does not look like an explore output")
    return Path(directory)


def _cmd_diff(args) -> int:
    old = RunSnapshot.load(_explore_output(args.old))
    new = RunSnapshot.load(_explore_output(args.new))
    report = diff_graphs(old, new)
    Path(args.out).write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(report.render_text())
    return EXIT_OK


def _cmd_stats(args) -> int:
    doc = read_run_document(_explore_output(args.in_dir))
    print(json.dumps(doc["stats"]))
    return EXIT_OK


def _cmd_export(args) -> int:
    doc = read_run_document(_explore_output(args.in_dir))
    sys.stdout.write(json.dumps(doc, indent=2) + "\n" if args.format == "json" else export_dot(doc))
    return EXIT_OK


def _cmd_validate(args) -> int:
    model = load_app_model(args.app)
    print(f"ok: {model.package} ({len(model.activities)} activities)")
    return EXIT_OK


_COMMANDS = {
    "explore": _cmd_explore,
    "diff": _cmd_diff,
    "stats": _cmd_stats,
    "export": _cmd_export,
    "validate-model": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args)
    except (CliError, SchemaError, DanglingReference) as exc:  # a bad command line or app model
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SceneTGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
