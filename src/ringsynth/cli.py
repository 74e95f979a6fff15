"""Command-line entry points.

Two subcommands drive the pipeline:

    ringsynth run <config>       synthesize and emit result files
    ringsynth validate <config>  schema plus feasibility checks, no solve

Exit codes: 0 on success, 2 for config problems (an unwritable output
directory included), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_config_file, resolve_config
from .errors import ConfigError, DegeneratePatternError, SingularSystemError
from .runner import run_synthesis, summary_lines, write_outputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the bundled examples are the JSON files shipped in the package's configs directory
_BUNDLED = {path.stem: path for path in Path(__file__).with_name("configs").glob("*.json")}
BUNDLED_EXAMPLES = tuple(sorted(_BUNDLED))


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled example config."""
    try:
        return _BUNDLED[name.removesuffix(".json")]
    except KeyError:
        raise KeyError(f"no bundled config named {name!r}; have {BUNDLED_EXAMPLES}") from None


def _locate_config(argument: str) -> Path:
    path = Path(argument)
    # a missing file that names no bundled example is left for the loader to report
    return path if path.exists() else _BUNDLED.get(argument.removesuffix(".json"), path)


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsynth",
        description="Synthesize ring-array excitation weights from a desired pattern.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a synthesis config and emit result files")
    run.add_argument("config", help="config file path or bundled example name")
    run.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    run.add_argument("--grid", type=int, metavar="POINTS", help="cut grid resolution")
    run.add_argument("--surface", action="store_true", help="also emit surface.csv")
    run.add_argument("--quiet", action="store_true", help="suppress console summary")

    val = sub.add_parser("validate", help="validate a config without solving")
    val.add_argument("config", help="config file path or bundled example name")
    return parser


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    output = raw.get("output", {})
    if not isinstance(output, dict):
        return raw  # left malformed for resolve_config to report
    output = dict(output)
    if args.out is not None:
        output["directory"] = args.out
    if args.grid is not None:
        output["grid_points"] = args.grid
    if args.surface:
        output["surface"] = True
    return {**raw, "output": output} if output else raw


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = _locate_config(args.config)
    try:
        raw = load_config_file(config_path)
        if args.command == "run":
            raw = _apply_overrides(raw, args)
        cfg, warnings = resolve_config(raw, base_dir=config_path.parent)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # a directory that cannot be made stops both commands before any solve
        out = Path(cfg.out_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{existing} exists and is not a directory")
        if args.command == "validate":
            for warning in warnings:
                print(f"warning = {warning}")  # as report.txt words it
            print(f"{config_path}: ok")
            return EXIT_OK
        out.mkdir(parents=True, exist_ok=True)
        report = run_synthesis(cfg, warnings=warnings)
        written = write_outputs(report, cfg.out_dir)
    except (SingularSystemError, DegeneratePatternError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # the directory comes from output.directory or --out
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        for line in summary_lines(report):
            print(line)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def console_entry() -> None:
    raise SystemExit(main())
