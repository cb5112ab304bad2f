"""Command-line entry points.

run       execute a configured scenario sweep and write report files
stats     run the sampler only and print convergence diagnostics
fit-curve fit sigmoid power-curve parameters to a points CSV

Progress goes to stderr; results go to files and stdout. Exit code 0 on
success, 1 on any stage failure.
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import sys

from .config import apply_profile, load_config, override_seed
from .errors import WindGameError
from .runner import emit_report, run_scenario, run_stats
from .sim import fit_sigmoid, load_curve_points


def _positive_int(text: str) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario INI file")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="threads running chains, at least 1 (default 1)")
    sub.add_argument("--profile", choices=("desk", "paper"),
                     help="override run dimensions with a named profile")
    sub.add_argument("--seed", type=int, help="override the master seed")


def _load(args: argparse.Namespace):
    config = load_config(args.config)
    if args.profile:
        config = apply_profile(config, args.profile)
    if args.seed is not None:
        config = override_seed(config, args.seed)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="windgame",
        description="Wind/demand scenario sampling and capacity-investment equilibria")
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run a scenario sweep and write reports")
    _add_common(run_cmd)
    run_cmd.add_argument("--out", required=True, help="output directory")

    stats_cmd = commands.add_parser("stats", help="sampler convergence study only")
    _add_common(stats_cmd)

    fit_cmd = commands.add_parser("fit-curve", help="fit sigmoid power-curve parameters")
    fit_cmd.add_argument("--points", required=True,
                         help="CSV with columns wind_ms, output_pu")

    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "run":
            result = run_scenario(_load(args), workers=args.workers)
            paths = emit_report(result, args.out)
            for path in paths:
                print(path)
        elif args.command == "stats":
            print(run_stats(_load(args), workers=args.workers).format_table())
        elif args.command == "fit-curve":
            curve = fit_sigmoid(load_curve_points(args.points))
            print(f"alpha={curve.alpha:.6f} beta={curve.beta:.6f} "
                  f"residual={curve.fit_residual:.6g}")
    except WindGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> int:
    """The console entry (``windgame`` and ``python -m windgame.cli``):
    ``main``, then every object alive moved out of the collector's reach, so
    the interpreter's last collections at exit skip the heap that ``main``
    left. Exit handlers and stream flushes still run; every report is closed
    and renamed into place before ``main`` returns."""
    code = main()
    import gc  # here, so that importing this module loads no further module

    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
