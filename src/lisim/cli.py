"""Command-line entry point: `lisim run <config>` runs a configured sweep."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import ConfigError, load_config
from .harness import emit_csv, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisim",
        description="LIS-assisted mmWave MIMO link simulator")
    parser.add_argument("--version", action="version",
                        version=f"lisim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a Monte-Carlo sweep")
    run.add_argument("config", help="path to a key/value config file")
    run.add_argument("--out", default="sweep.csv", help="output CSV path")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--parallel", type=int, default=1, metavar="K",
                     help="worker processes, at most one per group")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    # an --out that cannot be written fails before any trial runs; the probe
    # truncates nothing and leaves no new file behind
    created = not os.path.exists(args.out)
    open(args.out, "a").close()
    if created:
        os.remove(args.out)
    result = run_sweep(cfg, parallel=args.parallel)
    emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_run(args)
    except (ConfigError, OSError) as exc:   # anything else is a bug: let it show
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
