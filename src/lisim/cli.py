"""Command-line entry point: `lisim run <config>` and `lisim oracle <config>`."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .channel import path_core
from .config import ConfigError, _specialize, load_config
from .harness import _draw_point, brute_force_phase_oracle, emit_csv, run_sweep
from .passive_bf import optimize_tsvd, stream_weights


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
                     help="number of worker processes")

    oracle = sub.add_parser(
        "oracle", help="compare the optimizer against the exhaustive phase oracle")
    oracle.add_argument("config", help="path to a key/value config file")
    oracle.add_argument("--levels", type=int, default=8,
                        help="phase quantization levels for the oracle")
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


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    # trial 0 at the first sweep value, with the paths that `lisim run`
    # draws for it, whether or not cfg lists tsvd
    point = _draw_point(cfg, _specialize(cfg), 0, 0)
    run_cfg = point.cfg
    gains = run_cfg.gains
    core = path_core([point.paths], run_cfg.geometry, *gains)
    weights = stream_weights(point.paths, run_cfg.budget, run_cfg.n_streams, *gains)
    _, best_obj = brute_force_phase_oracle(core, weights, args.levels)
    # the engine logs the negated surrogate at the point it returns
    _, trace = optimize_tsvd(core, weights, run_cfg.descent)
    achieved = -trace[-1]
    ratio = achieved / best_obj if best_obj > 0 else float("nan")
    print(f"oracle objective:    {best_obj:.9f}")
    print(f"optimizer objective: {achieved:.9f}")
    print(f"ratio:               {ratio:.4f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_oracle(args)
    except (ConfigError, OSError) as exc:   # anything else is a bug: let it show
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
