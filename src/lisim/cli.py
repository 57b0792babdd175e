"""Command-line entry point: `lisim run <config>` and `lisim oracle <config>`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channel import path_core, sample_paths, sort_paths_descending
from .harness import (
    ConfigError,
    brute_force_phase_oracle,
    emit_csv,
    load_config,
    run_sweep,
)
from .manifold import DescentConfig
from .passive_bf import build_tsvd_problem, optimize_tsvd, stream_weights, tsvd_objective
from .units import dbi_to_amplitude


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
    result = run_sweep(cfg, parallel=args.parallel)
    emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    paths = sort_paths_descending(sample_paths(
        rng, cfg.geometry, cfg.budget, cfg.p_paths, cfg.l_paths,
        cfg.bs_lis_distance, cfg.lis_ue_distance))
    tx_g = dbi_to_amplitude(cfg.tx_gain_dbi)
    rx_g = dbi_to_amplitude(cfg.rx_gain_dbi)
    _, best_obj = brute_force_phase_oracle(
        paths, cfg.geometry, cfg.budget, cfg.n_streams, args.levels, tx_g, rx_g)
    weights = stream_weights(paths, cfg.budget, cfg.n_streams, tx_g, rx_g)
    v, _ = optimize_tsvd(path_core([paths], cfg.geometry), weights, cfg.descent, rng)
    prob = build_tsvd_problem(paths, cfg.geometry, cfg.budget, cfg.n_streams,
                              tx_g, rx_g)
    achieved = -tsvd_objective(v.entries, prob)
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
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
