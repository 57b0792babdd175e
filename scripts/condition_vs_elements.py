#!/usr/bin/env python3
"""Truncated condition number of the cascade channel vs LIS size.

Runs configs/lis_sweep.cfg through the harness and prints, per method and
LIS element count M, the mean and the median of the per-trial condition
numbers whose mean the sweep's `mean_cond` column reports. The
distribution is heavy-tailed, so the two statistics tell different
stories; the median tracks the typical realization.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from lisim.config import load_config
from lisim.harness import _run_trials

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lis_sweep.cfg"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=None,
                        help="override the config's trial count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    args = parser.parse_args()

    cfg = load_config(CONFIG)
    cfg = replace(cfg, trials=cfg.trials if args.trials is None else args.trials,
                  seed=cfg.seed if args.seed is None else args.seed)
    print(f"{'method':>8} {'M':>5} {'mean cond':>12} {'median cond':>12}")
    trials = _run_trials(cfg)   # arrays (M values, methods, modes, trials)
    for k, method in enumerate(cfg.methods):
        for si, m in enumerate(cfg.sweep_values):
            good = ~trials.failed[si, k]
            found = trials.cond[si, k][good] if good.any() else [np.nan]
            print(f"{method:>8} {m:>5.0f} {np.mean(found):>12.1f} {np.median(found):>12.1f}")


if __name__ == "__main__":
    main()
