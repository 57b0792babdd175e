#!/usr/bin/env python3
"""Truncated condition number of the cascade channel vs LIS size.

Compares the `tsvd` design (rate surrogate, then the exact truncated-SVD
rate) against the sum-path-gain baseline over a grid of LIS element counts,
reporting mean and median over paired trials.
The distribution is heavy-tailed, so the two statistics tell different
stories; the median tracks the typical realization.
"""

import argparse

import numpy as np

from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.manifold import DescentConfig
from lisim.metrics import truncated_condition_number
from lisim.passive_bf import optimize_rate, optimize_spgm, optimize_tsvd, stream_weights
from lisim.units import dbi_to_amplitude


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--tx-power-dbm", type=float, default=30.0,
                        help="higher power keeps weak streams active and "
                             "tames the condition-number tail")
    args = parser.parse_args()

    from lisim.units import dbm_to_watt
    budget = LinkBudget(tx_power=dbm_to_watt(args.tx_power_dbm))
    cfg = DescentConfig()
    tx_gain = dbi_to_amplitude(24.5)

    print(f"{'M':>5} {'tsvd mean':>12} {'tsvd med':>10} "
          f"{'spgm mean':>12} {'spgm med':>10}")
    for lis_z in (4, 8, 12, 16):
        geometry = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=lis_z)
        conds = {"tsvd": [], "spgm": []}
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, trial])
            paths = sort_paths_descending(sample_paths(rng, geometry, budget, 7, 7))
            core = path_core(paths, geometry, tx_gain)
            weights = stream_weights(paths, budget, args.streams, tx_gain)
            v, _ = optimize_tsvd(core, weights, cfg, rng)
            v, _ = optimize_rate(core, budget, args.streams, cfg, v)
            conds["tsvd"].append(truncated_condition_number(core.at(v.entries),
                                                            args.streams))
            v, _ = optimize_spgm(core, cfg, rng)
            conds["spgm"].append(truncated_condition_number(core.at(v.entries),
                                                            args.streams))
        print(f"{geometry.m:>5} {np.mean(conds['tsvd']):>12.1f} "
              f"{np.median(conds['tsvd']):>10.1f} {np.mean(conds['spgm']):>12.1f} "
              f"{np.median(conds['spgm']):>10.1f}")


if __name__ == "__main__":
    main()
