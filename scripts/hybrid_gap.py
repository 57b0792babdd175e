#!/usr/bin/env python3
"""Spectral-efficiency gap between hybrid and fully digital transceivers.

Sweeps the RF-chain count at the large-array setup and reports the mean
hybrid/digital rate ratio over seeded trials.
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
from lisim.metrics import spectral_efficiency
from lisim.passive_bf import optimize_rate, optimize_tsvd, stream_weights
from lisim.transceiver import (
    digital_combiner,
    digital_precoder,
    hybrid_factorize,
    truncated_svd,
)
from lisim.units import dbi_to_amplitude


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--rf-chains", type=int, nargs="+", default=[4, 5, 6, 8])
    args = parser.parse_args()

    geometry = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)
    budget = LinkBudget()
    cfg = DescentConfig()
    tx_gain = dbi_to_amplitude(24.5)

    for n_rf in args.rf_chains:
        if n_rf < args.streams:
            continue
        digital, hybrid = [], []
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, trial])
            paths = sort_paths_descending(sample_paths(rng, geometry, budget, 7, 7))
            core = path_core(paths, geometry, tx_gain)
            weights = stream_weights(paths, budget, args.streams, tx_gain)
            v, _ = optimize_tsvd(core, weights, cfg, rng)
            v, _ = optimize_rate(core, budget, args.streams, cfg, v)
            # the digital transceiver on the core; the hybrid one on the dense
            # channel, with the precoder and combiner lifted to the antennas
            c = core.at(v.entries)
            svd = truncated_svd(c, args.streams)
            f = digital_precoder(svd, budget.tx_power)
            w = digital_combiner(svd)
            digital.append(spectral_efficiency(c, f, w, budget.noise_power))
            f_rf, f_bb = hybrid_factorize(core.q_b @ f, n_rf, cfg, rng,
                                          power_norm=budget.tx_power)
            w_rf, w_bb = hybrid_factorize(core.q_u @ w, n_rf, cfg, rng)
            hybrid.append(spectral_efficiency(core.lift(c), f_rf @ f_bb, w_rf @ w_bb,
                                              budget.noise_power))
        ratio = np.mean(hybrid) / np.mean(digital)
        print(f"RF chains {n_rf}: digital {np.mean(digital):.3f}, "
              f"hybrid {np.mean(hybrid):.3f} bits/s/Hz (ratio {ratio:.4f})")


if __name__ == "__main__":
    main()
