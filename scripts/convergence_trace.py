#!/usr/bin/env python3
"""Print the descent trace of the rate-surrogate optimizer at full scale.

Runs a handful of seeded channel realizations at the 64-antenna / 16x16-LIS
setup and reports, per run, the objective trajectory and the iteration count
needed for the trace to flatten.
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
from lisim.passive_bf import optimize_tsvd, stream_weights
from lisim.units import dbi_to_amplitude


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epsilon", type=float, default=1e-2)
    parser.add_argument("--streams", type=int, default=4)
    args = parser.parse_args()

    geometry = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)
    budget = LinkBudget()
    cfg = DescentConfig(epsilon=args.epsilon)
    tx_gain = dbi_to_amplitude(24.5)

    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        paths = sort_paths_descending(sample_paths(rng, geometry, budget, 7, 7))
        weights = stream_weights(paths, budget, args.streams, tx_gain)
        _, trace = optimize_tsvd(path_core([paths], geometry), weights, cfg, rng)
        rates = [-x for x in trace]
        print(f"seed {seed}: {len(trace) - 1} iterations, "
              f"rate surrogate {rates[0]:.3f} -> {rates[-1]:.3f} bits/s/Hz")
        print("  trace:", " ".join(f"{r:.3f}" for r in rates))


if __name__ == "__main__":
    main()
