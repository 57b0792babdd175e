#!/usr/bin/env python3
"""Print the descent trace of the rate-surrogate optimizer at full scale.

Draws trial 0 of configs/default.cfg (64-antenna ULAs, 16x16 LIS, 7x7
paths) through the harness under each master seed 0, 1, ... and reports,
per seed, the objective trajectory of the `tsvd` surrogate descent from its
start at the strongest composite path, and the iteration count needed for
the trace to flatten.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from lisim.channel import path_core
from lisim.config import _specialize, load_config
from lisim.harness import _draw_point
from lisim.passive_bf import optimize_tsvd, stream_weights

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epsilon", type=float, default=1e-2)
    parser.add_argument("--streams", type=int, default=4)
    args = parser.parse_args()

    cfg = load_config(CONFIG)
    cfg = replace(cfg, n_streams=args.streams,
                  descent=replace(cfg.descent, epsilon=args.epsilon))

    for seed in range(args.seeds):
        seeded = replace(cfg, seed=seed)
        point = _draw_point(seeded, _specialize(seeded), 0, 0)
        run_cfg, paths = point.cfg, point.paths
        gains = run_cfg.gains
        weights = stream_weights(paths, run_cfg.budget, run_cfg.n_streams, *gains)
        _, trace = optimize_tsvd(path_core([paths], run_cfg.geometry, *gains), weights,
                                 run_cfg.descent)
        rates = [-x for x in trace]
        print(f"seed {seed}: {len(trace) - 1} iterations, "
              f"rate surrogate {rates[0]:.3f} -> {rates[-1]:.3f} bits/s/Hz")
        print("  trace:", " ".join(f"{r:.3f}" for r in rates))


if __name__ == "__main__":
    main()
