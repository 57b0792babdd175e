"""Exhaustive search over quantized LIS phases, the reference that the
tiny-scale optimizer check (criterion 3) measures `optimize_tsvd` against."""

import numpy as np

from lisim.passive_bf import tsvd_objective


def brute_force_phase_oracle(core, weights, levels):
    """The maximizer of sum_i log2(1 + a_i |v^H p^{ii}|^2) over every v with
    phases on the `levels`-point grid, and its value; `core` is a stack of
    one and `weights` (N_s,) is as for `optimize_tsvd`. The search holds
    levels ** M states, so it is for toy LIS sizes only."""
    _, (diag_vectors, weights) = tsvd_objective(core, np.asarray(weights)[None])
    m = core.m
    total = levels ** m
    step = 2.0 * np.pi / levels
    best_obj = -np.inf
    best_v = None
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.stack(np.unravel_index(idx, (levels,) * m), axis=1)
        v = np.exp(1j * step * digits)                    # (chunk, M)
        d = v.conj() @ diag_vectors[0].T                  # (chunk, N_s)
        obj = np.sum(np.log2(1.0 + weights * np.abs(d) ** 2), axis=1)
        k = int(np.argmax(obj))
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_v = v[k]
    return best_v, best_obj
