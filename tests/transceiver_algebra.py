"""Water-filling over the streams of a truncated SVD.

The sweeps split the power equally over the streams; water-filling is the
reference allocation that criterion 8 and `tests/test_transceiver.py` check
the transceiver algebra with (allocated precoder, closed-form rate, bounds).
"""

import numpy as np

from lisim.transceiver import RankError


def water_filling(sigma1, rho, sigma2_noise):
    """Per-stream powers summing to rho over parallel channels with gains
    sigma1^2, and the water level.

    Active-set solution: try support sizes from largest to smallest until the
    water level keeps every active stream's power positive.
    """
    sigma1 = np.asarray(sigma1, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if np.all(sigma1 == 0):
        raise RankError("all singular values are zero; no channel to allocate on")
    inv_gain = np.full_like(sigma1, np.inf)
    nz = sigma1 > 0
    inv_gain[nz] = sigma2_noise / sigma1[nz] ** 2
    for k in range(len(sigma1), 0, -1):
        if not np.all(np.isfinite(inv_gain[:k])):
            continue
        level = (rho + inv_gain[:k].sum()) / k
        if level > inv_gain[k - 1]:
            powers = np.maximum(level - inv_gain, 0.0)
            powers[k:] = 0.0
            return powers, level
    raise RankError("water-filling found no feasible support")
