"""Finite-difference checks of the Wirtinger gradients the optimizers use."""

import numpy as np

from lisim.passive_bf import _spgm_ascent, _spgm_gains


def max_fd_error(evaluate, data, v, h=1e-6):
    """Worst relative error, over the rows of v (T, M), of the gradients that
    `evaluate(data, v)` returns (a `StackObjective`) against central finite
    differences of each row's own value along the real and the imaginary
    axis of each entry."""
    grad = evaluate(data, v)[1]()
    worst = 0.0
    for i in range(len(v)):
        def value(m, step, i=i):
            moved = v.copy()
            moved[i, m] += step
            return evaluate(data, moved)[0][i]
        fd = np.zeros(v.shape[1], dtype=complex)
        for m in range(v.shape[1]):
            re = (value(m, h) - value(m, -h)) / (2 * h)
            im = (value(m, 1j * h) - value(m, -1j * h)) / (2 * h)
            fd[m] = re + 1j * im
        worst = max(worst, np.linalg.norm(fd - grad[i]) / np.linalg.norm(grad[i]))
    return worst


def spgm_evaluate(data, w):
    """The negated normalized sum-path gain -||F w||^2 / ||F||_F^2 of each row
    of w = conj(v) and its Wirtinger gradient -2 F^H F w / ||F||_F^2, from
    the two helpers of the spgm power loop; data is `_spgm_data`'s."""
    c, gain = _spgm_gains(data, w)
    return -gain, lambda: -2.0 * _spgm_ascent(data, c) / data[3][:, None]
