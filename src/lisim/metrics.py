"""Link-quality functionals: spectral efficiency and truncated condition number."""

from __future__ import annotations

import numpy as np


class CombinerRankError(ValueError):
    """The combiner is rank deficient."""


def spectral_efficiency(h_eff: np.ndarray, f: np.ndarray, w: np.ndarray,
                        sigma2: float) -> float | np.ndarray:
    """Rate log2 det(I + (1/sigma2) (W)^+ H F F^H H^H W) in bits/s/Hz.

    Only the combiner's column space counts: with U_W its left singular
    vectors, the rate is that of the Hermitian form S^H S, S = U_W^H H F,
    accumulated in the log domain. One SVD of W gives both U_W and the rank
    test (numpy's matrix_rank tolerance). On stacks of channels, precoders
    and combiners it returns one rate per matrix.
    """
    w = np.asarray(w)
    u, sv, _ = np.linalg.svd(w, full_matrices=False)
    tol = sv[..., :1] * max(w.shape[-2:]) * np.finfo(sv.dtype).eps   # sv is descending
    if np.any(np.count_nonzero(sv > tol, axis=-1) < w.shape[-1]):
        raise CombinerRankError("combiner must have full column rank")
    s = u.conj().swapaxes(-1, -2) @ (h_eff @ f)
    eigs = np.clip(np.linalg.eigvalsh(s.conj().swapaxes(-1, -2) @ s), 0.0, None)
    rates = np.sum(np.log2(1.0 + eigs / sigma2), axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def truncated_condition_number(h_eff: np.ndarray, n_streams: int,
                               sigma: np.ndarray | None = None) -> float | np.ndarray:
    """(sigma_1 / sigma_{N_s})^2 of the cascade channel, or of each channel
    of a stack.

    `sigma` holds the leading singular values of h_eff, descending, when a
    caller has them already; otherwise they are computed.
    """
    s = np.linalg.svd(h_eff, compute_uv=False) if sigma is None else np.asarray(sigma)
    if n_streams > s.shape[-1] or np.any(s[..., n_streams - 1] == 0.0):
        raise CombinerRankError("channel is rank deficient at the stream count")
    cond = np.square(s[..., 0] / s[..., n_streams - 1])
    return float(cond) if cond.ndim == 0 else cond

