"""Digital-optimal and hybrid precoder/combiner construction.

The fully digital optimum comes from the truncated SVD of the cascade
channel with an equal power split (water-filling is available as a library
function). The hybrid factorization approximates that optimum with a
unit-modulus analog matrix times a small digital matrix: it alternates the
least-squares digital update with closed-form column-wise phase updates of
the analog matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import DescentConfig
from .manifold import ccm_descent  # noqa: F401 -- unused; perfbench/spans.py rebinds it
from .passive_bf import random_phases

PINV_RTOL = 1e-12


class RankError(ValueError):
    """The channel does not support the requested stream count."""


@dataclass(frozen=True)
class TruncatedSvd:
    """Top-N_s singular triplets of a channel matrix."""

    u1: np.ndarray      # (N_r, N_s)
    sigma1: np.ndarray  # (N_s,) descending
    v1: np.ndarray      # (N_t, N_s)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-stream powers summing to the budget, plus the water level."""

    powers: np.ndarray
    water_level: float


def truncated_svd(h: np.ndarray, n_streams: int) -> TruncatedSvd:
    """Best rank-N_s factors of h, singular values descending."""
    h = np.asarray(h)
    if n_streams > min(h.shape):
        raise ValueError("n_streams exceeds the matrix rank bound")
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("channel matrix has non-finite entries")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return TruncatedSvd(u1=u[:, :n_streams], sigma1=s[:n_streams],
                        v1=vh[:n_streams].conj().T)


def water_filling(sigma1: np.ndarray, rho: float, sigma2_noise: float) -> PowerAllocation:
    """Classic water-filling over parallel channels with gains sigma1^2.

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
    n = len(sigma1)
    for k in range(n, 0, -1):
        if not np.all(np.isfinite(inv_gain[:k])):
            continue
        level = (rho + inv_gain[:k].sum()) / k
        if level > inv_gain[k - 1]:
            powers = np.maximum(level - inv_gain, 0.0)
            powers[k:] = 0.0
            return PowerAllocation(powers=powers, water_level=level)
    raise RankError("water-filling found no feasible support")


def digital_precoder(svd: TruncatedSvd, rho: float,
                     alloc: PowerAllocation | None = None) -> np.ndarray:
    """V_1 scaled per-stream: equal power when alloc is None, else sqrt(p_i)."""
    if alloc is None:
        return np.sqrt(rho / svd.v1.shape[1]) * svd.v1
    return svd.v1 * np.sqrt(alloc.powers)[None, :]


def digital_combiner(svd: TruncatedSvd) -> np.ndarray:
    """The left singular block U_1."""
    return svd.u1


def _pinv(a: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(a, rcond=PINV_RTOL)


def hybrid_factorize(target: np.ndarray, n_rf: int, cfg: DescentConfig,
                     rng: np.random.Generator,
                     power_norm: float | None = None,
                     max_alternations: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Factor `target` (N x N_s) into unit-modulus analog x digital matrices.

    Starts from random analog phases and alternates two exact block updates
    of ||target - F_RF F_BB||_F until the relative residual change drops
    below cfg.epsilon (at most `max_alternations` rounds):
    - F_BB = pinv(F_RF) target, the least-squares digital stage;
    - one pass over the analog columns. With the other columns and F_BB
      fixed, the residual separates by rows of F_RF, so column k's best
      unit-modulus entries are exp(j arg(D F_BB[k]^H)), where D is the
      residual with column k's own contribution added back.
    Neither step can increase the residual. The digital stage is solved once
    more for the final analog matrix. When `power_norm` is given (precoder
    side), the digital matrix is rescaled so the product has squared
    Frobenius norm power_norm.
    """
    target = np.asarray(target)
    n, n_streams = target.shape
    if not (n_streams <= n_rf <= n):
        raise ValueError("need N_s <= n_rf <= N")

    f_rf = random_phases(rng, n * n_rf).entries.reshape(n, n_rf)
    prev_residual = np.inf
    for _ in range(max_alternations):
        f_bb = _pinv(f_rf) @ target
        diff = target - f_rf @ f_bb
        for k in range(n_rf):
            diff += np.outer(f_rf[:, k], f_bb[k])
            f_rf[:, k] = np.exp(1j * np.angle(diff @ f_bb[k].conj()))
            diff -= np.outer(f_rf[:, k], f_bb[k])

        residual = float(np.linalg.norm(diff))
        denom = max(prev_residual, np.finfo(float).tiny)
        if residual == 0.0 or abs(prev_residual - residual) / denom < cfg.epsilon:
            break
        prev_residual = residual

    f_bb = _pinv(f_rf) @ target
    if power_norm is not None:
        norm = np.linalg.norm(f_rf @ f_bb)
        if norm == 0:
            raise RankError("degenerate factorization; cannot normalize power")
        f_bb = f_bb * (np.sqrt(power_norm) / norm)
    return f_rf, f_bb
