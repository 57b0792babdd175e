"""Digital-optimal and hybrid precoder/combiner construction.

The fully digital optimum comes from the truncated SVD of the cascade
channel with an equal power split (water-filling is available as a library
function). The hybrid factorization approximates that optimum with a
unit-modulus analog matrix times a small digital matrix: it alternates the
least-squares digital update, solved on the n_rf x n_rf Gram matrix of the
analog matrix, with closed-form column-wise phase updates of the analog
matrix (Sohrabi & Yu, IEEE JSTSP 2016), computed from the small products
target F_BB^H and F_BB F_BB^H rather than from an explicit residual matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import DescentConfig
from .manifold import ccm_descent  # noqa: F401 -- unused; perfbench/spans.py rebinds it
from .passive_bf import random_phases


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


def _digital_stage(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares F_BB for F_RF = rows.T, from the n_rf x n_rf normal equations."""
    rows_h = rows.conj()
    return np.linalg.solve(rows_h @ rows.T, rows_h @ target)


def hybrid_factorize(target: np.ndarray, n_rf: int, cfg: DescentConfig,
                     rng: np.random.Generator,
                     power_norm: float | None = None,
                     max_alternations: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Factor `target` (N x N_s) into unit-modulus analog x digital matrices.

    Starts from random analog phases and alternates two exact block updates
    of ||target - F_RF F_BB||_F until the relative residual change drops
    below cfg.epsilon (at most `max_alternations` rounds):
    - F_BB = (F_RF^H F_RF)^-1 F_RF^H target, the least-squares digital stage,
      solved on the n_rf x n_rf Gram matrix (raises LinAlgError if singular);
    - one Gauss-Seidel pass over the analog columns. With the other columns
      and F_BB fixed, the residual separates by rows of F_RF, so column k's
      best unit-modulus entries are exp(j arg(D F_BB[k]^H)), where D is the
      residual with column k's own contribution added back. With
      A = target F_BB^H and B = F_BB F_BB^H formed once per pass,
      D F_BB[k]^H = A[:, k] - F_RF B[:, k] + F_RF[:, k] B[k, k], so the
      N x N_s residual is never updated column by column.
    Neither step can increase the residual. The digital stage is solved once
    more for the final analog matrix. When `power_norm` is given (precoder
    side), the digital matrix is rescaled so the product has squared
    Frobenius norm power_norm.
    """
    target = np.asarray(target)
    n, n_streams = target.shape
    if not (n_streams <= n_rf <= n):
        raise ValueError("need N_s <= n_rf <= N")

    # the analog columns, kept as contiguous rows of F_RF^T
    rows = random_phases(rng, n * n_rf).entries.reshape(n, n_rf).T.copy()
    prev_residual = np.inf
    for _ in range(max_alternations):
        f_bb = _digital_stage(rows, target)
        a_rows = f_bb.conj() @ target.T   # row k is A[:, k]
        b = f_bb @ f_bb.conj().T
        for k in range(n_rf):
            col = a_rows[k] - b[:, k] @ rows + rows[k] * b[k, k]
            rows[k] = np.exp(1j * np.angle(col))

        residual = float(np.linalg.norm(target - rows.T @ f_bb))
        denom = max(prev_residual, np.finfo(float).tiny)
        if residual == 0.0 or abs(prev_residual - residual) / denom < cfg.epsilon:
            break
        prev_residual = residual

    f_rf = np.ascontiguousarray(rows.T)
    f_bb = _digital_stage(rows, target)
    if power_norm is not None:
        norm = np.linalg.norm(f_rf @ f_bb)
        if norm == 0:
            raise RankError("degenerate factorization; cannot normalize power")
        f_bb = f_bb * (np.sqrt(power_norm) / norm)
    return f_rf, f_bb
