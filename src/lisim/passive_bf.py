"""Passive-beamforming objectives and solvers for the LIS phase vector.

Three optimizers share the manifold engine:
- `optimize_tsvd` maximizes the per-stream composite-path rate surrogate
  sum_i log2(1 + a_i |v^H p^{ii}|^2) over the top-N_s sorted paths;
- `optimize_rate` maximizes the truncated-SVD rate
  sum_{k <= N_s} log2(1 + rho sigma_k^2 / (N_s sigma^2)) of the cascade
  channel itself, evaluated on its L x P path core; the harness starts it
  from the `optimize_tsvd` solution;
- `optimize_spgm` maximizes the Frobenius norm of the cascade channel
  (the sum-path-gain baseline) via the quadratic form w^H Q w, with Q
  normalized by its trace so the descent runs to convergence.

`coupling_matrix` exposes the D matrix and the off-diagonal diagnostic
ratio used to check that the optimized phases suppress cross-path leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ArrayGeometry,
    CompositePathBank,
    LinkBudget,
    MmWaveChannel,
    PathSet,
    composite_path_vectors,
    sort_paths_descending,
    ula_responses,
)
from .manifold import DescentConfig, PhaseVector, ccm_descent

_LN2 = np.log(2.0)


class StreamCountError(ValueError):
    """Requested more streams than available composite paths."""


@dataclass(frozen=True)
class TsvdProblem:
    """Diagonal composite vectors p^{ii} plus per-stream effective SNRs."""

    diag_vectors: np.ndarray  # (N_s, M)
    weights: np.ndarray       # (N_s,) positive

    def __post_init__(self):
        if self.diag_vectors.ndim != 2 or len(self.weights) != len(self.diag_vectors):
            raise ValueError("need one weight per diagonal composite vector")
        if np.any(np.asarray(self.weights) < 0):
            raise ValueError("weights must be non-negative")

    @property
    def n_streams(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CouplingMatrix:
    """Path-coupling matrix D(i,j) = beta_i alpha_j d_ij and the raw gains d_ij."""

    d: np.ndarray      # (L, P) complex, beta_i alpha_j v^H p^{ij}
    gains: np.ndarray  # (L, P) complex, v^H p^{ij}

    def offdiag_ratio(self, n_streams: int) -> float:
        """mean |d_ij| off the diagonal over mean |d_ii|, top-N_s block."""
        block = np.abs(self.gains[:n_streams, :n_streams])
        diag = np.mean(np.diag(block))
        off = block[~np.eye(n_streams, dtype=bool)]
        if off.size == 0:
            return 0.0
        return float(np.mean(off) / diag)


def tsvd_objective(v: np.ndarray, prob: TsvdProblem) -> float:
    """Negated rate surrogate -sum_i log2(1 + a_i |v^H p^{ii}|^2)."""
    return _tsvd_and_gradient(v, prob)[0]


def tsvd_euclidean_gradient(v: np.ndarray, prob: TsvdProblem) -> np.ndarray:
    """Wirtinger gradient of `tsvd_objective` with respect to v."""
    return _tsvd_and_gradient(v, prob)[1]


def _tsvd_and_gradient(v, prob: TsvdProblem) -> tuple[float, np.ndarray]:
    entries = np.asarray(getattr(v, "entries", v))
    d = prob.diag_vectors @ entries.conj()          # v^H p^{ii} per stream
    gain = prob.weights * np.abs(d) ** 2
    coeff = 2.0 * prob.weights * d.conj() / (_LN2 * (1.0 + gain))
    return (float(-np.sum(np.log2(1.0 + gain))),
            -(coeff[:, None] * prob.diag_vectors).sum(axis=0))


def _descent_pair(evaluate):
    """(f, grad) for `ccm_descent` from one function returning both.

    ccm_descent asks for the gradient only at the point it has just
    accepted, which is the point f evaluated last, so grad reuses it.
    """
    last = [None, None]  # the point f saw last and the gradient there

    def f(v):
        value, last[1] = evaluate(v)
        last[0] = v
        return value

    def grad(v):
        if v is not last[0]:
            f(v)
        return last[1]

    return f, grad


@dataclass(frozen=True)
class RateProblem:
    """Cascade channel H(v) = Q_u (left X(v) right) Q_b^H in its path core.

    X(v)[i, j] = v^H p^{ij} is L x P; `left` = g T_u diag(beta) and `right` =
    diag(alpha) T_b^H, with Q T = A the QR factorizations of the UE and BS
    steering matrices and g the product of the scalar antenna gains, so H(v)
    and the core left X(v) right share their singular values.
    """

    vectors: np.ndarray  # (L * P, M), row i * P + j holds p^{ij}
    left: np.ndarray     # (min(N_r, L), L)
    right: np.ndarray    # (P, min(N_t, P))
    snr: float           # rho / (N_s sigma^2)
    n_streams: int

    def core(self, v: np.ndarray) -> np.ndarray:
        """The core left X(v) right at phase entries v."""
        x = (self.vectors @ v.conj()).reshape(self.left.shape[1], -1)
        return self.left @ x @ self.right


def build_rate_problem(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                       n_streams: int, tx_gain: float = 1.0,
                       rx_gain: float = 1.0) -> RateProblem:
    """Factor the cascade channel of `paths` into its path core."""
    if n_streams > min(paths.n_bs_lis, paths.n_lis_ue, geometry.n_tx, geometry.n_rx):
        raise StreamCountError("n_streams exceeds the rank of the cascade channel")
    s = geometry.spacing_ratio
    t_u = np.linalg.qr(ula_responses(paths.lis_ue_aoa, geometry.n_rx, s).T, mode="r")
    t_b = np.linalg.qr(ula_responses(paths.bs_lis_aod, geometry.n_tx, s).T, mode="r")
    bank = composite_path_vectors(paths, geometry).vectors
    return RateProblem(
        vectors=bank.reshape(-1, bank.shape[-1]),
        left=tx_gain * rx_gain * t_u * paths.lis_ue_gain[None, :],
        right=t_b.conj().T * paths.bs_lis_gain[:, None],
        snr=budget.tx_power / (n_streams * budget.noise_power),
        n_streams=n_streams)


def rate_objective(v: np.ndarray, prob: RateProblem) -> float:
    """Negated rate -sum_{k <= N_s} log2(1 + snr sigma_k^2) of the cascade channel."""
    return _rate_and_gradient(v, prob)[0]


def rate_euclidean_gradient(v: np.ndarray, prob: RateProblem) -> np.ndarray:
    """Wirtinger gradient of `rate_objective`; needs sigma_{N_s} > sigma_{N_s + 1}."""
    return _rate_and_gradient(v, prob)[1]


def _rate_and_gradient(v: np.ndarray, prob: RateProblem) -> tuple[float, np.ndarray]:
    """Both from one SVD of the core: d sigma_k = Re(u_k^H left dX right w_k)
    for the k-th singular triple, and dX[i, j] = dv^H p^{ij}."""
    u, sigma, vh = np.linalg.svd(prob.core(v), full_matrices=False)
    k = prob.n_streams
    sigma = sigma[:k]
    gain = prob.snr * sigma ** 2
    lu = prob.left.conj().T @ u[:, :k]        # (L, N_s)
    rw = prob.right @ vh[:k].conj().T         # (P, N_s)
    slope = 2.0 * prob.snr * sigma / (_LN2 * (1.0 + gain))
    coeff = (lu.conj() * slope) @ rw.T          # (L, P)
    return float(-np.sum(np.log2(1.0 + gain))), -(coeff.reshape(-1) @ prob.vectors)


def random_phases(rng: np.random.Generator, m: int) -> PhaseVector:
    """Unit-modulus vector with independent Uniform(0, 2pi) phases."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return PhaseVector(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m)))


def stream_weights(paths: PathSet, budget: LinkBudget, n_streams: int,
                   tx_gain: float = 1.0, rx_gain: float = 1.0) -> np.ndarray:
    """Per-stream effective SNRs a_i = rho |g alpha_i beta_i|^2 / (N_s sigma^2).

    `paths` must already be sorted descending; the scalar antenna gains enter
    because they scale the cascade channel the rates are evaluated on.
    """
    alpha = paths.bs_lis_gain[:n_streams]
    beta = paths.lis_ue_gain[:n_streams]
    scale = (tx_gain * rx_gain) ** 2
    return budget.tx_power * scale * np.abs(alpha * beta) ** 2 / (
        n_streams * budget.noise_power)


def build_tsvd_problem(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                       n_streams: int, tx_gain: float = 1.0,
                       rx_gain: float = 1.0) -> TsvdProblem:
    """Sort paths, pair the strongest N_s, and collect p^{ii} plus weights."""
    if n_streams > min(paths.n_bs_lis, paths.n_lis_ue):
        raise StreamCountError("n_streams exceeds the available path count")
    paths = sort_paths_descending(paths)
    bank = composite_path_vectors(paths, geometry)
    diag = np.stack([bank.vectors[i, i] for i in range(n_streams)])
    weights = stream_weights(paths, budget, n_streams, tx_gain, rx_gain)
    return TsvdProblem(diag_vectors=diag, weights=weights)


def optimize_tsvd(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                  n_streams: int, cfg: DescentConfig, rng: np.random.Generator,
                  tx_gain: float = 1.0, rx_gain: float = 1.0,
                  ) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate surrogate from a random start."""
    prob = build_tsvd_problem(paths, geometry, budget, n_streams, tx_gain, rx_gain)
    v0 = random_phases(rng, geometry.m)
    return ccm_descent(*_descent_pair(lambda v: _tsvd_and_gradient(v, prob)), v0, cfg)


def optimize_rate(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                  n_streams: int, cfg: DescentConfig, v0: PhaseVector,
                  tx_gain: float = 1.0, rx_gain: float = 1.0,
                  ) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate of the cascade channel from v0.

    The surrogate of `optimize_tsvd` reads sigma_i as |beta_i alpha_i
    v^H p^{ii}|, which holds when the steering vectors of the strongest paths
    are near-orthogonal; this objective keeps every path and their overlaps.
    """
    prob = build_rate_problem(paths, geometry, budget, n_streams, tx_gain, rx_gain)
    return ccm_descent(*_descent_pair(lambda v: _rate_and_gradient(v, prob)), v0, cfg)


def optimize_spgm(channel: MmWaveChannel, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[PhaseVector, list[float]]:
    """Maximize tr(H_eff H_eff^H) over the LIS phases.

    Uses tr(Phi^H R^H R Phi G G^H) = w^H Q w with w_m = e^{j phi_m} and
    Q = (R^H R) o (G G^H)^T = (R^H R) o (conj(G) G^T), solved by manifold
    ascent; returns v = conj(w) and the descent's objective trace.
    Q is divided by its positive real trace first: the maximizer is
    unchanged, but the objective no longer carries the path loss, so the
    descent's absolute stop gap means the same at any channel scale.
    """
    q = (channel.r.conj().T @ channel.r) * (channel.g.conj() @ channel.g.T)
    q = q / np.real(np.trace(q))

    def evaluate(w):
        qw = q @ w
        return float(-np.real(np.vdot(w, qw))), -2.0 * qw

    w0 = random_phases(rng, channel.m)
    w_opt, trace = ccm_descent(*_descent_pair(evaluate), w0, cfg)
    return PhaseVector(w_opt.entries.conj()), trace


def coupling_matrix(v: np.ndarray, paths: PathSet,
                    composite: CompositePathBank) -> CouplingMatrix:
    """Evaluate every passive beamforming gain d_ij = v^H p^{ij} at v."""
    entries = np.asarray(getattr(v, "entries", v))
    l, p, m = composite.vectors.shape
    if entries.shape != (m,) or l != paths.n_lis_ue or p != paths.n_bs_lis:
        raise ValueError("phase vector / paths / composite bank are inconsistent")
    gains = composite.vectors @ entries.conj()
    d = paths.lis_ue_gain[:, None] * paths.bs_lis_gain[None, :] * gains
    return CouplingMatrix(d=d, gains=gains)
