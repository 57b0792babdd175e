"""Passive-beamforming objectives and solvers for the LIS phase vector.

Three optimizers share the manifold engine, and all three work on the
L x P path core of the cascade channel (`channel.PathCore`):
- `optimize_tsvd` maximizes the per-stream composite-path rate surrogate
  sum_i log2(1 + a_i |v^H p^{ii}|^2) over the top-N_s sorted paths;
- `optimize_rate` maximizes the truncated-SVD rate
  sum_{k <= N_s} log2(1 + rho sigma_k^2 / (N_s sigma^2)) of the cascade
  channel itself; the harness starts it from the `optimize_tsvd` solution;
- `optimize_spgm` maximizes the Frobenius norm of the cascade channel
  (the sum-path-gain baseline), normalized by its mean over uniformly
  random phases so the descent runs to convergence.

`coupling_matrix` exposes the D matrix and the off-diagonal diagnostic
ratio used to check that the optimized phases suppress cross-path leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ArrayGeometry,
    LinkBudget,
    PathCore,
    PathSet,
    path_core,
    sort_paths_descending,
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


def _tsvd_and_gradient(v: np.ndarray, prob: TsvdProblem) -> tuple[float, np.ndarray]:
    d = prob.diag_vectors @ v.conj()                # v^H p^{ii} per stream
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
    """The truncated-SVD rate of the cascade channel, on its path core."""

    core: PathCore
    snr: float           # rho / (N_s sigma^2)
    n_streams: int


def build_rate_problem(core: PathCore, budget: LinkBudget,
                       n_streams: int) -> RateProblem:
    """The rate problem of `core` with the equal per-stream power split."""
    if n_streams > min(core.left.shape + core.right.shape):
        raise StreamCountError("n_streams exceeds the rank of the cascade channel")
    return RateProblem(core=core,
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
    core = prob.core
    u, sigma, vh = np.linalg.svd(core.at(v), full_matrices=False)
    k = prob.n_streams
    sigma = sigma[:k]
    gain = prob.snr * sigma ** 2
    lu = core.left.conj().T @ u[:, :k]        # (L, N_s)
    rw = core.right @ vh[:k].conj().T         # (P, N_s)
    slope = 2.0 * prob.snr * sigma / (_LN2 * (1.0 + gain))
    coeff = (lu.conj() * slope) @ rw.T          # (L, P)
    return float(-np.sum(np.log2(1.0 + gain))), -(coeff.reshape(-1) @ core.bank)


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
    if n_streams > min(paths.n_bs_lis, paths.n_lis_ue):
        raise StreamCountError("n_streams exceeds the available path count")
    alpha = paths.bs_lis_gain[:n_streams]
    beta = paths.lis_ue_gain[:n_streams]
    scale = (tx_gain * rx_gain) ** 2
    return budget.tx_power * scale * np.abs(alpha * beta) ** 2 / (
        n_streams * budget.noise_power)


def tsvd_problem(core: PathCore, weights: np.ndarray) -> TsvdProblem:
    """Pair path i with path i for the first len(weights) paths of `core`.

    `core` must come from paths sorted descending, so the pairs are the
    strongest ones (the ordering lemma), and `weights` from `stream_weights`.
    """
    idx = np.arange(len(weights))
    bank = core.bank.reshape(core.n_lis_ue, core.n_bs_lis, core.m)
    return TsvdProblem(diag_vectors=bank[idx, idx], weights=weights)


def build_tsvd_problem(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                       n_streams: int, tx_gain: float = 1.0,
                       rx_gain: float = 1.0) -> TsvdProblem:
    """Sort paths, pair the strongest N_s, and collect p^{ii} plus weights."""
    paths = sort_paths_descending(paths)
    weights = stream_weights(paths, budget, n_streams, tx_gain, rx_gain)
    return tsvd_problem(path_core(paths, geometry), weights)


def optimize_tsvd(core: PathCore, weights: np.ndarray, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate surrogate from a random start.

    `core` and `weights` are as for `tsvd_problem`.
    """
    prob = tsvd_problem(core, weights)
    v0 = random_phases(rng, core.m)
    return ccm_descent(*_descent_pair(lambda v: _tsvd_and_gradient(v, prob)), v0, cfg)


def optimize_rate(core: PathCore, budget: LinkBudget, n_streams: int,
                  cfg: DescentConfig, v0: PhaseVector) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate of the cascade channel from v0.

    The surrogate of `optimize_tsvd` reads sigma_i as |beta_i alpha_i
    v^H p^{ii}|, which holds when the steering vectors of the strongest paths
    are near-orthogonal; this objective keeps every path and their overlaps.
    """
    prob = build_rate_problem(core, budget, n_streams)
    return ccm_descent(*_descent_pair(lambda v: _rate_and_gradient(v, prob)), v0, cfg)


@dataclass(frozen=True)
class SpgmProblem:
    """The sum-path gain ||H||_F^2 as a function of w = conj(v), on the path core.

    X(v) = reshape(bank w) is linear in w, so vec(left X right) = F w with
    F = (left kron right^T) bank, of size min(N_r, L) min(N_t, P) x M, and
    ||H||_F^2 = ||F w||^2 is the quadratic form g^2 w^H Q w of the dense
    formulation, Q = (R^H R) o (conj(G) G^T), which is never formed. F is
    divided by its Frobenius norm: ||F||_F^2 = g^2 tr Q is the mean of
    ||H||_F^2 over uniformly random phases, so the maximizer is unchanged
    but the objective no longer carries the path loss, and the descent's
    absolute stop gap means the same at any channel scale.
    """

    f: np.ndarray  # (min(N_r, L) * min(N_t, P), M), unit Frobenius norm


def build_spgm_problem(core: PathCore) -> SpgmProblem:
    """Form the normalized F of `core`."""
    f = np.kron(core.left, core.right.T) @ core.bank
    return SpgmProblem(f=f / np.linalg.norm(f))


def spgm_objective(w: np.ndarray, prob: SpgmProblem) -> float:
    """Negated normalized sum-path gain -||H||_F^2 / (g^2 tr Q) at w = conj(v)."""
    return _spgm_and_gradient(w, prob)[0]


def spgm_euclidean_gradient(w: np.ndarray, prob: SpgmProblem) -> np.ndarray:
    """Wirtinger gradient of `spgm_objective` with respect to w."""
    return _spgm_and_gradient(w, prob)[1]


def _spgm_and_gradient(w: np.ndarray, prob: SpgmProblem) -> tuple[float, np.ndarray]:
    """-||F w||^2 and its Wirtinger gradient -2 F^H F w."""
    fw = prob.f @ w
    return float(-np.vdot(fw, fw).real), -2.0 * (fw.conj() @ prob.f).conj()


def optimize_spgm(core: PathCore, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[PhaseVector, list[float]]:
    """Maximize ||H(v)||_F^2 over the LIS phases by manifold ascent in w = conj(v).

    Returns v = conj(w) and the descent's objective trace (`SpgmProblem`).
    """
    prob = build_spgm_problem(core)
    w0 = random_phases(rng, core.m)
    w_opt, trace = ccm_descent(*_descent_pair(lambda w: _spgm_and_gradient(w, prob)),
                               w0, cfg)
    return PhaseVector(w_opt.entries.conj()), trace


def coupling_matrix(v: np.ndarray, paths: PathSet, core: PathCore) -> CouplingMatrix:
    """Evaluate every passive beamforming gain d_ij = v^H p^{ij} at phase entries v.

    `core` must be the path core of `paths`.
    """
    if core.n_lis_ue != paths.n_lis_ue or core.n_bs_lis != paths.n_bs_lis:
        raise ValueError("paths and path core are inconsistent")
    gains = core.gains(v)
    d = paths.lis_ue_gain[:, None] * paths.bs_lis_gain[None, :] * gains
    return CouplingMatrix(d=d, gains=gains)
