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

Each optimizer has a stacked form (`optimize_*_stack`) that descends the
problems of T path cores of one shape in one `manifold.ccm_descent_stack`
loop, with stacked products and SVDs; a row's result equals its result
alone, bit for bit, and the single-core optimizers are stacks of one. The
rate and spgm objectives and gradients take one phase vector or a (T, M)
stack against a problem with as many rows.

`coupling_matrix` exposes the D matrix and the off-diagonal diagnostic
ratio used to check that the optimized phases suppress cross-path leakage.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .channel import (
    ArrayGeometry,
    LinkBudget,
    PathCore,
    PathSet,
    path_core,
    sort_paths_descending,
)
from .manifold import (
    DescentConfig,
    PhaseVector,
    StackDescent,
    ccm_descent_stack,
    row_dot,
    row_norm,
)
from .manifold import ccm_descent  # noqa: F401 -- unused; perfbench/spans.py rebinds it

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
    return float(_tsvd_stack(_tsvd_data(prob), v[None])[0][0])


def tsvd_euclidean_gradient(v: np.ndarray, prob: TsvdProblem) -> np.ndarray:
    """Wirtinger gradient of `tsvd_objective` with respect to v."""
    return _tsvd_stack(_tsvd_data(prob), v[None])[1]()[0]


def _tsvd_data(prob: TsvdProblem) -> tuple[np.ndarray, np.ndarray]:
    return prob.diag_vectors[None], np.asarray(prob.weights)[None]


def _tsvd_stack(data, v: np.ndarray):
    """The surrogate of each row and its gradient function (`StackObjective`);
    data = (diagonal composite vectors (T, N_s, M), weights (T, N_s))."""
    diag, weights = data
    d = (diag @ v.conj()[:, :, None])[:, :, 0]       # v^H p^{ii} per stream
    gain = weights * np.abs(d) ** 2

    def gradient():
        coeff = 2.0 * weights * d.conj() / (_LN2 * (1.0 + gain))
        return -(coeff[:, :, None] * diag).sum(axis=1)

    return -np.sum(np.log2(1.0 + gain), axis=1), gradient


@dataclass(frozen=True)
class RateProblem:
    """The truncated-SVD rates of T cascade channels, on their path cores.

    Every array has one row per channel; the cores share one shape.
    """

    bank: np.ndarray   # (T, L * P, M)
    left: np.ndarray   # (T, min(N_r, L), L)
    right: np.ndarray  # (T, P, min(N_t, P))
    snr: np.ndarray    # (T,) rho / (N_s sigma^2)
    n_streams: int

    @property
    def data(self) -> tuple[np.ndarray, ...]:
        return self.bank, self.left, self.right, self.snr


def build_rate_problem(core: PathCore, budget: LinkBudget,
                       n_streams: int) -> RateProblem:
    """The one-row rate problem of `core` with the equal per-stream power split."""
    return stack_rate_problems([core], [budget], n_streams)


def stack_rate_problems(cores: Sequence[PathCore], budgets: Sequence[LinkBudget],
                        n_streams: int) -> RateProblem:
    """The rate problem of each (core, budget) pair, one row each."""
    for core in cores:
        if n_streams > min(core.left.shape + core.right.shape):
            raise StreamCountError("n_streams exceeds the rank of the cascade channel")
    return RateProblem(
        bank=np.stack([core.bank for core in cores]),
        left=np.stack([core.left for core in cores]),
        right=np.stack([core.right for core in cores]),
        snr=np.array([b.tx_power / (n_streams * b.noise_power) for b in budgets]),
        n_streams=n_streams)


def rate_objective(v: np.ndarray, prob: RateProblem):
    """Negated rate -sum_{k <= N_s} log2(1 + snr sigma_k^2) of the cascade channel.

    One value for one phase vector and a one-row problem; a (T,) array for a
    (T, M) stack of phase vectors, one per row of `prob`.
    """
    values = _rate_stack(prob.n_streams, prob.data, np.atleast_2d(v))[0]
    return float(values[0]) if v.ndim == 1 else values


def rate_euclidean_gradient(v: np.ndarray, prob: RateProblem) -> np.ndarray:
    """Wirtinger gradient of `rate_objective`, shaped like v; needs
    sigma_{N_s} > sigma_{N_s + 1}."""
    grad = _rate_stack(prob.n_streams, prob.data, np.atleast_2d(v))[1]()
    return grad[0] if v.ndim == 1 else grad


def _rate_stack(n_streams: int, data, v: np.ndarray):
    """The rate of each row and its gradient function (`StackObjective`), both
    from one SVD of the core: d sigma_k = Re(u_k^H left dX right w_k) for the
    k-th singular triple, and dX[i, j] = dv^H p^{ij}."""
    bank, left, right, snr = data
    x = (bank @ v.conj()[:, :, None]).reshape(len(v), left.shape[2], right.shape[1])
    u, sigma, vh = np.linalg.svd(left @ x @ right, full_matrices=False)
    k = n_streams
    sigma = sigma[:, :k]
    gain = snr[:, None] * sigma ** 2

    def gradient():
        lu = left.conj().transpose(0, 2, 1) @ u[:, :, :k]      # (n, L, N_s)
        rw = right @ vh[:, :k].conj().transpose(0, 2, 1)       # (n, P, N_s)
        slope = 2.0 * snr[:, None] * sigma / (_LN2 * (1.0 + gain))
        coeff = (lu.conj() * slope[:, None, :]) @ rw.transpose(0, 2, 1)  # (n, L, P)
        return -(coeff.reshape(len(coeff), 1, -1) @ bank)[:, 0]

    return -np.sum(np.log2(1.0 + gain), axis=1), gradient


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
    return optimize_tsvd_stack([core], np.asarray(weights)[None], cfg, [rng]).row(0)


def optimize_tsvd_stack(cores: Sequence[PathCore], weights: np.ndarray, cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_tsvd` for each core, row of `weights` (T, N_s) and generator."""
    diag = np.stack([tsvd_problem(core, w).diag_vectors for core, w in zip(cores, weights)])
    v0 = np.stack([random_phases(rng, core.m).entries for core, rng in zip(cores, rngs)])
    return ccm_descent_stack(_tsvd_stack, (diag, np.array(weights, dtype=float)), v0, cfg)


def optimize_rate(core: PathCore, budget: LinkBudget, n_streams: int,
                  cfg: DescentConfig, v0: PhaseVector) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate of the cascade channel from v0.

    The surrogate of `optimize_tsvd` reads sigma_i as |beta_i alpha_i
    v^H p^{ii}|, which holds when the steering vectors of the strongest paths
    are near-orthogonal; this objective keeps every path and their overlaps.
    """
    return optimize_rate_stack([core], [budget], n_streams, cfg, v0.entries[None]).row(0)


def optimize_rate_stack(cores: Sequence[PathCore], budgets: Sequence[LinkBudget],
                        n_streams: int, cfg: DescentConfig, v0: np.ndarray) -> StackDescent:
    """`optimize_rate` for each core and budget, from the rows of v0 (T, M)."""
    prob = stack_rate_problems(cores, budgets, n_streams)
    return ccm_descent_stack(partial(_rate_stack, n_streams), prob.data, v0, cfg)


@dataclass(frozen=True)
class SpgmProblem:
    """The sum-path gains ||H||_F^2 of T cascade channels as functions of
    w = conj(v), on their path cores.

    X(v) = reshape(bank w) is linear in w, so vec(left X right) = F w with
    F = (left kron right^T) bank, of size min(N_r, L) min(N_t, P) x M, and
    ||H||_F^2 = ||F w||^2 is the quadratic form g^2 w^H Q w of the dense
    formulation, Q = (R^H R) o (conj(G) G^T), which is never formed. F is
    divided by its Frobenius norm: ||F||_F^2 = g^2 tr Q is the mean of
    ||H||_F^2 over uniformly random phases, so the maximizer is unchanged
    but the objective no longer carries the path loss, and the descent's
    absolute stop gap means the same at any channel scale.
    """

    f: np.ndarray  # (T, min(N_r, L) * min(N_t, P), M), each of unit Frobenius norm


def build_spgm_problem(core: PathCore) -> SpgmProblem:
    """The one-row problem: the normalized F of `core`."""
    return stack_spgm_problems([core])


def stack_spgm_problems(cores: Sequence[PathCore]) -> SpgmProblem:
    """The normalized F of each core, one row each."""
    left = np.stack([core.left for core in cores])
    right_t = np.stack([core.right.T for core in cores])
    n, l_out, l_in = left.shape
    _, p_out, p_in = right_t.shape
    # left kron right^T per core, as np.kron forms it
    kron = (left[:, :, None, :, None] * right_t[:, None, :, None, :]).reshape(
        n, l_out * p_out, l_in * p_in)
    f = np.empty((n, l_out * p_out, cores[0].m), dtype=complex)
    for k, core in enumerate(cores):   # no stacked copy of the banks
        np.matmul(kron[k], core.bank, out=f[k])
    f /= row_norm(f.reshape(n, -1))[:, None, None]
    return SpgmProblem(f=f)


def spgm_objective(w: np.ndarray, prob: SpgmProblem):
    """Negated normalized sum-path gain -||H||_F^2 / (g^2 tr Q) at w = conj(v);
    one value for one vector, a (T,) array for a (T, M) stack."""
    values = _spgm_stack((prob.f,), np.atleast_2d(w))[0]
    return float(values[0]) if w.ndim == 1 else values


def spgm_euclidean_gradient(w: np.ndarray, prob: SpgmProblem) -> np.ndarray:
    """Wirtinger gradient of `spgm_objective` with respect to w, shaped like w."""
    grad = _spgm_stack((prob.f,), np.atleast_2d(w))[1]()
    return grad[0] if w.ndim == 1 else grad


def _spgm_stack(data, w: np.ndarray):
    """-||F w||^2 of each row and its gradient function -2 F^H F w (`StackObjective`)."""
    (f,) = data
    fw = (f @ w[:, :, None])[:, :, 0]
    return -row_dot(fw, fw), lambda: -2.0 * (fw[:, None].conj() @ f)[:, 0].conj()


def optimize_spgm(core: PathCore, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[PhaseVector, list[float]]:
    """Maximize ||H(v)||_F^2 over the LIS phases by manifold ascent in w = conj(v).

    Returns v = conj(w) and the descent's objective trace (`SpgmProblem`).
    """
    return optimize_spgm_stack([core], cfg, [rng]).row(0)


def optimize_spgm_stack(cores: Sequence[PathCore], cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_spgm` for each core and generator; the points are v = conj(w)."""
    prob = stack_spgm_problems(cores)
    w0 = np.stack([random_phases(rng, core.m).entries for core, rng in zip(cores, rngs)])
    result = ccm_descent_stack(_spgm_stack, (prob.f,), w0, cfg)
    return replace(result, points=result.points.conj())


def coupling_matrix(v: np.ndarray, paths: PathSet, core: PathCore) -> CouplingMatrix:
    """Evaluate every passive beamforming gain d_ij = v^H p^{ij} at phase entries v.

    `core` must be the path core of `paths`.
    """
    if core.n_lis_ue != paths.n_lis_ue or core.n_bs_lis != paths.n_bs_lis:
        raise ValueError("paths and path core are inconsistent")
    gains = core.gains(v)
    d = paths.lis_ue_gain[:, None] * paths.bs_lis_gain[None, :] * gains
    return CouplingMatrix(d=d, gains=gains)
