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

Each objective has one problem constructor on a stacked path core, one
row per core. Each optimizer has a stacked form (`optimize_*_stack`) that
descends every row in one `manifold.ccm_descent_stack` loop; a row's result
equals its result alone, bit for bit, and the single-core optimizers run on
a stack of one. The objectives and gradients take one phase vector against
a one-row problem or a (T, M) stack against a problem with as many rows.

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
    """Diagonal composite vectors p^{ii} and per-stream effective SNRs, one row per core."""

    diag_vectors: np.ndarray  # (T, N_s, M)
    weights: np.ndarray       # (T, N_s) non-negative

    def __post_init__(self):
        if self.diag_vectors.ndim != 3 or self.weights.shape != self.diag_vectors.shape[:2]:
            raise ValueError("need one weight per diagonal composite vector")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class CouplingMatrix:
    """Path-coupling matrices D(i,j) = beta_i alpha_j d_ij and the raw gains
    d_ij of T path sets, one row each."""

    d: np.ndarray      # (T, L, P) complex, beta_i alpha_j v^H p^{ij}
    gains: np.ndarray  # (T, L, P) complex, v^H p^{ij}

    def offdiag_ratio(self, n_streams: int) -> np.ndarray:
        """mean |d_ij| off the diagonal over mean |d_ii|, top-N_s block, per row."""
        off = ~np.eye(n_streams, dtype=bool)
        if not off.any():
            return np.zeros(len(self.gains))
        # row by row, so each row's means sum in the order they take alone
        return np.array([np.mean(block[off]) / np.mean(np.diag(block))
                         for block in np.abs(self.gains[:, :n_streams, :n_streams])])


def tsvd_objective(v: np.ndarray, prob: TsvdProblem):
    """Negated rate surrogate -sum_i log2(1 + a_i |v^H p^{ii}|^2); one value
    for one vector, a (T,) array for a (T, M) stack."""
    values = _tsvd_stack((prob.diag_vectors, prob.weights), np.atleast_2d(v))[0]
    return float(values[0]) if v.ndim == 1 else values


def tsvd_euclidean_gradient(v: np.ndarray, prob: TsvdProblem) -> np.ndarray:
    """Wirtinger gradient of `tsvd_objective` with respect to v, shaped like v."""
    grad = _tsvd_stack((prob.diag_vectors, prob.weights), np.atleast_2d(v))[1]()
    return grad[0] if v.ndim == 1 else grad


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

    Every array has one row per channel; bank, left and right are the core's.
    """

    bank: np.ndarray   # (T, L * P, M)
    left: np.ndarray   # (T, min(N_r, L), L)
    right: np.ndarray  # (T, P, min(N_t, P))
    snr: np.ndarray    # (T,) rho / (N_s sigma^2)
    n_streams: int

    @property
    def data(self) -> tuple[np.ndarray, ...]:
        return self.bank, self.left, self.right, self.snr


def build_rate_problem(core: PathCore, budgets: Sequence[LinkBudget],
                       n_streams: int) -> RateProblem:
    """The rate problem of each row of `core` and budget, equal power per stream."""
    if n_streams > min(core.left.shape[1:] + core.right.shape[1:]):
        raise StreamCountError("n_streams exceeds the rank of the cascade channel")
    return RateProblem(
        bank=core.bank, left=core.left, right=core.right,
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
    """Pair path i with path i for the first N_s paths of each row of `core`,
    with that row of `weights` (T, N_s).

    `core` must come from paths sorted descending, so the pairs are the
    strongest ones (the ordering lemma), and `weights` from `stream_weights`.
    """
    weights = np.array(weights, dtype=float)
    idx = np.arange(weights.shape[1])
    bank = core.bank.reshape(len(core.bank), core.left.shape[2], core.right.shape[1], -1)
    return TsvdProblem(diag_vectors=bank[:, idx, idx], weights=weights)


def build_tsvd_problem(paths: PathSet, geometry: ArrayGeometry, budget: LinkBudget,
                       n_streams: int, tx_gain: float = 1.0,
                       rx_gain: float = 1.0) -> TsvdProblem:
    """Sort paths, pair the strongest N_s, and collect p^{ii} plus weights, as one row."""
    paths = sort_paths_descending(paths)
    weights = stream_weights(paths, budget, n_streams, tx_gain, rx_gain)
    return tsvd_problem(path_core([paths], geometry), weights[None])


def optimize_tsvd(core: PathCore, weights: np.ndarray, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate surrogate from a random start.

    `core` is a stack of one and `weights` (N_s,) is as for `tsvd_problem`.
    """
    return optimize_tsvd_stack(core, np.asarray(weights)[None], cfg, [rng]).row(0)


def optimize_tsvd_stack(core: PathCore, weights: np.ndarray, cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_tsvd` for each row of `core`, of `weights` (T, N_s) and of `rngs`."""
    prob = tsvd_problem(core, weights)
    v0 = np.stack([random_phases(rng, core.m).entries for rng in rngs])
    return ccm_descent_stack(_tsvd_stack, (prob.diag_vectors, prob.weights), v0, cfg)


def optimize_rate(core: PathCore, budget: LinkBudget, n_streams: int,
                  cfg: DescentConfig, v0: PhaseVector) -> tuple[PhaseVector, list[float]]:
    """Manifold descent on the truncated-SVD rate of the cascade channel from v0.

    The surrogate of `optimize_tsvd` reads sigma_i as |beta_i alpha_i
    v^H p^{ii}|, which holds when the steering vectors of the strongest paths
    are near-orthogonal; this objective keeps every path and their overlaps.
    `core` is a stack of one.
    """
    return optimize_rate_stack(core, [budget], n_streams, cfg, v0.entries[None]).row(0)


def optimize_rate_stack(core: PathCore, budgets: Sequence[LinkBudget],
                        n_streams: int, cfg: DescentConfig, v0: np.ndarray) -> StackDescent:
    """`optimize_rate` for each row of `core` and budget, from the rows of v0 (T, M)."""
    prob = build_rate_problem(core, budgets, n_streams)
    # the descent moves the rows of its data in place as they stop: it gets a
    # copy, so the core keeps its row order for the caller
    data = tuple(a.copy() for a in prob.data)
    return ccm_descent_stack(partial(_rate_stack, n_streams), data, v0, cfg)


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
    """The normalized F of each row of `core`."""
    left, right_t = core.left, core.right.swapaxes(1, 2)
    n, l_out, l_in = left.shape
    _, p_out, p_in = right_t.shape
    # left kron right^T per core, as np.kron forms it
    kron = (left[:, :, None, :, None] * right_t[:, None, :, None, :]).reshape(
        n, l_out * p_out, l_in * p_in)
    f = kron @ core.bank
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

    Returns v = conj(w) and the descent's objective trace (`SpgmProblem`);
    `core` is a stack of one.
    """
    return optimize_spgm_stack(core, cfg, [rng]).row(0)


def optimize_spgm_stack(core: PathCore, cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_spgm` for each row of `core` and generator; the points are v = conj(w)."""
    prob = build_spgm_problem(core)
    w0 = np.stack([random_phases(rng, core.m).entries for rng in rngs])
    result = ccm_descent_stack(_spgm_stack, (prob.f,), w0, cfg)
    return replace(result, points=result.points.conj())


def coupling_matrix(v: np.ndarray, paths: Sequence[PathSet], core: PathCore) -> CouplingMatrix:
    """Evaluate every passive beamforming gain d_ij = v^H p^{ij} at the (T, M)
    phase entries v, one row per path set.

    `core` must be the stacked path core of `paths`.
    """
    gains = core.gains(v)
    if len(paths) != len(gains) or any(
            (p.n_lis_ue, p.n_bs_lis) != gains.shape[1:] for p in paths):
        raise ValueError("paths and path core are inconsistent")
    d = np.array([p.lis_ue_gain[:, None] * p.bs_lis_gain[None, :] for p in paths]) * gains
    return CouplingMatrix(d=d, gains=gains)
