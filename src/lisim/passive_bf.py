"""Passive-beamforming objectives and solvers for the LIS phase vector.

Three optimizers work on the stacked L x P path core of the cascade channel
(`channel.PathCore`), one row per core:
- `optimize_tsvd_stack` maximizes the per-stream composite-path rate
  surrogate sum_i log2(1 + a_i |v^H p^{ii}|^2) over the top-N_s sorted paths;
- `optimize_rate_stack` maximizes the truncated-SVD rate
  sum_{k <= N_s} log2(1 + rho sigma_k^2 / (N_s sigma^2)) of the cascade
  channel itself; the harness starts it from the surrogate's solution;
- `optimize_spgm_stack` maximizes the Frobenius norm of the cascade channel
  (the sum-path-gain baseline), normalized by its mean over uniformly
  random phases so its absolute stop gap means the same at any channel
  scale.

The first two descend on the manifold engine (`manifold.ccm_descent_stack`).
Each has one builder, `tsvd_objective` or `rate_objective`, that returns
the `StackObjective` the engine calls and its per-row data: evaluate(data, v)
gives the values of a (T, M) stack v and the function of their gradients.
`optimize_spgm_stack` maximizes a positive semidefinite quadratic form by
the unimodular power method instead, with no step size or line search.
Every optimizer runs all its rows in one masked loop (`manifold.StackDescent`
records them), and a row's result equals its result alone, bit for bit, also
where the rows read one core row in place (`manifold.shares_rows`);
`optimize_tsvd` and `optimize_spgm` run a stack of one.

`coupling_matrix` gives the path-coupling gains v^H p^{ij}, and
`offdiag_ratio` their off-diagonal diagnostic ratio, used to check that the
optimized phases suppress cross-path leakage.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

import numpy as np

from .channel import LinkBudget, PathCore, PathSet
from .manifold import (
    DescentConfig,
    StackDescent,
    StackObjective,
    ccm_descent_stack,
    row_dot,
    shares_rows,
)
from .manifold import ccm_descent  # noqa: F401 -- unused; perfbench/spans.py rebinds it

_LN2 = np.log(2.0)


class StreamCountError(ValueError):
    """Requested more streams than available composite paths."""


def offdiag_ratio(gains: np.ndarray, n_streams: int) -> np.ndarray:
    """mean |d_ij| off the diagonal over mean |d_ii| of the top-N_s block of
    each row of the (T, L, P) path-coupling gains d_ij (`coupling_matrix`)."""
    if n_streams == 1:
        return np.zeros(len(gains))
    diag = np.eye(n_streams, dtype=bool)
    # (entries, T): `sum` adds entry after entry, elementwise across the
    # rows, so a row's ratio has the bits it has alone (np.mean's
    # reduction order can depend on the stack's size and alignment)
    block = np.abs(gains[:, :n_streams, :n_streams]).transpose(1, 2, 0)
    off, on = block[~diag], block[diag]
    return (sum(off) / len(off)) / (sum(on) / len(on))


def tsvd_objective(core: PathCore,
                   weights: np.ndarray) -> tuple[StackObjective, tuple[np.ndarray, ...]]:
    """The rate surrogate's `StackObjective` on `core` and its per-row data.

    A row's value is -sum_i log2(1 + a_i |v^H p^{ii}|^2), negated for the
    engine: path i pairs with path i for the first N_s paths of the row, with
    that row of `weights` (T, N_s). `core` must come from paths sorted
    descending, so the pairs are the strongest ones (the ordering lemma), and
    `weights` from `stream_weights`. When the rows of `core` are one row
    (`shares_rows`), so are those of the diagonal: it is taken from that row
    and broadcast, which keeps each row's matrix contiguous, as numpy's BLAS
    products need for the bits of a row alone.
    """
    weights = np.array(weights, dtype=float)
    idx = np.arange(weights.shape[1])
    n = len(core.bank)
    bank = core.bank.reshape(n, core.left.shape[2], core.right.shape[1], -1)
    if shares_rows(bank):
        diag = bank[:1, idx, idx]
        return _tsvd_stack, (np.broadcast_to(diag, (n,) + diag.shape[1:]), weights)
    return _tsvd_stack, (bank[:, idx, idx], weights)


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


def rate_objective(core: PathCore, budgets: Sequence[LinkBudget],
                   n_streams: int) -> tuple[StackObjective, tuple[np.ndarray, ...]]:
    """The truncated-SVD rate's `StackObjective` on `core` and its per-row data.

    A row's value is -sum_{k <= N_s} log2(1 + snr sigma_k^2) of its cascade
    channel, with snr = rho / (N_s sigma^2) from that row's budget (equal
    power per stream); its gradient needs sigma_{N_s} > sigma_{N_s + 1}. The
    surrogate of `optimize_tsvd` reads sigma_i as |beta_i alpha_i v^H p^{ii}|,
    which holds when the steering vectors of the strongest paths are
    near-orthogonal; this objective keeps every path and their overlaps.

    Raises StreamCountError if n_streams exceeds the rank of the cascade channel.
    """
    if n_streams > min(core.left.shape[1:] + core.right.shape[1:]):
        raise StreamCountError("n_streams exceeds the rank of the cascade channel")
    snr = np.array([b.tx_power / (n_streams * b.noise_power) for b in budgets])
    return partial(_rate_stack, n_streams), (core.bank, core.left, core.right, snr)


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


def random_phases(rng: np.random.Generator, m: int) -> np.ndarray:
    """Unit-modulus (m,) vector with independent Uniform(0, 2pi) phases."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))


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


def optimize_tsvd(core: PathCore, weights: np.ndarray, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """Manifold descent on the truncated-SVD rate surrogate from a random start.

    `core` is a stack of one and `weights` (N_s,) is one row of `tsvd_objective`'s.
    """
    return optimize_tsvd_stack(core, np.asarray(weights)[None], cfg, [rng]).row(0)


def optimize_tsvd_stack(core: PathCore, weights: np.ndarray, cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_tsvd` for each row of `core`, of `weights` (T, N_s) and of `rngs`."""
    evaluate, data = tsvd_objective(core, weights)
    v0 = np.stack([random_phases(rng, core.m) for rng in rngs])
    return ccm_descent_stack(evaluate, data, v0, cfg)


def optimize_rate_stack(core: PathCore, budgets: Sequence[LinkBudget],
                        n_streams: int, cfg: DescentConfig, v0: np.ndarray) -> StackDescent:
    """Manifold descent on the truncated-SVD rate (`rate_objective`) of each
    row of `core` and budget, from the rows of v0 (T, M)."""
    return ccm_descent_stack(*rate_objective(core, budgets, n_streams), v0, cfg)


def _spgm_data(core: PathCore) -> tuple[np.ndarray, ...]:
    """The core's bank, left and right, and ||F||_F^2 per row, for `_spgm_gains`.

    With w = conj(v), X(w) = reshape(bank w) is linear in w, so
    vec(left X right) = F w for F = (left kron right^T) bank, and
    ||H||_F^2 = ||F w||^2 is the quadratic form g^2 w^H Q w of the dense
    formulation; neither F nor Q is formed. ||F||_F^2 = g^2 tr Q is the mean
    of ||H||_F^2 over uniformly random phases. Column m of F is
    vec(left X_m right) for the unit vector w = e_m, and X_m[i, j] is the
    m-th entry of p^{ij}, a product of a departure and an arrival entry, so
    X_m is rank one with |X_m[0, 0]| = 1 / M:
    ||F||_F^2 = M^2 sum_m ||left X_m[:, 0]||^2 ||X_m[0, :] right||^2.
    """
    bank, left, right = core.bank, core.left, core.right
    x = bank.reshape(len(bank), left.shape[2], right.shape[1], -1)
    first_col = left @ x[:, :, 0]                  # left X_m[:, 0], one column per m
    first_row = right.swapaxes(1, 2) @ x[:, 0]     # (X_m[0, :] right)^T
    col_sq = (first_col.real ** 2 + first_col.imag ** 2).sum(axis=1)
    row_sq = (first_row.real ** 2 + first_row.imag ** 2).sum(axis=1)
    return bank, left, right, core.m ** 2 * (col_sq * row_sq).sum(axis=1)


def _spgm_gains(data, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cores C = left X(w) right of each row and their normalized sum-path
    gains ||C||_F^2 / ||F||_F^2; data is as `_spgm_data` gives it."""
    bank, left, right, scale = data
    x = (bank @ w[:, :, None]).reshape(len(w), left.shape[2], right.shape[1])
    c = left @ x @ right
    flat = c.reshape(len(c), -1)
    return c, row_dot(flat, flat) / scale


def _spgm_ascent(data, c: np.ndarray) -> np.ndarray:
    """F^H F w = bank^H vec(left^H C right^H) of each row, from its C = left X(w) right."""
    bank, left, right, _ = data
    y = left.conj().swapaxes(1, 2) @ c @ right.conj().swapaxes(1, 2)
    return (y.reshape(len(y), 1, -1).conj() @ bank)[:, 0].conj()


def optimize_spgm(core: PathCore, cfg: DescentConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """Maximize ||H(v)||_F^2 over the LIS phases by the unimodular power method
    in w = conj(v) from a random start.

    Returns v = conj(w) and the trace of the normalized sum-path gain
    ||H||_F^2 / (g^2 tr Q), start included; `core` is a stack of one.
    """
    return optimize_spgm_stack(core, cfg, [rng]).row(0)


def optimize_spgm_stack(core: PathCore, cfg: DescentConfig,
                        rngs: Sequence[np.random.Generator]) -> StackDescent:
    """`optimize_spgm` for each row of `core` and generator; the points are v = conj(w).

    ||F w||^2 is a positive semidefinite form, so the power update
    w <- exp(j arg(F^H F w)) never lowers it (Soltanalian & Stoica, IEEE TSP
    2014); an entry of F^H F w that is 0 keeps its phase. It needs no step
    size and no line search, and F^H F w is taken on the core. A row stops
    when its gain moves by less than cfg.epsilon (`gap`) or after
    cfg.max_iters updates (`max_iters`), and is frozen while the others go
    on. The traces hold the normalized gains, which do not decrease.

    Raises FloatingPointError if a gain is not finite.
    """
    w = np.stack([random_phases(rng, core.m) for rng in rngs])
    data = _spgm_data(core)
    c, gain = _spgm_gains(data, w)
    record = StackDescent(w, gain, data)
    del data   # the loop reads the record's live rows
    for _ in range(cfg.max_iters):
        ascent = _spgm_ascent(record.data, c)
        mag = np.abs(ascent)
        w = np.divide(ascent, mag, out=w.copy(), where=mag > 0)
        c, gain_next = _spgm_gains(record.data, w)
        record.log(gain_next)
        go_on = np.abs(gain_next - gain) >= cfg.epsilon
        gain = gain_next
        if not go_on.all():
            w, c, gain = record.retire(go_on, "gap", w.conj(), w, c, gain)
            if not len(w):
                break
    return record.finish(w.conj())


def coupling_matrix(v: np.ndarray, core: PathCore) -> np.ndarray:
    """Every passive beamforming gain d_ij = v^H p^{ij} (T, L, P) of the
    stacked path core at the (T, M) phase entries v, one row per core."""
    return core.gains(v)
