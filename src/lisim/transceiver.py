"""Digital-optimal and hybrid precoder/combiner construction.

The fully digital optimum comes from the truncated SVD of the cascade
channel with an equal power split per stream. The hybrid factorization
approximates that optimum with a unit-modulus analog matrix times a small
digital matrix: from the caller's analog start it alternates the
least-squares digital update, solved on the n_rf x n_rf Gram matrix of the
analog matrix, with closed-form column-wise phase updates of the analog
matrix (Sohrabi & Yu, IEEE JSTSP 2016), computed from the small products
target F_BB^H and F_BB F_BB^H rather than from an explicit residual matrix.
A sweep starts from the paths' own steering vectors, which span its targets
(El Ayach et al., IEEE TWC 2014). The cap of 10 alternations is the rule,
not a safeguard: a slot with at least as many RF chains as paths is exact
after one alternation, but with fewer the epsilon stop seldom fires first
(every slot of configs/power_sweep.cfg runs to the cap), so there the cap
sets the result. It factors a stack of targets (slots) in one loop: every
slot has its own start and stop, a slot that has stopped is frozen while
the others go on, and each slot's result does not depend on the others.
Scaling a target scales its digital matrix alone: the least-squares stage
is linear in the target, and the column phases and both stop tests are
scale-free, so a sweep factors a precoder once and rescales it for other
transmit powers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .manifold import DescentConfig
from .manifold import ccm_descent  # noqa: F401 -- unused; perfbench/spans.py rebinds it


# A slot whose residual is at most this times ||target||_F has reached
# rounding level (n_rf = N, or an exactly realizable target): its relative
# change is rounding noise, so only an absolute floor stops it.
RESIDUAL_FLOOR = 1e-12


class RankError(ValueError):
    """A matrix is too rank deficient for the requested streams or power."""


@dataclass(frozen=True)
class TruncatedSvd:
    """Top-N_s singular triplets of a channel matrix."""

    u1: np.ndarray      # (N_r, N_s), or (K, N_r, N_s) for a stack
    sigma1: np.ndarray  # (N_s,) descending, or (K, N_s)
    v1: np.ndarray      # (N_t, N_s), or (K, N_t, N_s)


def truncated_svd(h: np.ndarray, n_streams: int) -> TruncatedSvd:
    """Best rank-N_s factors of h, or of each matrix of a stack h (K x N_r x
    N_t), singular values descending."""
    h = np.asarray(h)
    if n_streams > min(h.shape[-2:]):
        raise ValueError("n_streams exceeds the matrix rank bound")
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("channel matrix has non-finite entries")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return TruncatedSvd(u1=u[..., :n_streams], sigma1=s[..., :n_streams],
                        v1=vh[..., :n_streams, :].conj().swapaxes(-1, -2))


def digital_precoder(svd: TruncatedSvd, rho: float | np.ndarray) -> np.ndarray:
    """V_1 with power rho split equally over the streams; for the SVD of a
    stack, rho holds one power per matrix."""
    return np.sqrt(np.asarray(rho) / svd.v1.shape[-1])[..., None, None] * svd.v1


def digital_combiner(svd: TruncatedSvd) -> np.ndarray:
    """The left singular block U_1."""
    return svd.u1


def _digital_stage(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares F_BB per slot for F_RF = rows^T, from the n_rf x n_rf normal equations."""
    rows_h = rows.conj()
    return np.linalg.solve(rows_h @ rows.transpose(0, 2, 1), rows_h @ targets)


def _phases(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The unit-modulus entries x / |x|, with 1 where x is 0 (x is modified there)."""
    mag = np.abs(x)
    if not mag.all():
        zero = mag == 0
        x[zero], mag[zero] = 1.0, 1.0
    return np.divide(x, mag, out=out)


def hybrid_factorize(targets: np.ndarray, start: np.ndarray, cfg: DescentConfig,
                     power_norms: Sequence[float] | None = None,
                     max_alternations: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Factor each slot of `targets` (K x N x N_s) into unit-modulus analog
    (K x N x n_rf) times digital (K x n_rf x N_s) matrices.

    Slot k starts from the unit-modulus analog matrix start[k], and the
    start's shape (K x N x n_rf) sets n_rf. Each slot alternates two exact
    block updates of ||target - F_RF F_BB||_F until its relative residual
    change drops below cfg.epsilon or its residual is at most
    RESIDUAL_FLOOR ||target||_F (at most `max_alternations` rounds); a slot
    that has stopped is frozen while the others go on, so a slot's result is
    the same alone as in any stack. The updates:
    - F_BB = (F_RF^H F_RF)^-1 F_RF^H target, the least-squares digital stage,
      solved on the n_rf x n_rf Gram matrix (raises LinAlgError if singular);
    - one Gauss-Seidel pass over the analog columns. With the other columns
      and F_BB fixed, the residual separates by rows of F_RF, so column k's
      best unit-modulus entries are the phases of D F_BB[k]^H, where D is the
      residual with column k's own contribution added back. With
      A = target F_BB^H and B = F_BB F_BB^H with its diagonal zeroed, formed
      once per pass, D F_BB[k]^H = A[:, k] - F_RF B[:, k], so the N x N_s
      residual is never updated column by column. An entry whose
      D F_BB[k]^H entry is 0 becomes 1.
    Neither step can increase the residual, and both turn with a phase of a
    target column (the phase an SVD leaves free): from one start, a target
    T D, D diagonal unit-modulus, gives the product F_RF F_BB D. The digital
    stage is solved once more for the final analog matrices. When power_norms
    is given (precoder slots), each slot k's digital matrix is rescaled so
    its product has squared Frobenius norm power_norms[k].
    """
    targets = np.ascontiguousarray(targets, dtype=complex)
    n_slots, n, n_streams = targets.shape
    if start.shape[:2] != (n_slots, n):
        raise ValueError("need one N x n_rf start per slot")
    n_rf = start.shape[2]
    if not (n_streams <= n_rf <= n):
        raise ValueError("need N_s <= n_rf <= N")

    rows = start.transpose(0, 2, 1).astype(complex, order="C")   # row k is analog column k
    offdiag = ~np.eye(n_rf, dtype=bool)
    live = np.arange(n_slots)              # slots still alternating
    r, t = rows, targets                   # their analog rows and targets
    prev_residual = np.full(n_slots, np.inf)
    floor_scale = np.linalg.norm(targets, axis=(1, 2))
    for _ in range(max_alternations):
        f_bb = _digital_stage(r, t)
        f_bb_h = f_bb.conj()
        a_rows = f_bb_h @ t.transpose(0, 2, 1)              # row k is A[:, k]
        b_rows = f_bb_h @ f_bb.transpose(0, 2, 1) * offdiag  # row k is B[:, k]
        for k in range(n_rf):
            _phases(a_rows[:, k] - (b_rows[:, k, None] @ r)[:, 0], out=r[:, k])

        residual = np.linalg.norm(t - r.transpose(0, 2, 1) @ f_bb, axis=(1, 2))
        # a residual at rounding level, or a relative change below epsilon
        # (multiplied out so the first round's infinite previous residual
        # gives no inf/inf)
        stop = (residual <= RESIDUAL_FLOOR * floor_scale) | (
            np.abs(prev_residual - residual)
            < cfg.epsilon * np.maximum(prev_residual, np.finfo(float).tiny))
        if stop.any():
            rows[live] = r
            go = ~stop
            live, r, t, floor_scale = live[go], r[go], t[go], floor_scale[go]
            if not live.size:
                break
            residual = residual[go]
        prev_residual = residual
    rows[live] = r

    f_rf = np.ascontiguousarray(rows.transpose(0, 2, 1))
    f_bb = _digital_stage(rows, targets)
    if power_norms is not None:
        for k, power in enumerate(power_norms):
            norm = np.linalg.norm(f_rf[k] @ f_bb[k])
            if norm == 0:
                raise RankError("degenerate factorization; cannot normalize power")
            f_bb[k] *= np.sqrt(power) / norm
    return f_rf, f_bb
