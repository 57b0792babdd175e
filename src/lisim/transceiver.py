"""Digital-optimal and hybrid precoder/combiner construction.

The fully digital optimum comes from the truncated SVD of the cascade
channel with an equal power split per stream. The hybrid factorization
approximates that optimum with a unit-modulus analog matrix times a small
digital matrix, by alternating exact block updates from the caller's analog
start (Sohrabi & Yu, IEEE JSTSP 2016). A sweep starts from the paths' own
steering vectors, which span its targets (El Ayach et al., IEEE TWC 2014).
The cap of 10 alternations is the rule, not a safeguard: a slot with at
least as many RF chains as paths reaches the residual floor after one
alternation (`floor`), but with fewer the relative-change stop (`gap`)
seldom fires first (every slot of configs/power_sweep.cfg stops on
`max_iters`), so there the cap sets the result. It factors a stack of
targets (slots) in one loop, one record row per slot (`manifold.StackDescent`).
The factorization knows no transmit power, so a precoder slot and a
combiner slot are the same plain problem. Scaling a target scales its
digital matrix alone: the least-squares stage is linear in the target, and
the column phases and both stop tests are scale-free, so a sweep factors a
precoder once and sets its power itself, for every transmit power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import DescentConfig, StackDescent
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
    """The unit-modulus entries x / |x|, with 1 where x is 0 (x is modified there).

    Multiplies by 1 / |x|: numpy divides a complex array by a real one that
    way, so the bits are those of the division, at less cost."""
    mag = np.abs(x)
    if not mag.all():
        zero = mag == 0
        x[zero], mag[zero] = 1.0, 1.0
    return np.multiply(x, 1.0 / mag, out=out)


def hybrid_factorize(targets: np.ndarray, start: np.ndarray, cfg: DescentConfig,
                     max_alternations: int = 10) -> tuple[np.ndarray, np.ndarray, StackDescent]:
    """Factor each slot of `targets` (K x N x N_s) into unit-modulus analog
    (K x N x n_rf) times digital (K x n_rf x N_s) matrices.

    Slot k starts from the unit-modulus analog matrix start[k], and the
    start's shape (K x N x n_rf) sets n_rf. Each slot alternates two exact
    block updates of ||target - F_RF F_BB||_F until its residual is at most
    RESIDUAL_FLOOR ||target||_F (`floor`) or its relative change drops below
    cfg.epsilon (`gap`), for at most `max_alternations` rounds
    (`max_iters`); a slot that has stopped is frozen while the others go on,
    so a slot's result is the same alone as in any stack. The updates:
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
    stage is solved once more for the final analog matrices: F_BB is the
    least-squares one for every slot, precoder or combiner, so slots of one
    shape factor in one call whatever they are, and a caller that needs a
    power rescales F_BB itself.

    Returns F_RF, F_BB and the slots' record (`StackDescent`): a slot's
    final analog rows (F_RF^T), its stop and its residual trace, which
    begins with the start's residual at round 1's least-squares stage and
    gains one residual per alternation, so its iterations count alternations.
    Raises FloatingPointError if a residual is not finite.
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
    r = rows                               # the live slots' analog rows
    floor = RESIDUAL_FLOOR * np.linalg.norm(targets, axis=(1, 2))
    f_bb = _digital_stage(r, targets)
    residual = np.linalg.norm(targets - r.transpose(0, 2, 1) @ f_bb, axis=(1, 2))
    record = StackDescent(rows, residual, (targets, floor))   # data: the live targets, floors
    for it in range(max_alternations):
        t, floor = record.data
        if it:   # round 1's digital stage is solved above
            f_bb = _digital_stage(r, t)
        f_bb_h = f_bb.conj()
        a_rows = f_bb_h @ t.transpose(0, 2, 1)              # row k is A[:, k]
        b_rows = f_bb_h @ f_bb.transpose(0, 2, 1) * offdiag  # row k is B[:, k]
        for k in range(n_rf):
            _phases(a_rows[:, k] - (b_rows[:, k, None] @ r)[:, 0], out=r[:, k])

        prev_residual = residual
        residual = np.linalg.norm(t - r.transpose(0, 2, 1) @ f_bb, axis=(1, 2))
        record.log(residual)
        # a residual at rounding level, or a relative change below epsilon
        # (multiplied out, so a zero previous residual gives no 0/0)
        at_floor = residual <= floor
        stop = at_floor | (np.abs(prev_residual - residual) < cfg.epsilon * prev_residual)
        if stop.any():
            del t, floor   # the record gathers the live ones afresh
            r, residual = record.retire(~stop, np.where(at_floor, "floor", "gap"),
                                        r, r, residual)
            if not len(r):
                break
    rows = record.finish(r).points

    f_rf = np.ascontiguousarray(rows.transpose(0, 2, 1))
    return f_rf, _digital_stage(rows, targets), record
