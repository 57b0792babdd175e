"""First-order descent on the product-of-complex-circles manifold.

The feasible set is {v in C^M : |v_m| = 1}. Gradients follow the Wirtinger
convention grad f = 2 df/d(conj v), so central finite differences along the
real (imaginary) coordinate axes recover the real (imaginary) parts.

The engine minimizes; callers negate maximization objectives. It descends a
stack of T independent problems in one loop (`ccm_descent_stack`): every row
has its own trial step, Armijo backtracking and stop, a row that has stopped
is frozen while the others go on, and a row's result does not depend on the
other rows, bit for bit. `ccm_descent` is the loop on a stack of one. Its
record, `StackDescent`, serves the other masked loops of the package too.

The search direction scales the Riemannian gradient per element by the
inverse magnitude of the Euclidean gradient entry: a per-element metric
(Riemannian preconditioning, Mishra & Sepulchre, SIAM J. Optim. 2016) under
which a step turns each phase by an amount that does not depend on the
scale of its entry, as the unimodular power update of `spgm` does
(Soltanalian & Stoica, IEEE TSP 2014). No entry of the direction exceeds 1
in modulus, so the first trial step is the unit step, which turns no phase
by more than pi/4; later ones are the geometric mean of the two
Barzilai-Borwein quotients in that metric (Dai, Al-Baali & Yang 2015;
Riemannian BB: Iannazzo & Porcelli, IMA J. Numer. Anal. 2018);
`ccm_descent_stack` gives the formulas.

The engine's fixed cost per round, not its arithmetic, dominates at the
stack sizes of a sweep group, so a round forms the reciprocal metric 1/|G|
once and multiplies by it, as the retraction multiplies by 1/|v|: numpy
divides a complex array by a real one by multiplying by the reciprocal, so
the bits are those of the division. Every row's first trial step is tried
on the whole stack, and the masks of backtracking are set up only when some
row rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Armijo backtracking: a trial step along the direction d shrinks by
# ARMIJO_SHRINK until the objective falls by at least
# ARMIJO_SLOPE * step * <riem, d>, at most MAX_SHRINKS times. The first trial
# step of a descent is INITIAL_STEP along d itself: |d_m| <= 1, so a unit step
# turns each phase by at most atan(1) = pi/4.
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
INITIAL_STEP = 1.0
MAX_SHRINKS = 50


class RetractionError(ValueError):
    """A zero entry cannot be normalized back onto the manifold."""


class LineSearchError(RuntimeError):
    """Armijo backtracking exhausted its shrink budget."""


@dataclass(frozen=True)
class DescentConfig:
    """Stopping rule: objective gap and iteration budget."""

    epsilon: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


Objective = Callable[[np.ndarray], float]
Gradient = Callable[[np.ndarray], np.ndarray]
# evaluate(data, points) -> (values, gradient): the objective at each row of
# `points` (n x M) given the matching rows of every array in `data`, and a
# function without arguments that returns the (n x M) Wirtinger gradients
# there. Values come first so that a line search pays for gradients only
# where a point is accepted.
StackObjective = Callable[[tuple, np.ndarray],
                          tuple[np.ndarray, Callable[[], np.ndarray]]]

STOP_REASONS = ("gap", "max_iters", "line_search", "zero_grad", "floor")


def _tangent(entries: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at `entries`."""
    g = np.asarray(g, dtype=complex)
    if g.shape != entries.shape:
        raise ValueError("gradient length must match the phase vector")
    return g - (g * entries.conj()).real * entries


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a_t^H b_t) for each row t of two (T, M) stacks, with the bits of
    np.vdot on each row alone (both reduce with the BLAS dot product)."""
    return np.vecdot(a, b).real


def row_norm(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (T, M) stack, with its bits
    (the real and imaginary parts each reduce with the BLAS dot product)."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def _all(mask: np.ndarray) -> bool:
    """mask.all(), at a third of its call overhead on the short masks of a stack."""
    return np.count_nonzero(mask) == mask.size


def _any(mask: np.ndarray) -> bool:
    """mask.any(), at a third of its call overhead."""
    return np.count_nonzero(mask) > 0


def _normalize(v_bar: np.ndarray) -> np.ndarray:
    """The retraction: map a point back onto the manifold by entrywise normalization.

    Multiplies a new array by 1 / |v_bar|, which has the bits of v_bar / |v_bar|
    (numpy divides a complex array by a real one that way) at less cost."""
    mags = np.abs(v_bar)
    if not _all(mags):
        raise RetractionError("cannot retract a vector with a zero entry")
    return v_bar * (1.0 / mags)


def armijo_step(f: Objective, v: np.ndarray, riem_grad: np.ndarray, f_v: float,
                step: float) -> tuple[float, np.ndarray, float]:
    """Largest step * shrink^t meeting the sufficient decrease
    f(_normalize(v - step * g)) <= f(v) - ARMIJO_SLOPE * step * ||g||^2
    along the unscaled Riemannian gradient g.

    `v` holds the entries of a point on the manifold and `f_v` is f(v).
    Returns the accepted step, the entries of the accepted point and its
    objective value. The descent loop searches every row of a stack at once
    and does not call this; perfbench/spans.py rebinds the name.
    """
    grad_sq = float(np.vdot(riem_grad, riem_grad).real)
    if grad_sq == 0.0:
        return step, v, f_v
    for _ in range(MAX_SHRINKS + 1):
        candidate = _normalize(v - step * riem_grad)
        f_candidate = float(f(candidate))
        if f_candidate <= f_v - ARMIJO_SLOPE * step * grad_sq:
            return step, candidate, f_candidate
        step *= ARMIJO_SHRINK
    raise LineSearchError("no Armijo step accepted")


class StackDescent:
    """Per-row record of a masked stack loop, kept as it runs: each row's
    final point, trace (one value per iterate, start included) and stop,
    one of STOP_REASONS (`max_iters` until the loop retires the row), and
    `live`, the original index of each row still going, in the order of the
    loop's live arrays. It starts with every row live at its value.

    It also keeps the per-row data the loop is handed, arrays that the loop
    reads and never changes: `data` holds their live rows, the handed arrays
    themselves until a row stops."""

    def __init__(self, points: np.ndarray, values: np.ndarray, data: Sequence[np.ndarray] = ()):
        self.points = np.empty_like(points)   # (T, ...) final points
        self.traces = [[] for _ in range(len(points))]
        self.stops = np.full(len(points), "max_iters", dtype=object)   # a tuple once finished
        self.live = np.arange(len(points))
        self._handed = self.data = tuple(data)
        self.log(values)

    @property
    def iters(self) -> np.ndarray:
        """Iterations per row: trace length minus the start."""
        return np.array([len(trace) - 1 for trace in self.traces])

    def row(self, i: int) -> tuple[np.ndarray, list[float]]:
        """Row i's final point and objective trace."""
        return self.points[i], list(self.traces[i])

    def log(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        """Append each live row's value to its trace; with `keep`, only those rows' values.
        Raises FloatingPointError if a value is not finite."""
        if not _all(np.isfinite(values)):
            raise FloatingPointError("a value is not finite")
        live = self.live
        if keep is not None and not _all(keep):
            live, values = live[keep], values[keep]
        for i, value in zip(live.tolist(), values.tolist()):
            self.traces[i].append(value)

    def retire(self, go_on: np.ndarray, reasons: str | np.ndarray, points: np.ndarray,
               *arrays: np.ndarray) -> tuple:
        """Stop the live rows where `go_on` is False, each for its entry of
        `reasons` (one string, or one per live row) and at its row of
        `points`; returns each of `arrays` at the rows that go on (`_rows`),
        the one place a loop's live arrays shrink.

        `data` is gathered afresh from the handed arrays at the new `live`
        rows once its previous copy is released, so a loop holds at most
        one gathered copy of its data; the loop must not keep its own
        reference to `data` across this call."""
        stopped = ~go_on
        gone = self.live[stopped]
        self.stops[gone] = reasons if isinstance(reasons, str) else reasons[stopped]
        self.points[gone] = points[stopped]
        self.live = self.live[go_on]
        n = len(self.live)
        self.data = ()
        self.data = tuple(_rows(a, self.live, n) for a in self._handed)
        return tuple(_rows(a, go_on, n) for a in arrays)

    def finish(self, points: np.ndarray) -> StackDescent:
        """The record, with the final points of the live rows taken from `points`."""
        self.points[self.live] = points
        self.stops = tuple(self.stops.tolist())
        return self


def shares_rows(a: np.ndarray) -> bool:
    """Whether every row of the stacked array `a` is one row read in place, a
    stride-0 leading axis (`channel.PathCore.__getitem__`). The loops never
    copy or gather the rows of such an array: its first n rows are the rows
    of any n live rows."""
    return a.strides[0] == 0


def _rows(a: np.ndarray, rows, n: int) -> np.ndarray:
    """The n rows `rows` (a mask, an index or a slice) of the stacked array
    `a`: a[rows], or its first n rows in place when its rows are one row
    (`shares_rows`). The loops never write to what they are handed."""
    return a[:n] if shares_rows(a) else a[rows]


def _inverse(metric: np.ndarray) -> np.ndarray:
    """1 / metric entrywise, 0 where the metric |G| is 0. Multiplying by it
    has the bits of dividing by the metric (numpy divides a complex array by
    a real one that way)."""
    if _all(metric):
        return 1.0 / metric
    return np.divide(1.0, metric, out=np.zeros_like(metric), where=metric > 0)


def _line_search(evaluate: StackObjective, data: tuple, v: np.ndarray, f_v: np.ndarray,
                 riem: np.ndarray, direction: np.ndarray, slope: np.ndarray,
                 step: np.ndarray, cfg: DescentConfig, need_grad: bool):
    """Armijo backtracking on every row of v along `direction` from its trial `step`.

    Each row takes the largest step * shrink^t meeting the sufficient decrease
    f(_normalize(v - step d)) <= f(v) - ARMIJO_SLOPE step <riem, d>, with
    `slope` = <riem, d> per row. A row with a zero Riemannian gradient does
    not search; one whose slope underflows accepts its own point. Returns
    the next points and values (a row that accepted nothing keeps its own),
    the gradients there of the accepted rows that go on (objective gap at
    least cfg.epsilon; taken when `need_grad`, other rows are undefined),
    and the masks of accepted rows, of rows that go on and of rows with a
    zero gradient.

    When every row has a slope, all of them try their trial step first, on
    the whole stack; if every row accepts it, that is the result, with no
    mask set up. Otherwise backtracking goes on from that evaluation.
    """
    flat = slope == 0.0
    first = None
    if not _any(flat):
        candidate = _normalize(v - step[:, None] * direction)
        f_cand, gradient = evaluate(data, candidate)
        ok = f_cand <= f_v - ARMIJO_SLOPE * step * slope
        if _all(ok):
            go = np.abs(f_cand - f_v) >= cfg.epsilon
            grad = gradient() if need_grad and _any(go) else np.empty_like(v)
            return candidate, f_cand, grad, ok, go, flat
        first = candidate, f_cand, gradient, ok
    n = len(v)
    zero, accepted = flat, np.zeros(n, dtype=bool)
    if _any(flat):
        zero = np.zeros(n, dtype=bool)
        zero[flat] = row_norm(riem[flat]) == 0.0
        accepted = flat & ~zero
    go_on = np.zeros(n, dtype=bool)
    v_next, f_next, grad_next = v, f_v, np.empty_like(v)
    searching = (~flat).nonzero()[0]
    for _ in range(MAX_SHRINKS + 1):
        if not searching.size:
            break
        first_row, last_row = searching[0], searching[-1]
        # a run of consecutive rows is a view of `data`; others are gathered
        sel = (slice(first_row, last_row + 1)
               if last_row - first_row + 1 == searching.size else searching)
        s = step[sel]
        if first is None:
            candidate = _normalize(v[sel] - s[:, None] * direction[sel])
            f_cand, gradient = evaluate(tuple(_rows(a, sel, searching.size) for a in data),
                                        candidate)
            ok = f_cand <= f_v[sel] - ARMIJO_SLOPE * s * slope[sel]
        else:   # every row's first trial, evaluated above
            (candidate, f_cand, gradient, ok), first = first, None
        if _any(ok):
            go = ok & (np.abs(f_cand - f_v[sel]) >= cfg.epsilon)
            if searching.size == n and _all(ok):   # every row accepts this trial
                grad = gradient() if need_grad and _any(go) else grad_next
                return candidate, f_cand, grad, ok, go, zero
            if v_next is v:
                v_next, f_next = v.copy(), f_v.copy()
            rows = searching[ok]
            v_next[rows], f_next[rows] = candidate[ok], f_cand[ok]
            accepted[rows] = True
            if _any(go):
                go_on[searching[go]] = True
                if need_grad:
                    grad_next[searching[go]] = gradient()[go]
            searching = searching[~ok]
        step[searching] *= ARMIJO_SHRINK
        gradient = None   # frees a gathered copy of `data` before the next round
    return v_next, f_next, grad_next, accepted, go_on, zero


def ccm_descent_stack(evaluate: StackObjective, data: Sequence[np.ndarray],
                      v0: np.ndarray, cfg: DescentConfig) -> StackDescent:
    """Riemannian gradient descent with Armijo backtracking on each row of v0.

    `v0` is a (T, M) stack of points on the manifold and `data` holds arrays
    whose leading axis has one entry per row; `evaluate` sees the rows of
    both that it is asked about. Each row runs the single-vector rule:

    The direction is d = riem / |G|, the Riemannian gradient riem over the
    magnitude of each entry of the Euclidean gradient G (0 where G = 0,
    where riem is 0 too), and a trial point is _normalize(v - step d). The
    Armijo trial step is warm-started each iteration: the first iteration
    tries INITIAL_STEP itself, which turns no phase by more than
    atan(1) = pi/4 since |d_m| = |riem_m| / |G_m| <= 1, however short d is;
    later iterations take the geometric mean of the two Barzilai-Borwein
    quotients of the previous move dv = v - v_prev and gradient change
    dr = riem - riem_prev in the same metric,
    sqrt(<dv, |G| dv> / <dr, dr / |G|>), with |G| at v and entries where
    G = 0 adding 0. Both sums are non-negative; a row where either is 0
    tries INITIAL_STEP again. The first quotient alone,
    <dv, |G| dv> / |<dv, dr>|, overshoots and pays for it in Armijo
    retries. A fixed trial step stalls badly on the composite-path
    objective because its curvature scales with the LIS size; backtracking
    still guards descent.
    A row stops when its objective gap drops below cfg.epsilon (`gap`), its
    iteration budget is exhausted (`max_iters`), its line search fails
    (`line_search`, treated as converged) or its Riemannian gradient is zero
    (`zero_grad`, which repeats the last value in the trace).

    Each round forms 1/|G| once, for the direction and the second quotient.
    Backtracking re-evaluates only the rows still searching, and gradients
    are taken only from evaluations where some row accepted a point and goes
    on. The live rows of v shrink only when a row stops, and the record
    keeps `data` and its live rows (`StackDescent.retire`), so the loop
    holds at most one gathered copy of them.

    Raises FloatingPointError if a start value, or an accepted value, is not
    finite; RetractionError if a trial point has a zero entry.
    """
    v = np.array(v0, dtype=complex)
    if v.ndim != 2:
        raise ValueError("v0 must be a (T, M) stack of phase vectors")
    data = tuple(data)
    f_v, gradient = evaluate(data, v)
    record = StackDescent(v, f_v, data)
    del data   # the loop reads the record's live rows
    grad = gradient()
    prev_v = prev_riem = None
    for it in range(cfg.max_iters):
        riem = _tangent(v, grad)
        metric = np.abs(grad)
        inverse = _inverse(metric)
        direction = riem * inverse
        slope = row_dot(riem, direction)
        trial = np.full(len(v), INITIAL_STEP)
        if prev_v is not None:
            move = v - prev_v
            change = riem - prev_riem
            move_sq = row_dot(move, metric * move)
            change_sq = row_dot(change, change * inverse)
            bb = (move_sq > 0) & (change_sq > 0)
            trial[bb] = np.sqrt(move_sq[bb] / change_sq[bb])
        v_next, f_next, grad, accepted, go_on, zero = _line_search(
            evaluate, record.data, v, f_v, riem, direction, slope, trial, cfg,
            it + 1 < cfg.max_iters)
        record.log(f_next, accepted | zero)   # a zero row's value is its own

        prev_v, prev_riem = v, riem
        v, f_v = v_next, f_next
        if not _all(go_on):
            reasons = np.where(zero, "zero_grad", np.where(accepted, "gap", "line_search"))
            v, f_v, grad, prev_v, prev_riem = record.retire(
                go_on, reasons, v, v, f_v, grad, prev_v, prev_riem)
            if not len(v):
                break
    return record.finish(v)


def ccm_descent(f: Objective, grad_f: Gradient, v0: np.ndarray,
                cfg: DescentConfig) -> tuple[np.ndarray, list[float]]:
    """`ccm_descent_stack` on the single point v0 (M,) with objective f and gradient grad_f.

    Returns the final point (M,) and the objective trace (including the start).
    """
    def evaluate(_data, points):
        point = points[0]
        return (np.array([float(f(point))]),
                lambda: np.asarray(grad_f(point), dtype=complex)[None])

    return ccm_descent_stack(evaluate, (), v0[None], cfg).row(0)
