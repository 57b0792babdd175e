"""Complex-circle manifold primitives and the descent engine."""

import tracemalloc
from dataclasses import fields
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    PathCore,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.manifold import (
    STOP_REASONS,
    DescentConfig,
    LineSearchError,
    RetractionError,
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    ccm_descent,
    ccm_descent_stack,
    row_dot,
    row_norm,
    _normalize,
    _tangent,
)
from lisim.passive_bf import optimize_rate_stack, optimize_spgm_stack
from lisim.transceiver import hybrid_factorize
from lisim.units import dbm_to_watt

phase_arrays = st.integers(2, 32).flatmap(
    lambda m: st.lists(st.floats(0.0, 2 * np.pi), min_size=m, max_size=m))


def _vec(phases):
    return np.exp(1j * np.array(phases))


def _random_grad(rng, m):
    return rng.normal(size=m) + 1j * rng.normal(size=m)


# -- tangent projection / retraction -----------------------------------------

@given(phase_arrays, st.integers(0, 2 ** 31 - 1))
def test_tangent_projection_is_tangent(phases, seed):
    v = _vec(phases)
    g = _random_grad(np.random.default_rng(seed), len(v))
    z = _tangent(v, g)
    # tangent space at v: Re(z .* conj(v)) = 0 entrywise
    np.testing.assert_allclose(np.real(z * v.conj()), 0.0, atol=1e-12)


@given(phase_arrays, st.integers(0, 2 ** 31 - 1))
def test_tangent_projection_idempotent(phases, seed):
    v = _vec(phases)
    g = _random_grad(np.random.default_rng(seed), len(v))
    z = _tangent(v, g)
    np.testing.assert_allclose(_tangent(v, z), z, atol=1e-12)


@given(phase_arrays)
def test_retract_fixes_manifold_points(phases):
    v = _vec(phases)
    np.testing.assert_allclose(_normalize(v), v, atol=1e-12)


def test_retract_normalizes():
    out = _normalize(np.array([3.0, -4j, 1 + 1j]))
    np.testing.assert_allclose(np.abs(out), 1.0, rtol=1e-12)
    np.testing.assert_allclose(out[0], 1.0)
    np.testing.assert_allclose(out[1], -1j)


def test_retract_zero_entry_raises():
    with pytest.raises(RetractionError):
        _normalize(np.array([1.0, 0.0], dtype=complex))


def test_projection_shape_mismatch():
    v = _vec([0.0, 1.0])
    with pytest.raises(ValueError):
        _tangent(v, np.ones(3, dtype=complex))


def test_complex_over_real_is_a_multiply_by_the_reciprocal():
    # the engine's metric, the retraction and the hybrid phase update
    # multiply by 1 / |x| where dividing by |x| defines them; numpy divides a
    # complex array by a real one that way, so the bits agree (over 300
    # decades of both operands, on a (T, M) stack as the engine holds them).
    # If a numpy release breaks this, results move and this test says why.
    rng = np.random.default_rng(0)
    shape = (64, 1024)
    x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(
        -150, 150, shape)
    m = np.abs(rng.normal(size=shape)) * 10.0 ** rng.uniform(-150, 150, shape)
    np.testing.assert_array_equal((x * (1.0 / m)).view(np.uint64), (x / m).view(np.uint64))
    # the retraction has the bits of v / |v| and leaves its argument alone
    kept = x.copy()
    np.testing.assert_array_equal(_normalize(x).view(np.uint64),
                                  (x / np.abs(x)).view(np.uint64))
    np.testing.assert_array_equal(x.view(np.uint64), kept.view(np.uint64))


# -- descent engine ----------------------------------------------------------

def _alignment_problem(m, seed):
    """f(v) = ||v - t||^2 with t on the manifold; unique minimum f = 0 at t."""
    rng = np.random.default_rng(seed)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, m))

    def f(v):
        d = v - t
        return float(np.real(np.vdot(d, d)))

    def grad(v):
        return 2.0 * (v - t)

    return f, grad, t


def test_descent_reaches_known_minimum():
    f, grad, t = _alignment_problem(16, 0)
    v0 = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, 16))
    v, trace = ccm_descent(f, grad, v0, DescentConfig(epsilon=1e-10, max_iters=2000))
    assert trace[-1] < 1e-6
    np.testing.assert_allclose(v, t, atol=2e-3)


def test_descent_monotone_and_on_manifold():
    f, grad, _ = _alignment_problem(24, 2)
    v0 = np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, 24))
    v, trace = ccm_descent(f, grad, v0, DescentConfig())
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12)


def test_descent_records_start_and_stops_on_gap():
    f, grad, _ = _alignment_problem(8, 4)
    v0 = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, 8))
    _, trace = ccm_descent(f, grad, v0, DescentConfig(epsilon=1e3))
    # huge epsilon: one accepted step, then the gap test fires
    assert len(trace) == 2
    assert trace[0] == pytest.approx(f(v0))


def test_descent_at_stationary_point():
    # start exactly at the minimum: Riemannian gradient is zero
    f, grad, t = _alignment_problem(6, 6)
    v, trace = ccm_descent(f, grad, t, DescentConfig())
    np.testing.assert_allclose(v, t)
    assert len(trace) == 2 and trace[0] == trace[1] == 0.0


def test_descent_iteration_budget():
    f, grad, _ = _alignment_problem(16, 7)
    v0 = np.exp(1j * np.random.default_rng(8).uniform(0, 2 * np.pi, 16))
    _, trace = ccm_descent(f, grad, v0, DescentConfig(epsilon=1e-30, max_iters=3))
    assert len(trace) <= 4


def test_descent_non_finite_objective_raises():
    def f(v):
        return float("nan")

    def grad(v):
        return np.ones_like(v)

    with pytest.raises(FloatingPointError):
        ccm_descent(f, grad, np.ones(4, dtype=complex), DescentConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        DescentConfig(max_iters=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_descent_deterministic(seed):
    f, grad, _ = _alignment_problem(12, seed)
    v0 = np.exp(1j * np.random.default_rng(seed + 1).uniform(0, 2 * np.pi, 12))
    a = ccm_descent(f, grad, v0, DescentConfig())
    b = ccm_descent(f, grad, v0, DescentConfig())
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def _linear_problem(m, seed):
    """f(v) = -Re(c^H v) with |c_m| = 10^U(-3, 3): separable, minimum at c / |c|."""
    rng = np.random.default_rng(seed)
    c = 10.0 ** rng.uniform(-3, 3, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))

    def f(v):
        return -float(np.vdot(c, v).real)

    def grad(v):
        return -c

    return f, grad, c


@pytest.mark.parametrize("seed", range(5))
def test_preconditioned_descent_solves_an_ill_scaled_objective(seed):
    # the phases' curvatures span six decades; scaled by 1 / |G| every phase
    # moves at the same rate, so the descent converges in a few iterations
    # (an unscaled gradient step runs to the 500-iteration cap here)
    f, grad, c = _linear_problem(32, seed)
    v0 = np.exp(1j * np.random.default_rng(seed + 10).uniform(0, 2 * np.pi, 32))
    v, trace = ccm_descent(f, grad, v0, DescentConfig(epsilon=1e-10))
    assert len(trace) - 1 <= 15
    np.testing.assert_allclose(np.angle(v * np.conj(c)), 0.0, rtol=0, atol=1e-9)


def test_first_iteration_is_a_scaled_armijo_step():
    # one iteration: the unit-RMS trial along d = riem / |G|, halved until the
    # decrease meets ARMIJO_SLOPE step <riem, d>
    f, grad, t = _alignment_problem(20, 11)
    rng = np.random.default_rng(12)
    v0 = t * np.exp(1j * rng.uniform(-0.1, 0.1, 20))   # near t: the first trial overshoots
    g = grad(v0)
    riem = g - (g * v0.conj()).real * v0
    d = riem / np.abs(g)
    slope = np.vdot(riem, d).real
    step, shrinks = np.sqrt(20) / np.linalg.norm(d), 0
    while f(_normalize(v0 - step * d)) > f(v0) - ARMIJO_SLOPE * step * slope:
        step, shrinks = step * ARMIJO_SHRINK, shrinks + 1
    assert shrinks >= 1
    v, trace = ccm_descent(f, grad, v0, DescentConfig(max_iters=1))
    np.testing.assert_allclose(v, _normalize(v0 - step * d), rtol=0, atol=1e-14)
    assert trace == [f(v0), pytest.approx(f(v), rel=1e-14)]


def _armijo(f, v, d, slope, step):
    """The largest step * ARMIJO_SHRINK^t meeting the sufficient decrease."""
    while f(_normalize(v - step * d)) > f(v) - ARMIJO_SLOPE * step * slope:
        step *= ARMIJO_SHRINK
    return _normalize(v - step * d)


def _scaled_direction(grad, v):
    g = grad(v)
    riem = g - (g * v.conj()).real * v
    return riem, np.abs(g), riem / np.abs(g)


def test_second_iteration_is_a_geometric_mean_bb_step():
    # after the first move dv, the trial step is the geometric mean of the
    # two Barzilai-Borwein quotients in the metric |G| at the new point,
    # sqrt(<dv, |G| dv> / <d_riem, d_riem / |G|>), halved until Armijo holds
    f, grad, t = _alignment_problem(20, 13)
    v0 = t * np.exp(1j * np.random.default_rng(14).uniform(-1.0, 1.0, 20))
    riem0, _, d0 = _scaled_direction(grad, v0)
    v1 = _armijo(f, v0, d0, np.vdot(riem0, d0).real, np.sqrt(20) / np.linalg.norm(d0))
    riem1, metric, d1 = _scaled_direction(grad, v1)
    dv, d_riem = v1 - v0, riem1 - riem0
    trial = np.sqrt(np.vdot(dv, metric * dv).real / np.vdot(d_riem, d_riem / metric).real)
    v2 = _armijo(f, v1, d1, np.vdot(riem1, d1).real, trial)
    v, trace = ccm_descent(f, grad, v0, DescentConfig(epsilon=1e-12, max_iters=2))
    assert len(trace) == 3
    np.testing.assert_allclose(v, v2, rtol=0, atol=1e-14)


def test_an_undefined_bb_quotient_keeps_the_unit_rms_step():
    # The first iteration moves only entry 1, where the gradient is 0 at the
    # new point, so <dv, |G| dv> = 0: the quotient gives no step, and the
    # second iteration takes the unit-RMS trial step along d again. (A zero
    # d_riem with a nonzero Riemannian gradient cannot arise: riem at a point
    # is tangent there, so it keeps its value only on entries that did not
    # move; the denominator falls back the same way.) The engine reads only
    # the values and gradients it is given, so they need not agree here.
    def evaluate(_data, points):
        start = points[:, 1] == 1.0
        gradient = np.where(start[:, None], [0.0, 1j], [1j, 0.0])
        return points.real.sum(axis=1) - 2.0, lambda: gradient

    v0 = np.ones((1, 2), dtype=complex)
    stack = ccm_descent_stack(evaluate, (), v0, DescentConfig(epsilon=1e-12, max_iters=2))
    step = np.sqrt(2)   # unit RMS: d = (0, i), then (i, 0)
    expected = _normalize(np.array([1.0 - step * 1j, 1.0 - step * 1j]))
    np.testing.assert_allclose(stack.points[0], expected, rtol=0, atol=1e-15)
    assert stack.iters[0] == 2 and stack.stops[0] == "max_iters"


# -- stacked descent ---------------------------------------------------------

def _stacked_alignment(data, v):
    """scale ||v - t||^2 per row; `sign` -1 turns the gradient uphill."""
    t, sign, scale = data
    d = v - t
    return scale * row_dot(d, d), lambda: (sign * scale)[:, None] * 2.0 * d


def _descend_rows(v0, t, sign, scale, cfg):
    return ccm_descent_stack(_stacked_alignment, (t, sign, scale), v0, cfg)


def _four_reasons():
    """Four alignment rows that stop for four reasons, row 3 first and row 2 last."""
    m = 8
    rng = np.random.default_rng(0)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, m)))
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, m)))
    v0[0] = t[0]                                              # starts at its minimum
    v0[1] = t[1] * np.exp(1j * 0.003 * rng.standard_normal(m))  # one small step away
    sign = np.array([1.0, 1.0, 1.0, -1.0])                    # row 3 climbs
    scale = np.array([1.0, 1.0, 1e3, 1.0])                    # row 2 stays steep
    return v0, t, sign, scale


def test_stack_rows_stop_for_their_own_reasons():
    v0, t, sign, scale = _four_reasons()
    cfg = DescentConfig(epsilon=1e-3, max_iters=6)
    stack = _descend_rows(v0, t, sign, scale, cfg)
    assert stack.stops == ("zero_grad", "gap", "max_iters", "line_search")
    # every reason but `floor`, the hybrid factorization's residual floor
    assert set(stack.stops) == set(STOP_REASONS) - {"floor"}
    np.testing.assert_array_equal(stack.iters, [1, 1, 6, 0])
    for i in range(4):
        alone = _descend_rows(v0[i:i + 1], t[i:i + 1], sign[i:i + 1], scale[i:i + 1], cfg)
        np.testing.assert_array_equal(stack.points[i], alone.points[0])
        np.testing.assert_array_equal(stack.traces[i], alone.traces[0])
        assert stack.stops[i] == alone.stops[0]


def _frozen(a):
    """A read-only copy of `a`: a loop that writes to it raises ValueError."""
    a = np.array(a)
    a.setflags(write=False)
    return a


def _assert_same_record(one, other):
    np.testing.assert_array_equal(one.points, other.points)
    assert one.traces == other.traces
    assert one.stops == other.stops


def test_no_loop_writes_to_its_inputs():
    # each masked loop runs on read-only inputs whose rows stop out of order,
    # so live rows are dropped from the middle of its stacks, and gives what
    # it gives on writable copies
    v0, t, sign, scale = _four_reasons()
    cfg = DescentConfig(epsilon=1e-3, max_iters=6)
    frozen = _descend_rows(*map(_frozen, (v0, t, sign, scale)), cfg)
    assert np.any(np.diff(frozen.iters) > 0)
    _assert_same_record(frozen, _descend_rows(v0, t, sign, scale, cfg))

    desk = ArrayGeometry(n_tx=16, n_rx=16, lis_y=8, lis_z=8)
    budgets = [LinkBudget(tx_power=dbm_to_watt(40.0))] * 6
    rng = np.random.default_rng(7)
    core = path_core([sort_paths_descending(sample_paths(rng, desk, budgets[0], 4, 4))
                      for _ in budgets], desk)
    frozen_core = PathCore(*(_frozen(getattr(core, f.name)) for f in fields(PathCore)))
    starts = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(budgets), desk.m)))
    rate = [optimize_rate_stack(c, budgets, 2, DescentConfig(), v)
            for c, v in ((frozen_core, _frozen(starts)), (core, starts))]
    assert np.any(np.diff(rate[0].iters) > 0)
    _assert_same_record(*rate)
    spgm = [optimize_spgm_stack(c, DescentConfig()) for c in (frozen_core, core)]
    assert np.any(np.diff(spgm[0].iters) > 0)
    _assert_same_record(*spgm)

    # slot 0 stops on `gap` after 7 alternations, slot 1 runs to the cap
    # (tests/test_transceiver.py::test_hybrid_stopped_slot_is_frozen)
    draw = lambda seed: np.random.default_rng(seed).normal(size=(2, 4, 2))
    targets = np.stack([(x + 1j * y) / np.sqrt(2) for x, y in map(draw, (384, 100))])
    hybrid_starts = np.stack([np.exp(1j * np.random.default_rng(seed).uniform(
        0.0, 2.0 * np.pi, (4, 2))) for seed in (384, 100)])
    (f_rf, f_bb, record), (w_rf, w_bb, w_record) = (
        hybrid_factorize(a, b, DescentConfig())
        for a, b in ((_frozen(targets), _frozen(hybrid_starts)), (targets, hybrid_starts)))
    assert record.iters[0] < record.iters[1]
    np.testing.assert_array_equal(f_rf, w_rf)
    np.testing.assert_array_equal(f_bb, w_bb)
    _assert_same_record(record, w_record)


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of run(): what it allocates, not what it is handed."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_stop_a_round():
    """An objective on data (last (T,), any (T, ...)) whose row t falls by 1
    a round until round last[t], where it falls by 1e-3 and stops on `gap`
    (epsilon 1e-2). The gradient i v is tangent, so every trial step is 1,
    the Armijo test asks for a fall of 1e-4 M and every row accepts its
    first trial: a round is one call."""
    rounds = count()   # 0 is the start

    def evaluate(data, v):
        last, _ = data
        k = next(rounds)
        return -np.minimum(k, last - 1) - 1e-3 * (k >= last), lambda: 1j * v

    return evaluate


def test_a_descent_holds_one_copy_of_its_data():
    # four rows stop one a round, so the live rows shrink three times; the
    # engine must let go of one gathered copy of `big` before the next
    last = np.arange(1, 5)
    big = np.ones((4, 8192, 8), dtype=complex)   # 4 MiB of per-row data
    v0 = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * np.pi, (4, 8)))
    record, peak = _traced_peak(lambda: ccm_descent_stack(
        _one_stop_a_round(), (last, big), v0, DescentConfig(epsilon=1e-2)))
    assert record.stops == ("gap",) * 4
    np.testing.assert_array_equal(record.iters, last)
    assert peak < big.nbytes


def test_the_power_method_holds_one_copy_of_its_core():
    # five draws whose rows stop after 6, 2, 6, 4 and 3 updates from the
    # strongest path: the live rows shrink three times before the last stop
    paper = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)
    rng = np.random.default_rng(0)
    core = path_core([sort_paths_descending(sample_paths(rng, paper, LinkBudget(), 7, 7))
                      for _ in range(5)], paper)
    optimize_spgm_stack(core, DescentConfig())   # first calls set up what later reuse
    record, peak = _traced_peak(lambda: optimize_spgm_stack(core, DescentConfig()))
    assert len(set(record.iters.tolist())) == 4
    assert peak < core.bank.nbytes


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_stack_row_equals_row_alone(seed, rows):
    # rows stop at different iterations, so the live rows get compacted
    rng = np.random.default_rng(seed)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, 12)))
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, 12)))
    scale = 10.0 ** rng.uniform(-1, 2, rows)
    sign = np.ones(rows)
    stack = _descend_rows(v0, t, sign, scale, DescentConfig(epsilon=1e-6))
    for i in range(rows):
        alone = _descend_rows(v0[i:i + 1], t[i:i + 1], sign[:1], scale[i:i + 1],
                              DescentConfig(epsilon=1e-6))
        np.testing.assert_array_equal(stack.points[i], alone.points[0])
        assert stack.traces[i] == alone.traces[0]


def test_row_reductions_match_numpy_per_row():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
    b = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
    np.testing.assert_array_equal(row_dot(a, b), [np.vdot(x, y).real for x, y in zip(a, b)])
    np.testing.assert_array_equal(row_norm(a), [np.linalg.norm(x) for x in a])
