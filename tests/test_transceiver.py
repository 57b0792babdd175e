"""SVD transceivers, water-filling, and hybrid factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lisim.manifold import DescentConfig
from lisim.transceiver import (
    RESIDUAL_FLOOR,
    RankError,
    digital_combiner,
    digital_precoder,
    hybrid_factorize,
    truncated_svd,
)
from transceiver_algebra import water_filling


def _random_matrix(rng, m, n):
    return (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / np.sqrt(2)


# -- truncated SVD -----------------------------------------------------------

def test_truncated_svd_reconstruction():
    rng = np.random.default_rng(0)
    h = _random_matrix(rng, 6, 5)
    svd = truncated_svd(h, 5)
    np.testing.assert_allclose(svd.u1 * svd.sigma1 @ svd.v1.conj().T, h, atol=1e-10)
    assert np.all(np.diff(svd.sigma1) <= 0)


def test_truncated_svd_eckart_young():
    rng = np.random.default_rng(1)
    h = _random_matrix(rng, 8, 6)
    svd = truncated_svd(h, 2)
    best = svd.u1 * svd.sigma1 @ svd.v1.conj().T
    err = np.linalg.norm(h - best)
    want = np.sqrt(np.sum(np.linalg.svd(h, compute_uv=False)[2:] ** 2))
    assert err == pytest.approx(want, rel=1e-10)


def test_truncated_svd_orthonormal_columns():
    rng = np.random.default_rng(2)
    svd = truncated_svd(_random_matrix(rng, 7, 7), 3)
    np.testing.assert_allclose(svd.u1.conj().T @ svd.u1, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(svd.v1.conj().T @ svd.v1, np.eye(3), atol=1e-10)


def test_truncated_svd_bad_inputs():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 3)), 4)
    with pytest.raises(FloatingPointError):
        truncated_svd(np.full((2, 2), np.nan), 1)


# -- water-filling -----------------------------------------------------------

def test_water_filling_frozen_closed_form():
    # sigma = [sqrt(2), 1], sigma2 = 1, rho = 1:
    # level = (1 + 0.5 + 1)/2 = 1.25, p = [0.75, 0.25]
    powers, level = water_filling(np.array([np.sqrt(2.0), 1.0]), 1.0, 1.0)
    np.testing.assert_allclose(powers, [0.75, 0.25], rtol=1e-12)
    assert level == pytest.approx(1.25, rel=1e-12)


def test_water_filling_drops_weak_stream():
    # second stream too weak to activate at this budget
    powers, _ = water_filling(np.array([10.0, 0.01]), 1.0, 1.0)
    np.testing.assert_allclose(powers, [1.0, 0.0], atol=1e-12)


def test_water_filling_zero_singular_value():
    powers, _ = water_filling(np.array([1.0, 0.0]), 2.0, 1.0)
    np.testing.assert_allclose(powers, [2.0, 0.0], atol=1e-12)
    with pytest.raises(RankError):
        water_filling(np.zeros(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        water_filling(np.ones(2), 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_water_filling_kkt(seed):
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.05, 3.0, rng.integers(1, 6)))[::-1]
    rho = float(rng.uniform(0.1, 10.0))
    s2 = float(rng.uniform(0.01, 2.0))
    powers, water_level = water_filling(sigma, rho, s2)
    assert powers.sum() == pytest.approx(rho, rel=1e-10)
    assert np.all(powers >= 0)
    active = powers > 0
    # active streams share the water level; inactive ones sit above it
    level = powers[active] + s2 / sigma[active] ** 2
    np.testing.assert_allclose(level, water_level, rtol=1e-8)
    assert np.all(s2 / sigma[~active] ** 2 >= water_level - 1e-12)


# -- digital precoder / combiner ---------------------------------------------

def test_digital_precoder_power():
    rng = np.random.default_rng(3)
    svd = truncated_svd(_random_matrix(rng, 6, 6), 3)
    rho = 2.5
    f = digital_precoder(svd, rho)
    assert np.linalg.norm(f) ** 2 == pytest.approx(rho, rel=1e-10)
    powers, _ = water_filling(svd.sigma1, rho, 0.3)
    f = svd.v1 * np.sqrt(powers)
    assert np.linalg.norm(f) ** 2 == pytest.approx(rho, rel=1e-10)
    np.testing.assert_allclose(np.linalg.norm(f, axis=0) ** 2, powers, atol=1e-12)


def test_digital_combiner_is_u1():
    rng = np.random.default_rng(4)
    svd = truncated_svd(_random_matrix(rng, 5, 5), 2)
    np.testing.assert_array_equal(digital_combiner(svd), svd.u1)


# -- hybrid factorization ----------------------------------------------------

def _start(rng, n, n_rf):
    """A uniform-phase N x n_rf analog start."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n_rf)))


def _factor_one(target, n_rf, rng, **kwargs):
    """Factor a single target as a stack of one from a uniform-phase start
    drawn from rng; returns 2-D (F_RF, F_BB)."""
    f_rf, f_bb, _ = hybrid_factorize(target[None], _start(rng, len(target), n_rf)[None],
                                     DescentConfig(), **kwargs)
    return f_rf[0], f_bb[0]


def test_hybrid_exact_with_full_rf():
    # n_rf = N: a random square unit-modulus matrix is invertible, so the
    # least-squares digital stage alone reproduces the target exactly
    rng = np.random.default_rng(5)
    target = _random_matrix(rng, 6, 2)
    f_rf, f_bb = _factor_one(target, 6, rng)
    np.testing.assert_allclose(f_rf @ f_bb, target, atol=1e-8)
    np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)


def test_hybrid_reduces_residual():
    rng = np.random.default_rng(6)
    target = _random_matrix(rng, 16, 3)
    f_rf, f_bb = _factor_one(target, 5, rng)
    res = np.linalg.norm(target - f_rf @ f_bb) / np.linalg.norm(target)
    assert res < 0.15
    np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)


def test_hybrid_scaled_target_scales_the_digital_stage_alone():
    # the factorization knows no power: each slot's digital stage is the
    # least-squares one for its analog matrix, and scaling a target scales
    # that digital stage alone, so a caller may factor a precoder once and
    # set its power afterwards
    rng = np.random.default_rng(7)
    targets = np.stack([_random_matrix(rng, 12, 2) for _ in range(3)])
    starts = np.stack([_start(np.random.default_rng(s), 12, 4) for s in range(3)])
    f_rf, f_bb, record = hybrid_factorize(targets, starts, DescentConfig())
    for rf, bb, target in zip(f_rf, f_bb, targets):
        np.testing.assert_allclose(bb, np.linalg.pinv(rf) @ target, rtol=0, atol=1e-10)
    _, f_bb_alone = _factor_one(targets[1], 4, np.random.default_rng(1))
    np.testing.assert_array_equal(f_bb[1], f_bb_alone)
    scale = np.array([3.0, 1.0, 0.5])[:, None, None]
    scaled_rf, scaled_bb, scaled = hybrid_factorize(targets * scale, starts, DescentConfig())
    np.testing.assert_allclose(scaled_rf, f_rf, rtol=0, atol=1e-9)
    np.testing.assert_allclose(scaled_bb, f_bb * scale, rtol=1e-9)
    assert scaled.stops == record.stops


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_hybrid_residual_monotone_in_alternations(seed):
    # every alternation is an exact block update (least squares, then
    # closed-form phases per analog column), so the final least-squares
    # residual cannot grow with the alternation cap
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    n_s = int(rng.integers(1, 4))
    n_rf = int(rng.integers(n_s, min(n, 6) + 1))
    target = _random_matrix(rng, n, n_s)
    residuals = []
    for k in (1, 2, 4, 8, 30):
        f_rf, f_bb = _factor_one(target, n_rf, np.random.default_rng(seed),
                                 max_alternations=k)
        np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)
        residuals.append(np.linalg.norm(target - f_rf @ f_bb) / np.linalg.norm(target))
    assert np.all(np.diff(residuals) <= 1e-12)


def _reference_hybrid(target, start, cfg, max_alternations=10):
    """The plain form of the algorithm from the analog start `start`: pinv least
    squares, then column updates on an explicit residual matrix kept current
    with rank-one terms. The first relative change is taken from the
    start's residual at the first least-squares stage."""
    f_rf = start.copy()
    prev_residual = None
    for _ in range(max_alternations):
        f_bb = np.linalg.pinv(f_rf, rcond=1e-12) @ target
        diff = target - f_rf @ f_bb
        if prev_residual is None:
            prev_residual = float(np.linalg.norm(diff))
        for k in range(f_rf.shape[1]):
            diff += np.outer(f_rf[:, k], f_bb[k])
            f_rf[:, k] = np.exp(1j * np.angle(diff @ f_bb[k].conj()))
            diff -= np.outer(f_rf[:, k], f_bb[k])
        residual = float(np.linalg.norm(diff))
        denom = max(prev_residual, np.finfo(float).tiny)
        if (residual <= RESIDUAL_FLOOR * np.linalg.norm(target)
                or abs(prev_residual - residual) / denom < cfg.epsilon):
            break
        prev_residual = residual
    return f_rf, np.linalg.pinv(f_rf, rcond=1e-12) @ target


def _random_stack(rng, k):
    """k random N x N_s targets and an RF chain count N_s <= n_rf <= min(N, 8)."""
    n = int(rng.integers(4, 65))
    n_s = int(rng.integers(1, 5))
    n_rf = int(rng.integers(n_s, min(n, 8) + 1))
    return np.stack([_random_matrix(rng, n, n_s) for _ in range(k)]), n_rf


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 30]), st.sampled_from([1, 3]))
def test_hybrid_matches_residual_matrix_reference(seed, max_alternations, k):
    # the Gram-matrix solve and the A/B column targets are a cheaper route
    # to the same iterates, so both forms agree from one start, slot by slot
    # of a stack
    rng = np.random.default_rng(seed)
    targets, n_rf = _random_stack(rng, k)
    n = targets.shape[1]
    starts = np.stack([_start(rng, n, n_rf) for _ in range(k)])
    got_rf, got_bb, _ = hybrid_factorize(targets, starts, DescentConfig(), max_alternations)
    assert got_rf.shape == (k, n, n_rf)
    for target, start, slot_rf, slot_bb in zip(targets, starts, got_rf, got_bb):
        want_rf, want_bb = _reference_hybrid(target, start, DescentConfig(), max_alternations)
        np.testing.assert_allclose(slot_rf, want_rf, rtol=0, atol=1e-9)
        want = want_rf @ want_bb
        assert np.linalg.norm(slot_rf @ slot_bb - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.sampled_from([1, 30]))
def test_hybrid_slot_alone_equals_slot_in_stack(seed, k, max_alternations):
    rng = np.random.default_rng(seed)
    targets, n_rf = _random_stack(rng, k)
    seeds = rng.integers(0, 2 ** 32, size=k)
    starts = np.stack([_start(np.random.default_rng(s), targets.shape[1], n_rf)
                       for s in seeds])
    got_rf, got_bb, record = hybrid_factorize(targets, starts, DescentConfig(),
                                              max_alternations)
    for slot in range(k):
        alone_rf, alone_bb, alone = hybrid_factorize(
            targets[slot:slot + 1], starts[slot:slot + 1], DescentConfig(), max_alternations)
        np.testing.assert_array_equal(got_rf[slot], alone_rf[0])
        np.testing.assert_array_equal(got_bb[slot], alone_bb[0])
        assert record.traces[slot] == alone.traces[0]
        assert record.stops[slot] == alone.stops[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_hybrid_trace_does_not_increase(seed, k):
    # the trace holds the start's residual at its first least-squares
    # stage, then the residual after each alternation: exact block updates,
    # so it cannot grow beyond rounding; a slot's iterations count its
    # alternations, and a slot stops on `max_iters` only at the cap
    rng = np.random.default_rng(seed)
    targets, n_rf = _random_stack(rng, k)
    starts = np.stack([_start(rng, targets.shape[1], n_rf) for _ in range(k)])
    _, _, record = hybrid_factorize(targets, starts, DescentConfig())
    for target, trace, iters, stop in zip(targets, record.traces, record.iters, record.stops):
        assert np.all(np.diff(trace) / np.linalg.norm(target) <= 1e-12)
        assert 1 <= iters <= 10 and stop in ("floor", "gap", "max_iters")
        assert iters == 10 or stop != "max_iters"


def test_hybrid_stopped_slot_is_frozen():
    # slot 0 meets its relative-change stop after 7 alternations, short of a
    # fixed point (alternating on moves it); slot 1 runs to the cap beside
    # it. Each slot's start is drawn from its seed.
    cfg = DescentConfig()
    seeds = (384, 100)
    targets = np.stack([_random_matrix(np.random.default_rng(s), 4, 2) for s in seeds])
    starts = np.stack([_start(np.random.default_rng(s), 4, 2) for s in seeds])
    never_stops = DescentConfig(epsilon=1e-300)
    moved, _, _ = hybrid_factorize(targets[:1], starts[:1], never_stops)
    got_rf, got_bb, record = hybrid_factorize(targets, starts, cfg)
    assert record.stops == ("gap", "max_iters")
    np.testing.assert_array_equal(record.iters, [7, 10])
    assert not np.allclose(got_rf[0], moved[0])
    for slot, seed in enumerate(seeds):
        alone_rf, alone_bb = _factor_one(targets[slot], 2, np.random.default_rng(seed))
        np.testing.assert_array_equal(got_rf[slot], alone_rf)
        np.testing.assert_array_equal(got_bb[slot], alone_bb)


@pytest.mark.parametrize("n, n_s, n_rf, n_span", [(8, 1, 2, 1), (8, 1, 8, 3), (16, 2, 5, 5),
                                                  (6, 3, 6, 4), (64, 4, 7, 7),
                                                  (64, 4, 8, 7), (64, 4, 64, 7)])
def test_hybrid_start_spanning_the_target_is_exact(n, n_s, n_rf, n_span):
    # the target lies in the span of the start's first n_span columns (as a
    # sweep's targets lie in the span of their paths' steering vectors), so
    # the first least-squares stage is exact and the slot stops at the
    # residual floor after one alternation
    for seed in range(5):
        rng = np.random.default_rng(seed)
        start = _start(rng, n, n_rf)
        target = start[:, :n_span] @ _random_matrix(rng, n_span, n_s)
        once = hybrid_factorize(target[None], start[None], DescentConfig(), max_alternations=1)
        f_rf, f_bb, record = hybrid_factorize(target[None], start[None], DescentConfig())
        assert record.stops == ("floor",) and record.iters[0] == 1
        np.testing.assert_array_equal(f_rf, once[0])
        np.testing.assert_array_equal(f_bb, once[1])
        assert np.linalg.norm(target - f_rf[0] @ f_bb[0]) <= (
            RESIDUAL_FLOOR * np.linalg.norm(target))


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_hybrid_full_rf_stops_at_rounding_level(n):
    # with n_rf = N the first alternation leaves a rounding-level residual;
    # its relative change is noise, so only the absolute floor stops the
    # slot, and a cap of 2 alternations gives the default's result
    for seed in range(5):
        target = _random_matrix(np.random.default_rng(seed), n, 2)
        capped = _factor_one(target, n, np.random.default_rng(seed), max_alternations=2)
        default = _factor_one(target, n, np.random.default_rng(seed))
        for got, want in zip(capped, default):
            np.testing.assert_array_equal(got, want)


def test_hybrid_zero_column_target_keeps_unit_entries():
    # a zero target gives zero column targets: the analog entries become 1
    # and the residual is exactly 0 after one alternation
    f_rf, f_bb = _factor_one(np.zeros((5, 1), dtype=complex), 1, np.random.default_rng(3))
    np.testing.assert_array_equal(f_rf, np.ones((5, 1)))
    np.testing.assert_array_equal(f_bb, np.zeros((1, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["full", "rank-deficient", "zero"]))
def test_hybrid_follows_a_column_phase_of_the_target(seed, kind):
    # the SVD fixes each singular vector only up to a phase; from one start
    # every iterate turns with the target's columns, so T D factors into
    # F_RF F_BB D for D diagonal unit-modulus. N_s = 1 is drawn among the
    # full-rank targets. A rank-2 target with N_s = 3 or 4 runs at N >= 16
    # and n_rf <= 2 N_s; its rounding reached 1.6e-12 of ||T|| in 3000 draws
    # (full-rank targets 1.3e-13), so it gets a looser bound
    rng = np.random.default_rng(seed)
    if kind == "zero":
        target, n_rf = np.zeros((int(rng.integers(1, 65)), 1), dtype=complex), 1
    else:
        if kind == "full":
            n, n_s = int(rng.integers(4, 65)), int(rng.integers(1, 5))
            target = _random_matrix(rng, n, n_s)
            n_rf = int(rng.integers(n_s, min(n, 2 * n_s + 2) + 1))
        else:
            n, n_s = int(rng.integers(16, 65)), int(rng.integers(3, 5))
            target = _random_matrix(rng, n, 2) @ _random_matrix(rng, 2, n_s)
            n_rf = int(rng.integers(n_s, 2 * n_s + 1))
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, target.shape[1]))
    f_rf, f_bb = _factor_one(target, n_rf, np.random.default_rng(seed))
    g_rf, g_bb = _factor_one(target * d, n_rf, np.random.default_rng(seed))
    np.testing.assert_allclose(np.abs(g_rf), 1.0, rtol=1e-12)
    bound = 1e-10 if kind == "rank-deficient" else 1e-12
    assert np.linalg.norm(g_rf @ g_bb - f_rf @ f_bb * d) <= bound * np.linalg.norm(target)


def test_hybrid_rejects_bad_rf_count():
    rng = np.random.default_rng(9)
    targets = _random_matrix(rng, 6, 3)[None]
    with pytest.raises(ValueError, match="N_s <= n_rf <= N"):
        hybrid_factorize(targets, _start(rng, 6, 2)[None], DescentConfig())   # n_rf < N_s
    with pytest.raises(ValueError, match="N_s <= n_rf <= N"):
        hybrid_factorize(targets, _start(rng, 6, 7)[None], DescentConfig())   # n_rf > N


def test_hybrid_needs_one_start_per_slot():
    rng = np.random.default_rng(10)
    targets = np.stack([_random_matrix(rng, 6, 2)] * 2)
    with pytest.raises(ValueError, match="one N x n_rf start per slot"):
        hybrid_factorize(targets, _start(rng, 6, 3)[None], DescentConfig())   # K = 1
    with pytest.raises(ValueError, match="one N x n_rf start per slot"):
        hybrid_factorize(targets, np.stack([_start(rng, 5, 3)] * 2), DescentConfig())  # N = 5
