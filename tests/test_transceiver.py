"""SVD transceivers, water-filling, and hybrid factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lisim.manifold import DescentConfig
from lisim.passive_bf import random_phases
from lisim.transceiver import (
    RankError,
    digital_combiner,
    digital_precoder,
    hybrid_factorize,
    truncated_svd,
    water_filling,
)


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
    alloc = water_filling(np.array([np.sqrt(2.0), 1.0]), 1.0, 1.0)
    np.testing.assert_allclose(alloc.powers, [0.75, 0.25], rtol=1e-12)
    assert alloc.water_level == pytest.approx(1.25, rel=1e-12)


def test_water_filling_drops_weak_stream():
    # second stream too weak to activate at this budget
    alloc = water_filling(np.array([10.0, 0.01]), 1.0, 1.0)
    np.testing.assert_allclose(alloc.powers, [1.0, 0.0], atol=1e-12)


def test_water_filling_zero_singular_value():
    alloc = water_filling(np.array([1.0, 0.0]), 2.0, 1.0)
    np.testing.assert_allclose(alloc.powers, [2.0, 0.0], atol=1e-12)
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
    alloc = water_filling(sigma, rho, s2)
    assert alloc.powers.sum() == pytest.approx(rho, rel=1e-10)
    assert np.all(alloc.powers >= 0)
    active = alloc.powers > 0
    # active streams share the water level; inactive ones sit above it
    level = alloc.powers[active] + s2 / sigma[active] ** 2
    np.testing.assert_allclose(level, alloc.water_level, rtol=1e-8)
    assert np.all(s2 / sigma[~active] ** 2 >= alloc.water_level - 1e-12)


# -- digital precoder / combiner ---------------------------------------------

def test_digital_precoder_power():
    rng = np.random.default_rng(3)
    svd = truncated_svd(_random_matrix(rng, 6, 6), 3)
    rho = 2.5
    f = digital_precoder(svd, rho)
    assert np.linalg.norm(f) ** 2 == pytest.approx(rho, rel=1e-10)
    alloc = water_filling(svd.sigma1, rho, 0.3)
    f = digital_precoder(svd, rho, alloc)
    assert np.linalg.norm(f) ** 2 == pytest.approx(rho, rel=1e-10)
    np.testing.assert_allclose(
        np.linalg.norm(f, axis=0) ** 2, alloc.powers, atol=1e-12)


def test_digital_combiner_is_u1():
    rng = np.random.default_rng(4)
    svd = truncated_svd(_random_matrix(rng, 5, 5), 2)
    np.testing.assert_array_equal(digital_combiner(svd), svd.u1)


# -- hybrid factorization ----------------------------------------------------

def test_hybrid_exact_with_full_rf():
    # n_rf = N: a random square unit-modulus matrix is invertible, so the
    # least-squares digital stage alone reproduces the target exactly
    rng = np.random.default_rng(5)
    target = _random_matrix(rng, 6, 2)
    f_rf, f_bb = hybrid_factorize(target, 6, DescentConfig(), rng)
    np.testing.assert_allclose(f_rf @ f_bb, target, atol=1e-8)
    np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)


def test_hybrid_reduces_residual():
    rng = np.random.default_rng(6)
    target = _random_matrix(rng, 16, 3)
    f_rf, f_bb = hybrid_factorize(target, 5, DescentConfig(), rng)
    res = np.linalg.norm(target - f_rf @ f_bb) / np.linalg.norm(target)
    assert res < 0.15
    np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)


def test_hybrid_power_normalization():
    rng = np.random.default_rng(7)
    target = _random_matrix(rng, 12, 2)
    f_rf, f_bb = hybrid_factorize(target, 4, DescentConfig(), rng, power_norm=3.0)
    assert np.linalg.norm(f_rf @ f_bb) ** 2 == pytest.approx(3.0, rel=1e-10)


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
        f_rf, f_bb = hybrid_factorize(target, n_rf, DescentConfig(),
                                      np.random.default_rng(seed), max_alternations=k)
        np.testing.assert_allclose(np.abs(f_rf), 1.0, rtol=1e-12)
        residuals.append(np.linalg.norm(target - f_rf @ f_bb) / np.linalg.norm(target))
    assert np.all(np.diff(residuals) <= 1e-12)


def _reference_hybrid(target, n_rf, cfg, rng, power_norm=None, max_alternations=30):
    """The plain form of the algorithm: pinv least squares, then column
    updates on an explicit residual matrix kept current with rank-one terms."""
    n = target.shape[0]
    f_rf = random_phases(rng, n * n_rf).entries.reshape(n, n_rf)
    prev_residual = np.inf
    for _ in range(max_alternations):
        f_bb = np.linalg.pinv(f_rf, rcond=1e-12) @ target
        diff = target - f_rf @ f_bb
        for k in range(n_rf):
            diff += np.outer(f_rf[:, k], f_bb[k])
            f_rf[:, k] = np.exp(1j * np.angle(diff @ f_bb[k].conj()))
            diff -= np.outer(f_rf[:, k], f_bb[k])
        residual = float(np.linalg.norm(diff))
        denom = max(prev_residual, np.finfo(float).tiny)
        if residual == 0.0 or abs(prev_residual - residual) / denom < cfg.epsilon:
            break
        prev_residual = residual
    f_bb = np.linalg.pinv(f_rf, rcond=1e-12) @ target
    if power_norm is not None:
        f_bb = f_bb * (np.sqrt(power_norm) / np.linalg.norm(f_rf @ f_bb))
    return f_rf, f_bb


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([None, 2.5]), st.sampled_from([1, 30]))
def test_hybrid_matches_residual_matrix_reference(seed, power_norm, max_alternations):
    # the Gram-matrix solve and the A/B column targets are a cheaper route
    # to the same iterates, so both forms agree from the same phase draw
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 65))
    n_s = int(rng.integers(1, 5))
    n_rf = int(rng.integers(n_s, min(n, 8) + 1))
    target = _random_matrix(rng, n, n_s)
    got_rf, got_bb = hybrid_factorize(target, n_rf, DescentConfig(),
                                      np.random.default_rng(seed), power_norm,
                                      max_alternations)
    want_rf, want_bb = _reference_hybrid(target, n_rf, DescentConfig(),
                                         np.random.default_rng(seed), power_norm,
                                         max_alternations)
    assert got_rf.shape == (n, n_rf)
    np.testing.assert_allclose(got_rf, want_rf, rtol=0, atol=1e-9)
    want = want_rf @ want_bb
    assert np.linalg.norm(got_rf @ got_bb - want) <= 1e-10 * np.linalg.norm(want)


def test_hybrid_rejects_bad_rf_count():
    rng = np.random.default_rng(9)
    target = _random_matrix(rng, 6, 3)
    with pytest.raises(ValueError):
        hybrid_factorize(target, 2, DescentConfig(), rng)   # n_rf < N_s
    with pytest.raises(ValueError):
        hybrid_factorize(target, 7, DescentConfig(), rng)   # n_rf > N
