"""Spectral efficiency and conditioning metrics, and the rate bounds of the
SVD transceiver."""

import numpy as np
import pytest

from lisim.metrics import CombinerRankError, spectral_efficiency, truncated_condition_number
from lisim.transceiver import digital_combiner, digital_precoder, truncated_svd
from transceiver_algebra import water_filling


def _random_matrix(rng, m, n):
    return (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / np.sqrt(2)


def _closed_form_rate(sigma1, powers, sigma2):
    """sum_i log2(1 + p_i sigma_i^2 / sigma2), the rate of the SVD transceiver."""
    return float(np.sum(np.log2(1.0 + powers * sigma1 ** 2 / sigma2)))


def _frobenius_bound(h, rho, n_streams, sigma2):
    """Jensen's bound N_s log2(1 + rho ||H||_F^2 / (N_s^2 sigma2)) on that rate."""
    return n_streams * np.log2(1.0 + rho * np.linalg.norm(h) ** 2 / (n_streams ** 2 * sigma2))


def _direct_log_det(h, f, w, sigma2):
    # log2 det(I + sigma^-2 (W^H W)^-1 W^H H F F^H H^H W)
    gram = np.linalg.inv(w.conj().T @ w)
    s = w.conj().T @ h @ f
    mat = np.eye(f.shape[1]) + gram @ s @ s.conj().T / sigma2
    return float(np.real(np.log2(np.linalg.det(mat))))


def test_se_matches_direct_determinant():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = _random_matrix(rng, 6, 6)
        f = _random_matrix(rng, 6, 2)
        w = _random_matrix(rng, 6, 2)
        got = spectral_efficiency(h, f, w, 0.3)
        assert got == pytest.approx(_direct_log_det(h, f, w, 0.3), rel=1e-8)


def test_se_svd_transceiver_closed_form():
    rng = np.random.default_rng(1)
    h = _random_matrix(rng, 8, 8)
    svd = truncated_svd(h, 3)
    powers, _ = water_filling(svd.sigma1, 4.0, 0.2)
    f = svd.v1 * np.sqrt(powers)
    w = digital_combiner(svd)
    got = spectral_efficiency(h, f, w, 0.2)
    want = _closed_form_rate(svd.sigma1, powers, 0.2)
    assert got == pytest.approx(want, rel=1e-9)


def test_se_invariant_to_combiner_mixing():
    rng = np.random.default_rng(2)
    h = _random_matrix(rng, 6, 6)
    f = _random_matrix(rng, 6, 2)
    w = _random_matrix(rng, 6, 2)
    base = spectral_efficiency(h, f, w, 0.5)
    mix = _random_matrix(rng, 2, 2)
    assert np.linalg.cond(mix) < 1e6
    assert spectral_efficiency(h, f, w @ mix, 0.5) == pytest.approx(base, rel=1e-8)


def _projector_se(h, f, w, sigma2):
    """The projector form: F^H H^H P_W H F with P_W = W W^+ from pinv."""
    if np.linalg.matrix_rank(w) < w.shape[1]:
        raise CombinerRankError("combiner must have full column rank")
    s = h @ f
    inner = s.conj().T @ (w @ np.linalg.pinv(w, rcond=1e-12)) @ s
    eigs = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
    return float(np.sum(np.log2(1.0 + eigs / sigma2)))


@pytest.mark.parametrize("n,n_s,n_w", [(7, 4, 4), (64, 4, 4), (64, 4, 6)],
                         ids=["core", "channel", "wide-combiner"])
def test_se_matches_projector_form(n, n_s, n_w):
    # orthonormal combiners (digital U_c), general ones (hybrid W_RF W_BB)
    rng = np.random.default_rng(n + n_w)
    for _ in range(20):
        h = _random_matrix(rng, n, n)
        f = _random_matrix(rng, n, n_s)
        general = _random_matrix(rng, n, n_w)
        orthonormal = np.linalg.qr(general)[0]
        for w in (orthonormal, general):
            want = _projector_se(h, f, w, 0.7)
            assert spectral_efficiency(h, f, w, 0.7) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n_r, l, n_t, p", [(64, 7, 64, 7), (16, 4, 16, 4), (16, 4, 3, 3)],
                         ids=["paper", "desk", "n_tx<P"])
def test_se_on_a_core_equals_the_dense_rate(n_r, l, n_t, p):
    # the sweeps rate hybrid transceivers on the path core C with the bases
    # (Q_u, Q_b) of H = Q_u C Q_b^H; a hybrid combiner has parts outside
    # span(Q_u), so its projection Q_u^H W alone is not a combiner of C
    rng = np.random.default_rng(n_r + n_t)
    q_u = np.stack([np.linalg.qr(_random_matrix(rng, n_r, l))[0] for _ in range(6)])
    q_b = np.stack([np.linalg.qr(_random_matrix(rng, n_t, p))[0] for _ in range(6)])
    core = np.stack([_random_matrix(rng, l, min(n_t, p)) for _ in range(6)])
    f = np.stack([_random_matrix(rng, n_t, 2) for _ in range(6)])
    w = np.stack([_random_matrix(rng, n_r, 2) for _ in range(6)])
    dense = q_u @ core @ q_b.conj().swapaxes(1, 2)
    want = spectral_efficiency(dense, f, w, 0.3)
    got = spectral_efficiency(core, f, w, 0.3, bases=(q_u, q_b))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for k in range(len(core)):
        assert got[k] == spectral_efficiency(core[k], f[k], w[k], 0.3, (q_u[k], q_b[k]))
    projected = spectral_efficiency(core, q_b.conj().swapaxes(1, 2) @ f,
                                    q_u.conj().swapaxes(1, 2) @ w, 0.3)
    assert np.all(np.abs(projected - want) > 1e-3 * want)


def test_se_rank_deficient_combiner():
    rng = np.random.default_rng(3)
    h = _random_matrix(rng, 4, 4)
    f = _random_matrix(rng, 4, 2)
    w = np.ones((4, 2), dtype=complex)
    with pytest.raises(CombinerRankError):
        spectral_efficiency(h, f, w, 1.0)


def test_se_digital_closed_form_value():
    # p * sigma^2 / s2 = [3, 1] -> log2(4) + log2(2) = 3
    got = _closed_form_rate(np.array([np.sqrt(3.0), 1.0]), np.array([1.0, 1.0]), 1.0)
    assert got == pytest.approx(3.0, rel=1e-12)


def test_condition_number_diagonal():
    assert truncated_condition_number(np.diag([2.0, 1.0]), 2) == pytest.approx(4.0)
    # truncation ignores trailing singular values
    assert truncated_condition_number(np.diag([2.0, 1.0, 1e-6]), 2) == pytest.approx(4.0)


def test_condition_number_rank_deficient():
    with pytest.raises(CombinerRankError):
        truncated_condition_number(np.diag([1.0, 0.0]), 2)
    with pytest.raises(CombinerRankError):
        truncated_condition_number(np.ones((2, 2)), 3)


def test_frobenius_bound_zero_channel():
    assert _frobenius_bound(np.zeros((3, 3)), 1.0, 2, 1.0) == 0.0


def test_frobenius_bound_jensen_equality():
    # equal singular values with N_s = rank: the bound is tight
    h = np.diag([2.0, 2.0])
    rho, s2 = 3.0, 0.7
    bound = _frobenius_bound(h, rho, 2, s2)
    se = _closed_form_rate(np.array([2.0, 2.0]), np.array([rho / 2, rho / 2]), s2)
    assert bound == pytest.approx(se, rel=1e-9)


def test_inequality_chain():
    # SE_wf <= N_s log2(1 + rho tr(Sigma1^2)/(N_s^2 s2)) <= frobenius bound
    for seed in range(100):
        r = np.random.default_rng(seed)
        h = _random_matrix(r, 6, 6)
        rho = float(r.uniform(0.5, 10.0))
        s2 = float(r.uniform(0.05, 1.0))
        svd = truncated_svd(h, 3)
        powers, _ = water_filling(svd.sigma1, rho, s2)
        se = _closed_form_rate(svd.sigma1, powers, s2)
        mid = 3 * np.log2(1.0 + rho * np.sum(svd.sigma1 ** 2) / (9 * s2))
        bound = _frobenius_bound(h, rho, 3, s2)
        assert se <= mid + 1e-9
        assert mid <= bound + 1e-9


def test_global_phase_invariance():
    rng = np.random.default_rng(5)
    h = _random_matrix(rng, 5, 5)
    rot = np.exp(1j * 1.234) * h
    f = _random_matrix(rng, 5, 2)
    w = _random_matrix(rng, 5, 2)
    assert spectral_efficiency(rot, f, w, 0.4) == pytest.approx(
        spectral_efficiency(h, f, w, 0.4), rel=1e-10)
    assert truncated_condition_number(rot, 2) == pytest.approx(
        truncated_condition_number(h, 2), rel=1e-10)


@pytest.mark.parametrize("n,n_s", [(7, 4), (4, 2), (64, 4)],
                         ids=["paper-core", "desk-core", "lifted"])
def test_stacked_digital_stage_equals_each_matrix_alone(n, n_s):
    # the sweeps run the digital stage on stacks of path cores (L x P), and
    # the tests check them on dense N_r x N_t channels; each matrix of a
    # stack must get the bits it gets alone
    rng = np.random.default_rng(n)
    h = np.stack([_random_matrix(rng, n, n) for _ in range(5)])
    rho = rng.uniform(0.1, 10.0, len(h))
    svd = truncated_svd(h, n_s)
    f, w = digital_precoder(svd.v1, rho), digital_combiner(svd)
    se = spectral_efficiency(h, f, w, 0.3)
    cond = truncated_condition_number(h, n_s)
    cond_given = truncated_condition_number(h, n_s, svd.sigma1)
    assert se.shape == cond.shape == (len(h),)
    for k in range(len(h)):
        alone = truncated_svd(h[k], n_s)
        np.testing.assert_array_equal(svd.u1[k], alone.u1)
        np.testing.assert_array_equal(svd.sigma1[k], alone.sigma1)
        np.testing.assert_array_equal(svd.v1[k], alone.v1)
        f_alone = digital_precoder(alone.v1, rho[k])
        np.testing.assert_array_equal(f[k], f_alone)
        np.testing.assert_array_equal(
            se[k], spectral_efficiency(h[k], f_alone, digital_combiner(alone), 0.3))
        np.testing.assert_array_equal(cond[k], truncated_condition_number(h[k], n_s))
        np.testing.assert_array_equal(
            cond_given[k], truncated_condition_number(h[k], n_s, alone.sigma1))


def test_stack_with_one_bad_matrix_raises():
    rng = np.random.default_rng(4)
    h = np.stack([_random_matrix(rng, 4, 4), np.diag([1.0, 0.0, 0.0, 0.0])])
    with pytest.raises(CombinerRankError):
        truncated_condition_number(h, 2)
    w = np.stack([_random_matrix(rng, 4, 2), np.ones((4, 2))])
    with pytest.raises(CombinerRankError):
        spectral_efficiency(h, w, w, 1.0)
