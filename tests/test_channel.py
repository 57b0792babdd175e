"""Channel synthesis: steering vectors, path sampling, assembly identities."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lisim.channel import (
    ArrayGeometry,
    ChannelShapeError,
    LinkBudget,
    assemble_channels,
    composite_path_vectors,
    effective_channel,
    path_loss_db,
    perturb_angles,
    sample_paths,
    sort_paths_descending,
    ula_responses,
    upa_responses,
)
from lisim.passive_bf import random_phases
from lisim.units import dbm_to_watt

GEOMETRY = ArrayGeometry(n_tx=8, n_rx=8, lis_y=4, lis_z=4)
BUDGET = LinkBudget(tx_power=dbm_to_watt(40.0))


def _no_shadow(budget):
    from dataclasses import replace
    return replace(budget, shadow_sigma=0.0)


# -- steering vectors --------------------------------------------------------

def test_ula_closed_form():
    # sin(pi/6) = 1/2, half-wavelength spacing: phases are pi*k/2
    got = ula_responses(np.pi / 6, 4)
    want = np.array([1.0, 1j, -1.0, -1j]) / 2.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ula_unit_norm_and_broadside():
    np.testing.assert_allclose(np.linalg.norm(ula_responses(0.37, 16)), 1.0, rtol=1e-12)
    np.testing.assert_allclose(ula_responses(0.0, 5), np.ones(5) / np.sqrt(5), atol=1e-12)


def test_upa_closed_form():
    # theta = pi/2, eta = 0: phase = pi*m1, z-index m2 varies fastest
    got = upa_responses(np.pi / 2, 0.0, 2, 2)
    want = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_upa_elevation_only():
    # theta = 0: phase depends only on m2 through sin(eta)
    eta = 0.4
    got = upa_responses(0.0, eta, 3, 2)
    col = np.exp(2j * np.pi * 0.5 * np.arange(2) * np.sin(eta))
    want = np.tile(col, 3) / np.sqrt(6)
    np.testing.assert_allclose(got, want, atol=1e-12)


@given(st.floats(-1.5, 1.5), st.floats(-0.7, 0.7), st.integers(1, 6), st.integers(1, 6))
def test_upa_entry_modulus(theta, eta, m_y, m_z):
    a = upa_responses(theta, eta, m_y, m_z)
    np.testing.assert_allclose(np.abs(a), 1.0 / np.sqrt(m_y * m_z), rtol=1e-12)


def test_ula_rejects_empty():
    with pytest.raises(ValueError):
        ula_responses(0.1, 0)


def test_batched_responses_match_single_vectors():
    # assemble_channels and composite_path_vectors use the batched forms;
    # each row must be exactly the single-angle vector.
    rng = np.random.default_rng(11)
    thetas, etas = rng.uniform(-1.5, 1.5, 5), rng.uniform(-0.7, 0.7, 5)
    rows = ula_responses(thetas, 7, 0.4)
    assert rows.shape == (5, 7)
    planar = upa_responses(thetas, etas, 3, 4)
    assert planar.shape == (5, 12)
    for k in range(5):
        assert np.array_equal(rows[k], ula_responses(thetas[k], 7, 0.4))
        assert np.array_equal(planar[k], upa_responses(thetas[k], etas[k], 3, 4))


# -- path loss and sampling --------------------------------------------------

def test_path_loss_frozen_value():
    rng = np.random.default_rng(0)
    # 61.4 + 20 log10(148), no shadowing
    got = path_loss_db(148.0, _no_shadow(BUDGET), rng)
    assert got == pytest.approx(104.80523430789916, rel=1e-12)


def test_path_loss_shadowing_statistics():
    rng = np.random.default_rng(1)
    draws = np.array([path_loss_db(148.0, BUDGET, rng) for _ in range(4000)])
    assert draws.mean() == pytest.approx(104.805, abs=0.4)
    assert draws.std() == pytest.approx(5.8, rel=0.1)


def test_sample_paths_shapes_and_angle_ranges():
    rng = np.random.default_rng(2)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 5, 3)
    assert paths.n_bs_lis == 5 and paths.n_lis_ue == 3
    for az in (paths.bs_lis_aod, paths.bs_lis_aoa_az, paths.lis_ue_aod_az,
               paths.lis_ue_aoa):
        assert np.all(np.abs(az) <= np.pi / 2)
    for el in (paths.bs_lis_aoa_el, paths.lis_ue_aod_el):
        assert np.all(np.abs(el) <= np.pi / 4)


def test_sample_paths_rician_offset():
    # LOS (first) path should carry ~10 dB more power than each NLOS path.
    rng = np.random.default_rng(3)
    budget = _no_shadow(BUDGET)
    los, nlos = [], []
    for _ in range(2000):
        paths = sample_paths(rng, GEOMETRY, budget, 4, 1)
        los.append(np.abs(paths.bs_lis_gain[0]) ** 2)
        nlos.extend(np.abs(paths.bs_lis_gain[1:]) ** 2)
    ratio_db = 10 * np.log10(np.mean(los) / np.mean(nlos))
    assert ratio_db == pytest.approx(10.0, abs=1.0)


def test_sample_paths_array_prefactor():
    # E|gain|^2 summed over paths is N_a * N_b * 10^(-kappa/10) per link
    # (up to the LOS/NLOS offset); check the scale for a single LOS path.
    rng = np.random.default_rng(4)
    budget = _no_shadow(BUDGET)
    second = np.mean([
        np.abs(sample_paths(rng, GEOMETRY, budget, 1, 1).bs_lis_gain[0]) ** 2
        for _ in range(3000)])
    kappa = 61.4 + 20 * np.log10(148.0)
    want = GEOMETRY.n_tx * GEOMETRY.m * 10 ** (-kappa / 10)
    assert second == pytest.approx(want, rel=0.1)


def test_sort_paths_descending():
    rng = np.random.default_rng(5)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 6, 4)
    sorted_paths = sort_paths_descending(paths)
    mags = np.abs(sorted_paths.bs_lis_gain)
    assert np.all(mags[:-1] >= mags[1:])
    mags = np.abs(sorted_paths.lis_ue_gain)
    assert np.all(mags[:-1] >= mags[1:])
    # sorting keeps (gain, angles) rows together
    i = np.argmax(np.abs(paths.bs_lis_gain))
    assert sorted_paths.bs_lis_aod[0] == paths.bs_lis_aod[i]
    # idempotent
    again = sort_paths_descending(sorted_paths)
    np.testing.assert_array_equal(again.bs_lis_gain, sorted_paths.bs_lis_gain)


# -- assembly and decomposition identities -----------------------------------

def test_effective_channel_matches_triple_product():
    rng = np.random.default_rng(6)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 3, 3)
    chan = assemble_channels(paths, GEOMETRY, tx_gain=2.0, rx_gain=0.5)
    v = random_phases(rng, GEOMETRY.m)
    naive = 2.0 * 0.5 * chan.r @ np.diag(v.conj()) @ chan.g
    np.testing.assert_allclose(effective_channel(chan, v), naive, rtol=1e-12)


def test_effective_channel_composite_path_decomposition():
    # H_eff = sum_ij beta_i alpha_j (v^H p^ij) a_ue(i) a_bs(j)^H
    rng = np.random.default_rng(7)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 3, 2)
    chan = assemble_channels(paths, GEOMETRY)
    bank = composite_path_vectors(paths, GEOMETRY)
    v = random_phases(rng, GEOMETRY.m)
    h = np.zeros((GEOMETRY.n_rx, GEOMETRY.n_tx), dtype=complex)
    for i in range(paths.n_lis_ue):
        a_ue = ula_responses(paths.lis_ue_aoa[i], GEOMETRY.n_rx)
        for j in range(paths.n_bs_lis):
            a_bs = ula_responses(paths.bs_lis_aod[j], GEOMETRY.n_tx)
            d_ij = v.conj() @ bank[i, j]
            h += (paths.lis_ue_gain[i] * paths.bs_lis_gain[j] * d_ij
                  * np.outer(a_ue, a_bs.conj()))
    np.testing.assert_allclose(effective_channel(chan, v), h, rtol=1e-10)


def test_composite_vector_modulus():
    rng = np.random.default_rng(8)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 2, 2)
    bank = composite_path_vectors(paths, GEOMETRY)
    np.testing.assert_allclose(np.abs(bank), 1.0 / GEOMETRY.m, rtol=1e-12)


def test_effective_channel_rejects_wrong_length():
    rng = np.random.default_rng(9)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 2, 2)
    chan = assemble_channels(paths, GEOMETRY)
    with pytest.raises(ChannelShapeError):
        effective_channel(chan, np.ones(3, dtype=complex))


# -- angle perturbation ------------------------------------------------------

def test_perturb_angles_zero_is_identity():
    rng = np.random.default_rng(10)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 3, 3)
    assert perturb_angles(paths, 0.0, rng) is paths


def test_perturb_angles_bounded_and_gain_preserving():
    rng = np.random.default_rng(11)
    paths = sample_paths(rng, GEOMETRY, BUDGET, 4, 4)
    beta = 0.05
    noisy = perturb_angles(paths, beta, rng)
    np.testing.assert_array_equal(noisy.bs_lis_gain, paths.bs_lis_gain)
    assert np.all(np.abs(noisy.bs_lis_aod - paths.bs_lis_aod) <= beta)
    assert np.all(np.abs(noisy.lis_ue_aod_el - paths.lis_ue_aod_el) <= beta)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_perturbed_sorted_paths_stay_sorted(seed):
    # a sweep perturbs its sorted true paths and does not sort them again:
    # only angles move, so the stable sort of the result is the identity
    rng = np.random.default_rng(seed)
    paths = sort_paths_descending(sample_paths(rng, GEOMETRY, BUDGET, 5, 4))
    noisy = perturb_angles(paths, 0.03, rng)
    assert noisy.bs_lis_gain is paths.bs_lis_gain
    assert noisy.lis_ue_gain is paths.lis_ue_gain
    again = sort_paths_descending(noisy)
    for f in fields(noisy):
        np.testing.assert_array_equal(getattr(again, f.name), getattr(noisy, f.name))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_sample_paths_deterministic(seed):
    a = sample_paths(np.random.default_rng(seed), GEOMETRY, BUDGET, 3, 3)
    b = sample_paths(np.random.default_rng(seed), GEOMETRY, BUDGET, 3, 3)
    np.testing.assert_array_equal(a.bs_lis_gain, b.bs_lis_gain)
    np.testing.assert_array_equal(a.lis_ue_aoa, b.lis_ue_aoa)
