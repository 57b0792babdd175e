"""The path core against the dense cascade channel it replaces in the sweeps.

A sweep trial runs on the L x P core of the cascade channel. The dense
oracle is the chain it replaced: assemble_channels -> effective_channel ->
truncated_svd -> spectral_efficiency on N_r x N_t matrices, fed with the
paths, phases and analog starts the trial used. A sweep group builds one
stacked core of its points' path sets; each row must equal the core of its
path set built alone.
"""

import numpy as np
import pytest

from lisim import harness
from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    assemble_channels,
    effective_channel,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.harness import ExperimentConfig, _run_trial
from lisim.metrics import spectral_efficiency, truncated_condition_number
from lisim.transceiver import (
    digital_combiner,
    digital_precoder,
    hybrid_factorize,
    truncated_svd,
)
from lisim.units import dbi_to_amplitude, dbm_to_watt

SWEEP = dict(sweep_variable="angle_error_deg", sweep_values=(0.0, 1.0), trials=20,
             methods=("random",), precoding="both", seed=5)
PAPER = ExperimentConfig(**SWEEP)
DESK = ExperimentConfig(
    geometry=ArrayGeometry(n_tx=16, n_rx=16, lis_y=8, lis_z=8),
    budget=LinkBudget(tx_power=dbm_to_watt(40.0)),
    n_streams=2, n_rf_tx=3, n_rf_rx=3, p_paths=4, l_paths=4, **SWEEP)


class _Spy:
    """Records what a trial drew: paths, estimated paths, phases, and the analog
    starts of the trial's hybrid call, its precoder's, then its combiner's."""

    def __init__(self, monkeypatch):
        self.seen = {}
        for name in ("sample_paths", "perturb_angles", "random_phases"):
            monkeypatch.setattr(harness, name, self._recording(name, getattr(harness, name)))
        real_hybrid = harness.hybrid_factorize

        def hybrid(targets, start, cfg, *args, **kwargs):
            self.seen["hybrid_starts"] = start.copy()
            return real_hybrid(targets, start, cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "hybrid_factorize", hybrid)

    def _recording(self, name, fn):
        def recorded(*args, **kwargs):
            self.seen[name] = fn(*args, **kwargs)
            return self.seen[name]
        return recorded


def _lift(core, c):
    """The dense (T, N_r, N_t) channels Q_u c Q_b^H of (T, ., .) core matrices c."""
    return core.q_u @ c @ core.q_b.conj().swapaxes(1, 2)


def _dense_trial(cfg, seen):
    """(sigma of the estimated channel, cond, digital SE, hybrid SE), all dense."""
    tx_g, rx_g = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
    budget, n_s = cfg.budget, cfg.n_streams
    paths = sort_paths_descending(seen["sample_paths"])
    est_paths = sort_paths_descending(seen.get("perturb_angles", paths))
    v = seen["random_phases"].entries
    h_est = effective_channel(assemble_channels(est_paths, cfg.geometry, tx_g, rx_g), v)
    h_true = effective_channel(assemble_channels(paths, cfg.geometry, tx_g, rx_g), v)
    svd = truncated_svd(h_est, n_s)
    f = digital_precoder(svd, budget.tx_power)
    w = digital_combiner(svd)
    # each side factored alone, as a stack of one
    f_start, w_start = seen["hybrid_starts"][:1], seen["hybrid_starts"][1:]
    f_rf, f_bb = hybrid_factorize(f[None], f_start, cfg.descent, [budget.tx_power])
    w_rf, w_bb = hybrid_factorize(w[None], w_start, cfg.descent)
    return (svd.sigma1, truncated_condition_number(h_true, n_s),
            spectral_efficiency(h_true, f, w, budget.noise_power),
            spectral_efficiency(h_true, f_rf[0] @ f_bb[0], w_rf[0] @ w_bb[0],
                                budget.noise_power))


@pytest.mark.parametrize("cfg", [PAPER, DESK], ids=["paper", "desk"])
def test_trial_on_the_core_matches_the_dense_channel(monkeypatch, cfg):
    spy = _Spy(monkeypatch)
    tx_g, rx_g = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
    worst = 0.0
    for si, beta in enumerate(cfg.sweep_values):
        for ti in range(cfg.trials):
            spy.seen.clear()
            digital, hybrid = _run_trial(cfg, si, ti, beta)
            sigma, cond, se, se_hybrid = _dense_trial(cfg, spy.seen)
            est_paths = sort_paths_descending(
                spy.seen.get("perturb_angles", spy.seen["sample_paths"]))
            core = path_core([est_paths], cfg.geometry, tx_g, rx_g)
            core_sigma = truncated_svd(
                core.at(spy.seen["random_phases"].entries[None])[0], cfg.n_streams).sigma1
            errors = [np.max(np.abs(core_sigma - sigma) / sigma),
                      abs(digital.cond - cond) / cond, abs(hybrid.cond - cond) / cond,
                      abs(digital.se - se) / se, abs(hybrid.se - se_hybrid) / se_hybrid]
            worst = max(worst, *errors)
    assert worst < 1e-10


def test_path_core_lifts_to_the_dense_channel():
    # fewer BS antennas than BS->LIS paths: Q_b is square and T_b is 3 x 5
    rng = np.random.default_rng(3)
    geometry = ArrayGeometry(n_tx=3, n_rx=16, lis_y=2, lis_z=4)
    paths = sample_paths(rng, geometry, LinkBudget(), 5, 4)
    core = path_core([paths], geometry, 2.0, 0.5)
    assert core.q_b.shape == (1, 3, 3) and core.right.shape == (1, 5, 3)
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, geometry.m))
    dense = effective_channel(assemble_channels(paths, geometry, 2.0, 0.5), v)
    np.testing.assert_allclose(_lift(core, core.at(v[None]))[0], dense, rtol=0,
                               atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("geometry, p, l, trials", [
    (PAPER.geometry, 7, 7, 5),
    (DESK.geometry, 4, 4, 64),
    (ArrayGeometry(n_tx=3, n_rx=16, lis_y=2, lis_z=4), 5, 4, 6),   # n_tx < P
], ids=["paper", "desk", "n_tx<P"])
def test_stacked_path_core_equals_stacks_of_one(geometry, p, l, trials):
    rng = np.random.default_rng(11)
    path_sets = [sort_paths_descending(sample_paths(rng, geometry, LinkBudget(), p, l))
                 for _ in range(trials)]
    stacked = path_core(path_sets, geometry, 2.0, 0.5)
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, (trials, geometry.m)))
    at = stacked.at(v)
    lifted = _lift(stacked, at)
    for i, paths in enumerate(path_sets):
        alone = path_core([paths], geometry, 2.0, 0.5)
        for name in ("bank", "q_u", "q_b", "left", "right"):
            np.testing.assert_array_equal(getattr(stacked, name)[i], getattr(alone, name)[0])
        np.testing.assert_array_equal(at[i], alone.at(v[i:i + 1])[0])
        np.testing.assert_array_equal(lifted[i], _lift(alone, alone.at(v[i:i + 1]))[0])
