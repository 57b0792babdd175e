"""The path core against the dense cascade channel it replaces in the sweeps.

A sweep trial runs on the L x P core of the cascade channel. The dense
oracle is the chain it replaced: assemble_channels -> effective_channel ->
truncated_svd -> spectral_efficiency on N_r x N_t matrices, fed with the
paths, phases and analog starts the trial used. A sweep group builds one
stacked core of its points' path sets; each row must equal the core of its
path set built alone, and designs that read one row in place must equal
designs on its gathered copies.
"""

import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lisim import harness
from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    PathCore,
    assemble_channels,
    effective_channel,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.config import ExperimentConfig, _specialize, load_config
from lisim.harness import _designs, _run_group, _stacks
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


def _at(core, v):
    """The (T, ., .) core matrices left X(v) right at the (T, M) phases v."""
    return core.left @ core.gains(v) @ core.right


def _lift(core, c):
    """The dense (T, N_r, N_t) channels Q_u c Q_b^H of (T, ., .) core matrices c."""
    return core.q_u @ c @ core.q_b.conj().swapaxes(1, 2)


def _dense_trial(cfg, seen):
    """(sigma of the estimated channel, cond, digital SE, hybrid SE), all dense."""
    tx_g, rx_g = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
    budget, n_s = cfg.budget, cfg.n_streams
    paths = sort_paths_descending(seen["sample_paths"])
    est_paths = sort_paths_descending(seen.get("perturb_angles", paths))
    v = seen["random_phases"]
    h_est = effective_channel(assemble_channels(est_paths, cfg.geometry, tx_g, rx_g), v)
    h_true = effective_channel(assemble_channels(paths, cfg.geometry, tx_g, rx_g), v)
    svd = truncated_svd(h_est, n_s)
    f = digital_precoder(svd, budget.tx_power)
    w = digital_combiner(svd)
    # each side factored alone, as a stack of one, and the precoder set to
    # the transmit power
    f_start, w_start = seen["hybrid_starts"][:1], seen["hybrid_starts"][1:]
    f_rf, f_bb, _ = hybrid_factorize(f[None], f_start, cfg.descent)
    w_rf, w_bb, _ = hybrid_factorize(w[None], w_start, cfg.descent)
    f_hybrid = f_rf[0] @ f_bb[0]
    f_hybrid *= np.sqrt(budget.tx_power) / np.linalg.norm(f_hybrid)
    return (svd.sigma1, truncated_condition_number(h_true, n_s),
            spectral_efficiency(h_true, f, w, budget.noise_power),
            spectral_efficiency(h_true, f_hybrid, w_rf[0] @ w_bb[0], budget.noise_power))


@pytest.mark.parametrize("cfg", [PAPER, DESK], ids=["paper", "desk"])
def test_trial_on_the_core_matches_the_dense_channel(monkeypatch, cfg):
    spy = _Spy(monkeypatch)
    tx_g, rx_g = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
    worst = 0.0
    for si in range(len(cfg.sweep_values)):
        for ti in range(cfg.trials):
            spy.seen.clear()
            found = _run_group(cfg, _specialize(cfg), [(si, ti)])
            conds, rates = found.cond[0, 0], found.rate[0, 0]   # digital, then hybrid
            sigma, cond, se, se_hybrid = _dense_trial(cfg, spy.seen)
            est_paths = sort_paths_descending(
                spy.seen.get("perturb_angles", spy.seen["sample_paths"]))
            core = path_core([est_paths], cfg.geometry, tx_g, rx_g)
            core_sigma = truncated_svd(
                _at(core, spy.seen["random_phases"][None])[0], cfg.n_streams).sigma1
            errors = [np.max(np.abs(core_sigma - sigma) / sigma),
                      abs(conds[0] - cond) / cond, abs(conds[1] - cond) / cond,
                      abs(rates[0] - se) / se, abs(rates[1] - se_hybrid) / se_hybrid]
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
    np.testing.assert_allclose(_lift(core, _at(core, v[None]))[0], dense, rtol=0,
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
    at = _at(stacked, v)
    lifted = _lift(stacked, at)
    for i, paths in enumerate(path_sets):
        alone = path_core([paths], geometry, 2.0, 0.5)
        for name in ("bank", "q_u", "q_b", "left", "right"):
            np.testing.assert_array_equal(getattr(stacked, name)[i], getattr(alone, name)[0])
        np.testing.assert_array_equal(at[i], _at(alone, v[i:i + 1])[0])
        np.testing.assert_array_equal(lifted[i], _lift(alone, _at(alone, v[i:i + 1]))[0])


# -- one bank read in place ----------------------------------------------------
#
# A group's designs that all sit on one core row (a one-trial power sweep's
# `tsvd` designs, one per power) read that row in place: `PathCore.__getitem__`
# gives stride-0 views, and every stage must give the bits it gives on n
# gathered copies of the row.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _gathered(core):
    """`core` with every array copied into its own C-ordered rows."""
    return PathCore(*(np.ascontiguousarray(getattr(core, f.name)) for f in fields(core)))


def _desk_core(trials):
    rng = np.random.default_rng(4)
    path_sets = [sort_paths_descending(sample_paths(rng, DESK.geometry, LinkBudget(), 4, 4))
                 for _ in range(trials)]
    return path_core(path_sets, DESK.geometry, 2.0, 0.5)


def test_a_list_of_one_row_gives_stride_0_views():
    core = _desk_core(3)
    # a negative row counts from the end, as in the gather
    for rows in ([1, 1, 1, 1], [-1, -1]):
        shared = core[rows]
        for f in fields(core):
            a, whole = getattr(shared, f.name), getattr(core, f.name)
            assert a.shape == (len(rows),) + whole.shape[1:]
            assert a.strides[0] == 0 and not a.flags.writeable
            assert np.shares_memory(a, whole)
            np.testing.assert_array_equal(*(np.ascontiguousarray(x).view(np.uint64)
                                            for x in (a, whole[rows])))
    # an out-of-range row raises, as in the gather
    for rows in ([3, 3], [-4, -4], [3, 0]):
        with pytest.raises(IndexError):
            core[rows]
    # rows out of order are gathered copies, read-only like the core
    for rows in ([1, 2, 1], [2, 1]):
        assert all(getattr(core[rows], f.name).flags.owndata for f in fields(core))
        assert not any(getattr(core[rows], f.name).flags.writeable for f in fields(core))
    with pytest.raises(ValueError):
        shared.bank[0, 0, 0] = 0.0


def test_a_list_of_consecutive_rows_gives_views():
    core = _desk_core(5)
    assert core[list(range(5))] is core
    for rows in ([1, 2, 3], [4], [0, 1]):
        part = core[rows]
        for f in fields(core):
            a, whole = getattr(part, f.name), getattr(core, f.name)
            assert not a.flags.owndata and np.shares_memory(a, whole)
            np.testing.assert_array_equal(*(np.ascontiguousarray(x).view(np.uint64)
                                            for x in (a, whole[rows])))


def test_path_cores_are_read_only():
    core = _desk_core(3)
    for part in (core, core[1:], core[[0, 1]], core[[2, 0]]):
        for f in fields(core):
            with pytest.raises(ValueError, match="read-only"):
                getattr(part, f.name)[0] *= 2.0


def test_a_paper_group_gives_every_method_its_core(monkeypatch):
    # an 8-trial group at one transmit power: each method's designs are the
    # trials in order, so all three read the group's core with no gather
    cfg = replace(load_config(CONFIGS / "default.cfg"), trials=8)
    made = []
    monkeypatch.setattr(harness, "path_core",
                        lambda *args: made.append(path_core(*args)) or made[-1])
    _, stacks = _stacks(cfg, _specialize(cfg), [(0, ti) for ti in range(cfg.trials)])
    (core,) = made
    for method in cfg.methods:
        group = stacks[method]
        assert group.est is group.true and not group.erred.any()
        for f in fields(core):
            assert np.shares_memory(getattr(group.true, f.name), getattr(core, f.name))


def _one_trial_stacks(name):
    """A one-trial group of a shipped config at every sweep value, drawn afresh."""
    cfg = replace(load_config(CONFIGS / f"{name}.cfg"), trials=1)
    specs = _specialize(cfg)
    return cfg, _stacks(cfg, specs, [(si, 0) for si in range(len(specs))])[1]


def test_a_power_sweep_trial_gives_tsvd_one_bank():
    cfg, stacks = _one_trial_stacks("power_sweep")
    group = stacks["tsvd"]
    assert len(group.points) == len(cfg.sweep_values) > 1
    assert group.true.bank.strides[0] == 0 and group.est is group.true
    # spgm and random share one design, which reads the core's one row in place
    assert not stacks["spgm"].true.bank.flags.owndata
    assert np.shares_memory(stacks["spgm"].true.bank, group.true.bank)


@pytest.mark.parametrize("name", ["power_sweep", "csi_sweep"])
def test_designs_on_one_bank_equal_designs_on_its_copies(name):
    # csi_sweep: the true cores are one row, the estimated ones are not
    cfg, stacks = _one_trial_stacks(name)
    shared = stacks["tsvd"]
    assert shared.true.bank.strides[0] == 0
    assert (name == "csi_sweep") == shared.erred.any()
    _, again = _one_trial_stacks(name)   # fresh generators for the same starts
    copy = again["tsvd"]
    true = _gathered(copy.true)
    copy = replace(copy, true=true, est=_gathered(copy.est) if copy.erred.any() else true)
    one, other = _designs("tsvd", shared, cfg), _designs("tsvd", copy, cfg)
    for f in fields(one):
        np.testing.assert_array_equal(getattr(one, f.name), getattr(other, f.name))


def test_a_power_sweep_trial_reads_its_bank_once():
    # the 7 tsvd designs read one 196 KiB bank in place, with no gathered
    # copies and no copy for the rate descent (3.4 MiB when they were made)
    cfg = replace(load_config(CONFIGS / "power_sweep.cfg"), trials=1)
    specs, tasks = _specialize(cfg), [(si, 0) for si in range(len(cfg.sweep_values))]
    _run_group(cfg, specs, tasks)   # first calls set up what later calls reuse
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _run_group(cfg, specs, tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
