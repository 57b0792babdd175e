"""Config parsing, sweep execution, CSV emission, and the brute-force oracle."""

import math
import re
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    path_core,
    sample_paths,
    sort_paths_descending,
    ula_responses,
)
from lisim.config import (
    KEYS,
    METHODS,
    ConfigError,
    ExperimentConfig,
    _apply_sweep,
    _specialize,
    load_config,
)
from lisim.harness import (
    CSV_COLUMNS,
    SweepRow,
    _Trials,
    _draw_point,
    _run_group,
    _sweep_rows,
    brute_force_phase_oracle,
    emit_csv,
    run_sweep,
)
from lisim.manifold import DescentConfig
from lisim.passive_bf import stream_weights, tsvd_objective
from lisim.units import dbm_to_watt, thermal_noise_dbm


SMALL = ExperimentConfig(
    geometry=ArrayGeometry(n_tx=8, n_rx=8, lis_y=4, lis_z=4),
    budget=LinkBudget(tx_power=dbm_to_watt(40.0)),
    n_streams=2, n_rf_tx=3, n_rf_rx=3, p_paths=3, l_paths=3,
    sweep_values=(35.0, 40.0), trials=3, seed=42)


def _alone(cfg, task):
    """The per-trial values of one (sweep index, trial index) task, run as
    a group of one point: arrays (1, methods, modes)."""
    return _run_group(cfg, _specialize(cfg), [task])


def _write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# -- config parsing ----------------------------------------------------------

def test_load_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "# empty\n"))
    assert cfg.geometry.n_tx == 64 and cfg.geometry.m == 256
    assert cfg.n_streams == 4 and cfg.n_rf_tx == 6
    assert cfg.budget.tx_power == pytest.approx(1.0)          # 30 dBm
    assert cfg.budget.noise_power == pytest.approx(1e-12, rel=1e-3)
    assert cfg.bs_lis_distance == pytest.approx(148.0, abs=0.02)
    assert cfg.lis_ue_distance == pytest.approx(9.8, abs=0.05)
    assert cfg.sweep_variable == "tx_power_dbm"
    assert cfg.methods == ("tsvd", "spgm", "random")


def test_load_config_defaults_are_the_dataclass_defaults(tmp_path):
    # only the noise floor is derived: the thermal floor of the bandwidth,
    # -90.00000075 dBm, where LinkBudget's own default is -90 dBm
    from dataclasses import replace
    base = ExperimentConfig()
    noise = dbm_to_watt(thermal_noise_dbm(base.budget.bandwidth_hz))
    assert load_config(_write(tmp_path, "trials = 7\n")) == replace(
        base, trials=7, budget=replace(base.budget, noise_power=noise))


def test_load_config_overrides(tmp_path):
    cfg = load_config(_write(tmp_path, """
        n_tx = 16          # comment after value
        lis_y = 8
        lis_z = 4
        n_streams = 2
        r_t = 3
        r_r = 3
        p_paths = 3
        l_paths = 3
        tx_power_dbm = 40
        sweep_variable = lis_elements
        sweep_values = 32, 64
        methods = tsvd, random
        precoding = both
        bs_pos = 0, 0, 10
        trials = 7
        seed = 9
    """))
    assert cfg.geometry.n_tx == 16 and cfg.geometry.m == 32
    assert cfg.budget.tx_power == pytest.approx(10.0)
    assert cfg.sweep_values == (32.0, 64.0)
    assert cfg.methods == ("tsvd", "random")
    assert cfg.precoding == "both"
    assert cfg.bs_pos == (0.0, 0.0, 10.0)
    assert cfg.trials == 7 and cfg.seed == 9


@pytest.mark.parametrize("line,fragment", [
    ("bogus_key = 3", "unknown key"),
    ("n_tx", "expected 'key = value'"),
    ("n_tx = abc", "cannot parse"),
    ("bs_pos = 1, 2", "x,y,z triple"),
    ("sweep_values =", "non-empty"),
    ("sweep_variable = frequency", "unknown sweep variable"),
    ("methods = tsvd, bogus", "methods"),
    ("precoding = analog", "precoding"),
    ("carrier_hz = 28e9", "unknown key"),
    ("n_streams = 2\nr_t = 3\nsweep_variable = n_streams\nsweep_values = 2, 4",
     "n_streams must not exceed"),
    ("sweep_variable = lis_elements\nsweep_values = 256, 100", "multiples of lis_y"),
    ("lis_y = 8\nsweep_variable = lis_elements\nsweep_values = 64.5", "integers"),
    ("sweep_variable = n_rf\nsweep_values = 6, 3", "n_streams must not exceed"),
    ("sweep_variable = n_rf\nsweep_values = 4.5", "integers"),
    ("n_tx = 0", "counts must be >= 1"),
    ("spacing_ratio = 0", "spacing_ratio must be positive"),
    ("bandwidth_hz = -1", "bandwidth must be positive"),
    ("descent_epsilon = 0", "epsilon must be positive"),
    ("descent_max_iters = 0", "max_iters must be >= 1"),
    ("descent_max_iters = 2.5", "cannot parse"),
    ("sweep_variable = angle_error_deg\nsweep_values = 0, -1", "non-negative"),
    ("n_tx = 4\nn_rx = 16\nr_t = 6\nr_r = 3\nn_streams = 3\nprecoding = hybrid",
     "RF chain counts must not exceed"),
    ("tx_power_dbm = 40\nsweep_values = 30, 40", "takes its powers from sweep_values"),
    ("tx_power_dbm = 40\nsweep_variable = tx_power_dbm\nsweep_values = 40",
     "takes its powers from sweep_values"),
    ("descent_epsilon = nan", "must be finite"),
    ("sweep_values = nan", "must be finite"),
    ("sweep_variable = angle_error_deg\nsweep_values = inf", "must be finite"),
    ("sweep_values = 1e4", "out of range"),   # 10^997 W overflows
    ("tx_power_dbm = 1e4", "out of range"),
    ("noise_dbm = 1e4", "out of range"),
    ("rx_gain_dbi = 1e4", "positive, finite amplitude"),   # 10^500 overflows
    ("tx_gain_dbi = -1e4", "positive, finite amplitude"),  # 10^-500 is 0
    ("methods = tsvd, tsvd", "must not repeat"),
    ("trials = 2\ntrials = 3", "line 2: 'trials' is set twice"),
    ("n_streams = 0", "n_streams must be >= 1"),
    ("sweep_variable = n_streams\nsweep_values = 0, 2", "n_streams must be >= 1"),
    ("seed = -1", "seed must be non-negative"),
    ("bs_pos = 0, 148, 10", "must differ from lis_pos"),
    ("ue_pos = 0, 148, 10", "must differ from lis_pos"),
    ("sweep_values = 30,,40", "line 1: cannot parse value for 'sweep_values': ''"),
    ("methods = tsvd,", "line 1: cannot parse value for 'methods': ''"),
])
def test_load_config_errors(tmp_path, line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(_write(tmp_path, line + "\n"))


@pytest.mark.parametrize("text", [
    "p_paths = 3\nl_paths = 3\nsweep_variable = n_streams\nsweep_values = 1, 2",
    "r_t = 2\nr_r = 2\nsweep_variable = n_streams\nsweep_values = 1, 2",
    "n_streams = 8\np_paths = 8\nl_paths = 8\nsweep_variable = n_rf\nsweep_values = 8, 10",
], ids=["streams-over-paths", "streams-over-rf-chains", "rf-chains-under-streams"])
def test_a_count_sweep_checks_its_points_not_the_unswept_count(tmp_path, text):
    # every point is valid; the count the sweep replaces (4 streams or 6 RF
    # chains by default) is not, and no point reads it
    cfg = replace(load_config(_write(tmp_path, text + "\n")), trials=1)
    rows = run_sweep(cfg).rows
    assert [row.sweep_value for row in rows] == [v for v in cfg.sweep_values for _ in METHODS]
    assert all(row.errors == 0 and math.isfinite(row.mean_se) for row in rows)


def test_the_readme_lists_every_config_key():
    # the keys in the README's key table, its parenthesized notes left out
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| group | keys |", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", table))) == sorted(KEYS)


def test_config_stream_constraints():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_streams=7)                 # exceeds RF chains
    with pytest.raises(ConfigError):
        ExperimentConfig(n_streams=4, p_paths=3)      # exceeds path count
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)


@pytest.mark.parametrize("gains", [dict(tx_gain_dbi=-1e4), dict(rx_gain_dbi=1e4)],
                         ids=["amplitude-0", "amplitude-overflows"])
def test_config_rejects_a_gain_without_a_finite_amplitude(gains):
    # a config built in code fails too, not in the first trial or as rows of errors
    with pytest.raises(ConfigError, match="positive, finite amplitude"):
        ExperimentConfig(**gains)


# -- sweep specialization ----------------------------------------------------

def test_apply_sweep_tx_power():
    cfg, beta = _apply_sweep(SMALL, 50.0)
    assert cfg.budget.tx_power == pytest.approx(100.0)
    assert beta == 0.0


def test_apply_sweep_lis_elements():
    base = ExperimentConfig(sweep_variable="lis_elements", sweep_values=(64.0,))
    cfg, _ = _apply_sweep(base, 64.0)
    assert cfg.geometry.m == 64 and cfg.geometry.lis_y == 16
    with pytest.raises(ConfigError):
        _apply_sweep(base, 60.0)   # not a multiple of lis_y
    with pytest.raises(ConfigError, match="integers"):
        _apply_sweep(base, 64.5)   # int(64.5) is a multiple, 64.5 is not an LIS size


def test_apply_sweep_n_rf():
    base = ExperimentConfig(sweep_variable="n_rf", sweep_values=(8.0,))
    cfg, beta = _apply_sweep(base, 8.0)
    assert (cfg.n_rf_tx, cfg.n_rf_rx, beta) == (8, 8, 0.0)


def test_apply_sweep_angle_error():
    base = ExperimentConfig(sweep_variable="angle_error_deg", sweep_values=(2.0,))
    cfg, beta = _apply_sweep(base, 2.0)
    assert cfg is base
    assert beta == pytest.approx(math.radians(2.0))
    with pytest.raises(ConfigError, match="non-negative"):
        _apply_sweep(base, -1.0)


# -- sweep execution ---------------------------------------------------------

def test_run_sweep_row_layout():
    result = run_sweep(SMALL)
    assert len(result.rows) == 2 * 3  # sweep values x methods, digital only
    keys = [(r.sweep_value, r.method, r.precoding) for r in result.rows]
    assert keys == [(v, m, "digital") for v in (35.0, 40.0)
                    for m in ("tsvd", "spgm", "random")]
    for row in result.rows:
        assert row.errors == 0
        assert np.isfinite(row.mean_se) and row.mean_se > 0
        assert row.std_se >= 0 and row.mean_cond >= 1.0
    by_method = {r.method: r for r in result.rows if r.sweep_value == 40.0}
    assert by_method["tsvd"].mean_iters > 0
    assert by_method["spgm"].mean_iters > 0
    assert by_method["random"].mean_iters == 0


def test_run_sweep_deterministic_and_parallel():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    c = run_sweep(SMALL, parallel=2)
    strip = lambda rows: [(r.sweep_value, r.method, r.mean_se, r.std_se, r.mean_cond,
                           r.mean_offdiag, r.mean_iters, r.errors) for r in rows]
    assert strip(a.rows) == strip(b.rows) == strip(c.rows)


def test_a_method_draws_the_same_starts_whatever_else_is_listed():
    cfg = replace(SMALL, precoding="both")
    strip = lambda rows, method: [replace(r, wall_ms=0.0) for r in rows if r.method == method]
    every = run_sweep(cfg).rows
    for method in METHODS:
        alone = run_sweep(replace(cfg, methods=(method,))).rows
        assert strip(alone, method) == strip(every, method)


def test_run_sweep_mean_is_over_per_trial_seeds():
    # each trial is seeded by (sweep index, trial index), so the aggregate
    # mean must equal the average of independently recomputed trials
    from dataclasses import replace
    cfg = replace(SMALL, trials=3, sweep_values=(40.0,), methods=("random",))
    agg = run_sweep(cfg).rows[0]
    ses = [_alone(cfg, (0, ti)).rate[0, 0, 0] for ti in range(3)]
    assert agg.mean_se == pytest.approx(np.mean(ses), rel=1e-12)


def _rows_one_by_one(cells, trials):
    """The CSV rows as run_sweep built them one at a time, with numpy's 1-D
    reductions on each row's entries of `trials` (cells, trials): the
    reference for `_sweep_rows`."""
    rows = []
    for k, (value, method, mode) in enumerate(cells):
        good = ~trials.failed[k]
        kept = good.any()
        se = trials.rate[k][good]
        rows.append(SweepRow(
            sweep_value=value, method=method, precoding=mode,
            mean_se=float(se.mean()) if kept else math.nan,
            std_se=float(se.std(ddof=0)) if kept else math.nan,
            mean_cond=float(np.mean(trials.cond[k][good])) if kept else math.nan,
            mean_offdiag=float(np.mean(trials.offdiag[k][good])) if kept else math.nan,
            mean_iters=float(np.mean(trials.iters[k][good])) if kept else math.nan,
            errors=int(len(good) - good.sum()),
            wall_ms=float(np.mean(trials.wall_ms[k]))))
    return tuple(rows)


@given(st.lists(st.tuples(st.integers(1, 300), st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
@example([(9, 0.0), (13, 0.1), (300, 0.5), (9, 1.0), (13, 0.0)], 0)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_reduce_exactly_as_one_row_at_a_time(cells, seed):
    # the cells of one trial count reduce together, as one table; a row keeps
    # its own count of good entries, one without any is NaN, and wall_ms
    # averages them all
    rng = np.random.default_rng(seed)
    tables = {}   # trial count -> (cell, values, failed) of its cells
    for k, (count, failing) in enumerate(cells):
        failed = rng.random(count) < failing
        values = rng.normal(size=(5, count)) * 10.0 ** rng.uniform(-3, 3, (5, count))
        values[:4, failed] = math.nan
        tables.setdefault(count, []).append((k, values, failed))
    bits = lambda rows: [tuple(x.hex() if isinstance(x, float) else x for x in astuple(row))
                         for row in rows]
    for rows in tables.values():
        keys = [(float(k), "tsvd", "digital") for k, _, _ in rows]
        trials = _Trials(*np.stack([values for _, values, _ in rows], axis=1),
                         np.array([failed for _, _, failed in rows]))
        assert bits(_sweep_rows(keys, trials)) == bits(_rows_one_by_one(keys, trials))


def test_a_c_ordered_row_mean_and_std_have_the_bits_of_each_row():
    # `_sweep_rows` reduces the rows of one good-entry count as one C-ordered
    # array: numpy sums each of its rows pairwise along the contiguous axis,
    # as it sums the row alone. If a numpy release breaks this, CSVs move
    # and this test says why.
    rng = np.random.default_rng(2)
    for n in range(1, 301):
        block = rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-3, 3, (4, n))
        mean, std = block.mean(axis=1), block.std(axis=1)
        np.testing.assert_array_equal(mean.view(np.uint64),
                                      np.array([np.mean(row) for row in block]).view(np.uint64))
        np.testing.assert_array_equal(std.view(np.uint64),
                                      np.array([np.std(row) for row in block]).view(np.uint64))


def _csv_without_wall(result, path):
    emit_csv(result, path)
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


DESK_ANGLES = ExperimentConfig(
    geometry=ArrayGeometry(n_tx=16, n_rx=16, lis_y=8, lis_z=8),
    budget=LinkBudget(tx_power=dbm_to_watt(40.0)),
    n_streams=2, n_rf_tx=3, n_rf_rx=3, p_paths=4, l_paths=4,
    sweep_variable="angle_error_deg", sweep_values=(0.0, 1.0), trials=5, seed=77,
    precoding="both")


def test_run_sweep_grouping_leaves_the_csv_unchanged(tmp_path, monkeypatch):
    # each sweep runs as one group serially, as contiguous halves with
    # parallel=2, and as a group per point when the byte budget admits only
    # one point: 5 trials x 3 powers, and 5 trials x 2 angle errors, whose
    # group mixes points with and without an error and so builds an
    # estimated core beside the true one
    from dataclasses import replace
    from lisim import harness
    real_group = harness._run_group
    powers = replace(SMALL, trials=5, sweep_values=(30.0, 35.0, 40.0), precoding="both")
    for cfg, points in ((powers, 15), (DESK_ANGLES, 10)):
        sizes = []
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_run_group",
                          lambda c, specs, tasks: sizes.append(len(tasks))
                          or real_group(c, specs, tasks))
            grouped = _csv_without_wall(run_sweep(cfg), tmp_path / "grouped.csv")
        assert sizes == [points]
        parallel = _csv_without_wall(run_sweep(cfg, parallel=2), tmp_path / "parallel.csv")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "GROUP_BYTES", 1)
            alone = _csv_without_wall(run_sweep(cfg), tmp_path / "alone.csv")
        assert grouped == parallel == alone
        assert all(row.split(",")[-1] == "0" for row in grouped[1:])   # no errors


def test_one_group_gives_the_per_trial_values_of_one_point_groups(monkeypatch):
    # DESK_ANGLES runs as one group of 10 points, with and without an angle
    # error, or as 10 one-point groups when the byte budget admits only one
    # point; every per-trial value and failure flag agrees, NaN for NaN
    from lisim import harness
    from lisim.harness import _run_trials
    grouped = _run_trials(DESK_ANGLES)
    monkeypatch.setattr(harness, "GROUP_BYTES", 1)
    sizes = _spy(monkeypatch, "_run_group", lambda c, specs, tasks: len(tasks))
    alone = _run_trials(DESK_ANGLES)
    assert sizes == [1] * 10
    assert grouped.rate.shape == (2, 3, 2, 5)   # sweep values, methods, modes, trials
    for f in fields(_Trials):
        if f.name != "wall_ms":
            np.testing.assert_array_equal(getattr(grouped, f.name), getattr(alone, f.name),
                                          err_msg=f.name)


def test_groups_share_geometry_and_stream_count():
    from dataclasses import replace
    from lisim.harness import _groups
    cfg = replace(SMALL, trials=2, sweep_variable="lis_elements",
                  sweep_values=(16.0, 32.0, 16.0))
    tasks = [(si, ti) for si in range(len(cfg.sweep_values)) for ti in range(2)]
    assert _groups(cfg, _specialize(cfg), tasks, 1) == [[tasks[0], tasks[1], tasks[4], tasks[5]],
                                      [tasks[2], tasks[3]]]
    # cut trial by trial: each half holds one trial at both values of its shape
    assert _groups(cfg, _specialize(cfg), tasks, 2) == [[tasks[0], tasks[4]], [tasks[1], tasks[5]],
                                      [tasks[2]], [tasks[3]]]
    # RF chain counts do not split a group: its hybrid batch factors each count apart
    cfg = replace(SMALL, trials=2, sweep_variable="n_rf", sweep_values=(4.0, 6.0, 4.0))
    tasks = [(si, ti) for si in range(len(cfg.sweep_values)) for ti in range(2)]
    assert _groups(cfg, _specialize(cfg), tasks, 1) == [tasks]
    assert _groups(cfg, _specialize(cfg), tasks, 2) == [[tasks[0], tasks[2], tasks[4]],
                                      [tasks[1], tasks[3], tasks[5]]]


@pytest.mark.parametrize("name, trials, points", [("default", 8, 8), ("power_sweep", 1, 7),
                                                   ("csi_sweep", 25, 125), ("rf_sweep", 10, 40)])
def test_a_paper_chunk_is_one_group(name, trials, points):
    # the byte budget holds 10 paper designs and 128 desk designs, so each of
    # these sweeps, 8 draws at one power, one draw at each of 7 powers and
    # 25 draws at each of 5 angle errors, runs as one group; in an n_rf sweep
    # a trial has one design at all its RF chain counts, so 10 draws at each
    # of 4 counts run as one group too
    from dataclasses import replace
    from lisim.harness import GROUP_BYTES, _groups
    cfg = replace(load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"),
                  trials=trials)
    tasks = [(si, ti) for si in range(len(cfg.sweep_values)) for ti in range(trials)]
    assert len(tasks) == points
    assert _groups(cfg, _specialize(cfg), tasks, 1) == [tasks]
    bank_bytes = cfg.l_paths * cfg.p_paths * cfg.geometry.m * 16
    assert GROUP_BYTES // bank_bytes == (10 if cfg.geometry.m == 256 else 128)


def test_rf_sweep_grouping_leaves_the_csv_unchanged(tmp_path, monkeypatch):
    from dataclasses import replace
    from lisim import harness
    cfg = replace(SMALL, trials=2, sweep_variable="n_rf", sweep_values=(4.0, 6.0, 4.0),
                  precoding="both")
    serial = _csv_without_wall(run_sweep(cfg), tmp_path / "serial.csv")
    parallel = _csv_without_wall(run_sweep(cfg, parallel=2), tmp_path / "parallel.csv")
    monkeypatch.setattr(harness, "GROUP_BYTES", 1)
    alone = _csv_without_wall(run_sweep(cfg), tmp_path / "alone.csv")
    assert serial == parallel == alone
    assert all(row.split(",")[-1] == "0" for row in serial[1:])   # no errors


def test_rf_sweep_shared_designs_equal_designs_alone():
    # a trial's points share one design across RF chain counts; each point's
    # values, hybrid ones too, equal those of its point designed alone. At
    # 10 RF chains and 4 paths each job starts from its 4 paths' steering
    # vectors, as at 6
    from dataclasses import replace
    from lisim.harness import _groups
    cfg = replace(DESK_ANGLES, trials=2, sweep_variable="n_rf", sweep_values=(6.0, 10.0, 6.0))
    tasks = [(si, ti) for si in range(len(cfg.sweep_values)) for ti in range(2)]
    assert _groups(cfg, _specialize(cfg), tasks, 1) == [tasks]
    shared = _run_group(cfg, _specialize(cfg), tasks)
    assert shared.rate.shape == (len(tasks), 3, 2)   # 3 methods, digital and hybrid
    assert not shared.failed.any()
    for k, task in enumerate(tasks):
        _assert_values_equal(shared, k, _alone(cfg, task), 0)


def test_rf_sweep_digital_rows_are_paired():
    # the digital design does not depend on the RF chain count, so trial t
    # draws the same method starts at every n_rf and the digital rows agree
    from dataclasses import replace
    cfg = replace(SMALL, trials=2, sweep_variable="n_rf", sweep_values=(3.0, 4.0, 6.0),
                  precoding="both")
    rows = run_sweep(cfg).rows
    digital = [replace(r, sweep_value=0.0, wall_ms=0.0) for r in rows
               if r.precoding == "digital"]
    assert digital[:3] == digital[3:6] == digital[6:]
    assert all(r.errors == 0 for r in rows)


def _assert_values_equal(a, i, b, j):
    """Every per-trial value of point i of `a` equals that of point j of `b`,
    NaN for NaN, failure flags too; only wall_ms is left out."""
    for f in fields(_Trials):
        if f.name != "wall_ms":
            np.testing.assert_array_equal(getattr(a, f.name)[i], getattr(b, f.name)[j],
                                          err_msg=f.name)


def _spy(monkeypatch, name, record):
    """Wrap harness.<name> so that each call appends record(*args) to a list."""
    from lisim import harness
    real, seen = getattr(harness, name), []

    def spied(*args, **kwargs):
        seen.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, spied)
    return seen


def test_a_group_draws_and_factors_each_trial_once(monkeypatch):
    # 3 trials x 4 powers in one group: a trial has one path set at every power
    from dataclasses import replace
    draws = _spy(monkeypatch, "sample_paths", lambda *args: None)
    cores = _spy(monkeypatch, "path_core", lambda paths, *args: len(paths))
    cfg = replace(SMALL, trials=3, sweep_values=(25.0, 30.0, 35.0, 40.0))
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    assert (len(draws), cores) == (3, [3])


def test_a_group_factors_estimated_paths_of_erred_points_only(monkeypatch):
    # 2 trials x angle errors 0, 1 and 2 degrees in one group: 2 true rows
    # and 4 estimated ones; the error-free points take their true rows
    from dataclasses import replace
    cores = _spy(monkeypatch, "path_core", lambda paths, *args: len(paths))
    stacks = _spy(monkeypatch, "optimize_spgm_stack", lambda core, *args: len(core.bank))
    cfg = replace(DESK_ANGLES, trials=2, sweep_values=(0.0, 1.0, 2.0), precoding="digital")
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    assert (cores, stacks) == ([6], [6])


def test_rf_sweep_designs_each_trial_once(monkeypatch):
    # 2 trials x 3 RF chain counts in one group: one tsvd design per trial,
    # then one call for every hybrid slot: over 3 paths a slot starts from
    # their 3 steering vectors at every RF chain count, so the 2 precoders
    # and 2 combiners (8 transmit and 8 receive antennas) of each count share
    # one (8, 3) shape
    from dataclasses import replace
    designs = _spy(monkeypatch, "optimize_tsvd_stack", lambda core, *args: len(core.bank))
    factors = _spy(monkeypatch, "hybrid_factorize", lambda targets, start, *args: start.shape)
    cfg = replace(SMALL, trials=2, sweep_variable="n_rf", sweep_values=(3.0, 4.0, 6.0),
                  methods=("tsvd",), precoding="both")
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    assert designs == [2]
    assert factors == [(12, 8, 3)]


@pytest.mark.parametrize("changes, shapes", [
    ({}, {(8, 3)}),
    (dict(geometry=ArrayGeometry(n_tx=8, n_rx=6, lis_y=4, lis_z=4)), {(8, 3), (6, 3)}),
    (dict(n_rf_rx=2), {(8, 3), (8, 2)}),
], ids=["square", "n_tx!=n_rx", "r_t!=r_r"])
def test_hybrid_batch_stacks_each_slot_shape_once(monkeypatch, changes, shapes):
    # the group's hybrid batch (2 trials x 2 powers) takes one call per
    # (N, n_rf) slot shape, precoders and combiners alike, and its rows
    # equal those of factoring each slot alone
    from lisim import harness
    cfg = replace(SMALL, trials=2, precoding="both", **changes)
    clean = run_sweep(cfg).rows
    real = harness.hybrid_factorize
    seen = []

    def by_slot(targets, start, *args):
        seen.append(start.shape[1:])
        alone = [real(targets[k:k + 1], start[k:k + 1], *args) for k in range(len(targets))]
        return tuple(np.concatenate([slot[i] for slot in alone]) for i in (0, 1))

    monkeypatch.setattr(harness, "hybrid_factorize", by_slot)
    rows = run_sweep(cfg).rows
    assert len(seen) == len(shapes) and set(seen) == shapes
    assert [replace(r, wall_ms=0.0) for r in rows] == [replace(r, wall_ms=0.0) for r in clean]
    assert all(r.errors == 0 for r in rows)


def test_power_sweep_designs_spgm_and_random_once_per_trial(monkeypatch):
    # 2 trials x 3 powers in one group: tsvd designs each point, spgm and
    # random each trial once; the hybrid batch factors one slot per design
    # on each side, both sides in one call
    tsvd = _spy(monkeypatch, "optimize_tsvd_stack", lambda core, *args: len(core.bank))
    spgm = _spy(monkeypatch, "optimize_spgm_stack", lambda core, *args: len(core.bank))
    starts = _spy(monkeypatch, "random_phases", lambda *args: None)
    factors = _spy(monkeypatch, "hybrid_factorize", lambda targets, *args: len(targets))
    cfg = replace(SMALL, trials=2, sweep_values=(30.0, 35.0, 40.0), precoding="both")
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    assert (tsvd, spgm, len(starts)) == ([6], [2], 2)
    assert factors == [2 * (6 + 2 + 2)]


def test_a_group_builds_each_design_generator_once(monkeypatch):
    # a one-trial group of power_sweep.cfg: spgm and random have one design
    # for all 7 powers, each building its start generator once; tsvd's
    # designs draw no start, and the hybrid batch draws nothing, so besides
    # those two and the trial's channel draw no generator is built
    cfg = replace(load_config(Path(__file__).resolve().parent.parent / "configs" /
                              "power_sweep.cfg"), trials=1)
    built = _spy(monkeypatch, "_starts", lambda cfg, method, key: method)
    streams = _spy(monkeypatch, "_stream", lambda cfg, *key: key)
    _run_group(cfg, _specialize(cfg), [(si, 0) for si in range(len(cfg.sweep_values))])
    assert sorted(built) == ["random", "spgm"]
    assert sorted(streams) == [(0,), (0, 0, 2 + METHODS.index("spgm")),
                               (0, 0, 2 + METHODS.index("random"))]


@pytest.mark.parametrize("name, methods, streams", [
    ("rf_sweep", ("tsvd",), []),
    ("desk", ("spgm", "random"), [(0, t, 2 + METHODS.index(m)) for t in (0, 1)
                                 for m in ("spgm", "random")]),
], ids=["rf_sweep", "desk"])
def test_the_hybrid_batch_builds_no_generator(monkeypatch, name, methods, streams):
    # 2 trials of rf_sweep.cfg (n_rf up to 8 over 7 paths), and of a desk
    # n_rf sweep up to 10 RF chains over 4 paths: the only generators built
    # are each trial's channel draw and each spgm or random design's start
    configs = Path(__file__).resolve().parent.parent / "configs"
    cfg = (load_config(configs / "rf_sweep.cfg") if name == "rf_sweep" else
           replace(DESK_ANGLES, sweep_variable="n_rf", sweep_values=(4.0, 10.0)))
    cfg = replace(cfg, trials=2, methods=methods, precoding="hybrid")
    built = _spy(monkeypatch, "_stream", lambda cfg, *key: key)
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    assert sorted(built) == sorted([(0,), (1,)] + streams)


def test_a_hybrid_start_is_its_paths_steering_vectors(monkeypatch):
    # at 5 RF chains over 4 transmit-side and 3 receive-side paths, a job's
    # precoder start holds sqrt(N) times the steering vectors of its first
    # point's 4 estimated paths and its combiner start those of its 3,
    # strongest first, and nothing else; the two shapes take a call each,
    # the precoders' first. Trial 0 has tsvd designs at both powers, and
    # one spgm and one random design shared across them, all on one path set
    cfg = replace(SMALL, trials=1, p_paths=4, n_rf_tx=5, n_rf_rx=5, precoding="hybrid")
    specs = _specialize(cfg)
    tasks = [(si, 0) for si in range(len(specs))]
    starts = _spy(monkeypatch, "hybrid_factorize", lambda targets, start, *args: start)
    _run_group(cfg, specs, tasks)
    paths = _draw_point(cfg, specs, 0, 0).paths
    assert [start.shape for start in starts] == [(len(tasks) + 2, 8, 4), (len(tasks) + 2, 8, 3)]
    for start, angles in zip(starts, (paths.bs_lis_aod, paths.lis_ue_aoa)):
        want = math.sqrt(8) * ula_responses(angles, 8, cfg.geometry.spacing_ratio).T
        for slot in start:
            np.testing.assert_array_equal(slot, want)


POWERS = replace(DESK_ANGLES, trials=2, sweep_variable="tx_power_dbm",
                 sweep_values=(30.0, 35.0, 40.0), n_rf_tx=6, n_rf_rx=6)


def test_power_sweep_shared_designs_equal_designs_alone():
    # a trial's points share one spgm and one random design across powers,
    # made at the first power; each point's values, hybrid ones too, equal
    # those of its point designed alone, also where its group lacks the
    # first power. At 6 RF chains and 4 paths each job starts from the 4
    # paths' steering columns, which span its targets
    from lisim.harness import _groups
    tasks = [(si, ti) for si in range(len(POWERS.sweep_values)) for ti in range(2)]
    assert _groups(POWERS, _specialize(POWERS), tasks, 1) == [tasks]
    shared = _run_group(POWERS, _specialize(POWERS), tasks)
    assert shared.rate.shape == (len(tasks), 3, 2)   # 3 methods, digital and hybrid
    assert not shared.failed.any()
    for k, task in enumerate(tasks):
        _assert_values_equal(shared, k, _alone(POWERS, task), 0)
    # the shared designs' cond, offdiag and iterations are paired along the
    # power axis; tsvd's, designed at each power, are not
    design = lambda k, m: (shared.cond[k, m, 0], shared.offdiag[k, m, 0], shared.iters[k, m, 0])
    for ti in range(2):
        by_power = [k for k, task in enumerate(tasks) if task[1] == ti]
        for m, method in enumerate(POWERS.methods):
            values = {design(k, m) for k in by_power}
            assert len(values) == (3 if method == "tsvd" else 1)


def test_tsvd_digital_rows_read_no_generator(monkeypatch):
    # the surrogate starts from each core row's strongest composite path, so
    # no tsvd start generator is ever built; and start streams of another
    # seed move spgm's and random's rows but no tsvd row, digital or hybrid
    from lisim import harness
    strip = lambda rows: {(r.precoding, r.method, r.sweep_value): replace(r, wall_ms=0.0)
                          for r in rows}
    clean = strip(run_sweep(POWERS).rows)
    real = harness._stream

    def other_seed(cfg, *key):
        if len(key) == 3 and key[2] >= 2:   # a design's start stream
            cfg = replace(cfg, seed=cfg.seed + 1)
        return real(cfg, *key)

    monkeypatch.setattr(harness, "_stream", other_seed)
    built = _spy(monkeypatch, "_starts", lambda cfg, method, key: method)
    moved = strip(run_sweep(POWERS).rows)
    assert set(built) == {"spgm", "random"} and moved.keys() == clean.keys()
    for key, row in clean.items():
        assert (moved[key] == row) == (key[1] == "tsvd"), key


def test_a_shared_precoder_is_its_design_factored_at_each_power(monkeypatch):
    # a point's hybrid precoder is its design's, factored, set to the
    # design's power and its digital stage rescaled to the point's.
    # hybrid_factorize is scale-equivariant, so that matches the design's
    # target scaled to the point's power, factored and set to that power,
    # to a relative 1e-10
    from lisim import harness
    real_hybrid, real_rate = harness.hybrid_factorize, harness.spectral_efficiency
    calls, precoders = [], []

    def hybrid(targets, start, *args):
        calls.append((targets, start))
        return real_hybrid(targets, start, *args)

    def rate(h, f, w, sigma2, bases=None):
        if bases is not None:
            precoders.append(f)
        return real_rate(h, f, w, sigma2, bases)

    monkeypatch.setattr(harness, "hybrid_factorize", hybrid)
    monkeypatch.setattr(harness, "spectral_efficiency", rate)
    cfg = replace(SMALL, trials=2, sweep_values=(10.0, 25.0, 40.0), methods=("spgm",),
                  precoding="hybrid")
    assert all(row.errors == 0 for row in run_sweep(cfg).rows)
    (targets, start), = calls   # the precoders, then the combiners
    assert len(targets) == 4 and len(precoders) == 1
    # spgm's designs are made at the first power; the points of trial 0 at
    # each power, then those of trial 1
    design_power = dbm_to_watt(cfg.sweep_values[0])
    powers = [dbm_to_watt(v) for v in cfg.sweep_values] * 2
    for f, k, power in zip(precoders[0], [0, 0, 0, 1, 1, 1], powers):
        scaled = targets[k:k + 1] * np.sqrt(power / design_power)
        f_rf, f_bb, _ = real_hybrid(scaled, start[k:k + 1], cfg.descent)
        want = f_rf[0] @ f_bb[0]
        want *= np.sqrt(power) / np.linalg.norm(want)
        assert np.linalg.norm(f - want) <= 1e-10 * np.linalg.norm(want)


def test_groups_hold_ten_paper_trials_of_a_power_sweep_without_tsvd():
    # spgm and random design a power sweep's trial once, so a group of the
    # paper geometry holds 10 trials at all 7 powers
    from lisim.harness import _groups
    cfg = replace(load_config(Path(__file__).resolve().parent.parent / "configs" /
                              "power_sweep.cfg"), methods=("spgm", "random"), trials=20)
    tasks = [(si, ti) for si in range(len(cfg.sweep_values)) for ti in range(20)]
    groups = _groups(cfg, _specialize(cfg), tasks, 1)
    assert [len(group) for group in groups] == [70, 70]
    assert [sorted({task[1] for task in group}) for group in groups] == \
        [list(range(10)), list(range(10, 20))]


@pytest.fixture(scope="module")
def shipped_rf_sweep():
    """Mean SE of the shipped rf_sweep.cfg at its own trial count, keyed by
    (n_rf, precoding)."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "rf_sweep.cfg")
    rows = run_sweep(cfg).rows
    assert all(r.errors == 0 for r in rows)
    return {(r.sweep_value, r.precoding): r.mean_se for r in rows}


def test_rf_sweep_hybrid_rate_does_not_fall_with_more_rf_chains(shipped_rf_sweep):
    # n_rf + 1 chains can realize every n_rf-chain factorization; an extra
    # chain must not land the alternation on a worse point
    hybrid = [se for (_, mode), se in sorted(shipped_rf_sweep.items()) if mode == "hybrid"]
    assert len(hybrid) == 4 and np.all(np.diff(hybrid) >= 0)


def test_rf_sweep_hybrid_is_digital_with_a_chain_per_path(shipped_rf_sweep):
    # n_rf = 8 >= P = 7: the steering vectors of the 7 paths, which the
    # analog starts hold, span every precoder and combiner target
    assert shipped_rf_sweep[8.0, "hybrid"] == pytest.approx(shipped_rf_sweep[8.0, "digital"],
                                                            rel=1e-9)


def test_shipped_hybrid_slots_stop_where_the_docs_say(monkeypatch):
    # power_sweep.cfg has 6 RF chains for 7 paths: every hybrid slot, 18
    # designs per 2 trials on each side, runs to the cap of 10 alternations.
    # In rf_sweep.cfg the slots with n_rf = 8 >= P chains start from every
    # path's steering vector, so one alternation reaches the residual floor
    from lisim import harness
    real, seen = harness.hybrid_factorize, []

    def hybrid(targets, start, *args):
        factors = real(targets, start, *args)
        seen.append((start.shape[2], factors[2]))
        return factors

    monkeypatch.setattr(harness, "hybrid_factorize", hybrid)
    configs = Path(__file__).resolve().parent.parent / "configs"
    run_sweep(replace(load_config(configs / "power_sweep.cfg"), trials=2))
    stops = [stop for _, record in seen for stop in record.stops]
    iters = np.concatenate([record.iters for _, record in seen])
    assert stops == ["max_iters"] * 36 and np.all(iters == 10)
    seen.clear()
    cfg = load_config(configs / "rf_sweep.cfg")
    run_sweep(replace(cfg, trials=2))
    full = [record for n_rf, record in seen if n_rf >= cfg.p_paths]
    assert [stop for record in full for stop in record.stops] == ["floor"] * 4
    assert all(np.all(record.iters == 1) for record in full)


def test_run_sweep_hybrid_mode():
    from dataclasses import replace
    cfg = replace(SMALL, precoding="both", trials=2, sweep_values=(40.0,),
                  methods=("tsvd",))
    result = run_sweep(cfg)
    assert [r.precoding for r in result.rows] == ["digital", "hybrid"]
    dig, hyb = result.rows
    assert hyb.mean_se > 0.5 * dig.mean_se


def test_run_sweep_rejects_bad_value_before_any_trial(monkeypatch):
    from dataclasses import replace
    from lisim import harness
    calls = []
    monkeypatch.setattr(harness, "_run_group", lambda *args: calls.append(args) or [])
    cfg = replace(SMALL, sweep_variable="n_streams", sweep_values=(2.0, 4.0))
    with pytest.raises(ConfigError):
        run_sweep(cfg)
    assert calls == []


@pytest.mark.parametrize("variable, value", [
    ("lis_elements", 0.0), ("lis_elements", -64.0),
    ("tx_power_dbm", math.nan), ("tx_power_dbm", 1e4), ("angle_error_deg", math.inf),
])
def test_run_sweep_raises_config_error_for_a_bad_value(monkeypatch, variable, value):
    # a config built in code skips load_config, so run_sweep's own check
    # must name every bad value a ConfigError, not a geometry's ValueError,
    # an OverflowError or nothing at all
    from lisim import harness
    monkeypatch.setattr(harness, "_run_group", _raise(AssertionError))   # no point runs
    cfg = replace(SMALL, sweep_variable=variable, sweep_values=(value,))
    with pytest.raises(ConfigError):
        run_sweep(cfg)


def test_run_sweep_specializes_each_sweep_value_once(monkeypatch):
    # one specialization per sweep value serves the grouping, every point's
    # draw and every shared design, at any trial count
    from lisim import config
    cfg = replace(load_config(Path(__file__).resolve().parent.parent / "configs" /
                              "power_sweep.cfg"), trials=2)
    calls = []
    real = config._apply_sweep
    monkeypatch.setattr(config, "_apply_sweep",
                        lambda c, value: calls.append(value) or real(c, value))
    run_sweep(cfg)
    assert calls == list(cfg.sweep_values) and len(calls) == 7


def _raise(exc_type):
    def hybrid_factorize(*_args, **_kwargs):
        raise exc_type("injected")
    return hybrid_factorize


def test_run_sweep_counts_numerical_failures(monkeypatch):
    from dataclasses import replace
    from lisim import harness
    monkeypatch.setattr(harness, "hybrid_factorize", _raise(np.linalg.LinAlgError))
    cfg = replace(SMALL, precoding="both", trials=2, sweep_values=(40.0,),
                  methods=("tsvd",))
    dig, hyb = run_sweep(cfg).rows
    assert hyb.errors == 2
    assert math.isnan(hyb.mean_se)
    # the digital rate was computed before the hybrid step failed
    assert dig.errors == 0
    assert math.isfinite(dig.mean_se)


def test_run_sweep_times_each_mode(monkeypatch):
    # the hybrid row's wall time adds its share of the group's factorizations
    # to the digital row's: every wrapped call sleeps 20 ms, and the group's
    # two trials share one call for their precoders and combiners
    import time
    from dataclasses import replace
    from lisim import harness
    real = harness.hybrid_factorize
    calls = []

    def slow_hybrid(*args, **kwargs):
        calls.append(args)
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "hybrid_factorize", slow_hybrid)
    cfg = replace(SMALL, precoding="both", trials=2, sweep_values=(40.0,),
                  methods=("random",))
    dig, hyb = run_sweep(cfg).rows
    assert len(calls) == 1
    calls_per_method = len(calls) / (cfg.trials * len(cfg.methods))
    assert hyb.wall_ms - dig.wall_ms >= 0.9 * 20.0 * calls_per_method


def test_run_sweep_hybrid_failure_is_per_method(monkeypatch):
    # a singular solve in one method's slots fails the trial's batch; each
    # method is then factored alone, so only that method's hybrid row counts
    # the error and the others keep the values the batch would have given
    from dataclasses import replace
    from lisim import harness
    cfg = replace(SMALL, precoding="both", trials=2, sweep_values=(40.0,))
    clean = run_sweep(cfg).rows
    spgm_targets = []   # the precoder targets of spgm's designs
    real_designs, real_hybrid = harness._designs, harness.hybrid_factorize

    def designs(method, group, run_cfg):
        found = real_designs(method, group, run_cfg)
        if method == "spgm":
            spgm_targets.extend(found.f_target)
        return found

    def hybrid(targets, start, descent, *args, **kwargs):
        # fail after the starts are drawn, as a singular solve would
        factors = real_hybrid(targets, start, descent, *args, **kwargs)
        if any(np.array_equal(t, bad) for t in targets for bad in spgm_targets):
            raise np.linalg.LinAlgError("injected")
        return factors

    monkeypatch.setattr(harness, "_designs", designs)
    monkeypatch.setattr(harness, "hybrid_factorize", hybrid)
    rows = run_sweep(cfg).rows
    strip = lambda r: (r.mean_se, r.std_se, r.mean_cond, r.mean_offdiag, r.mean_iters,
                       r.errors)
    for got, want in zip(rows, clean):
        assert (got.method, got.precoding) == (want.method, want.precoding)
        if (got.method, got.precoding) == ("spgm", "hybrid"):
            assert got.errors == cfg.trials and math.isnan(got.mean_se)
        else:
            assert strip(got) == strip(want)


def test_run_sweep_hybrid_failure_is_per_point(monkeypatch):
    # a singular solve in one design's spgm slot fails the group's hybrid
    # batch (2 powers x 2 trials, one group); each job is then factored
    # alone, so only the spgm hybrid rows of the points that share that
    # design, trial 1 at both powers, count the error. At 3 RF chains over
    # 3 paths per hop precoders and combiners share one shape; at 5 over 4
    # transmit-side and 3 receive-side paths they take a call each. A job
    # factored alone starts from its starts in the batch
    from dataclasses import replace
    from lisim import harness
    real_designs, real_hybrid = harness._designs, harness.hybrid_factorize
    for n_rf, p_paths in ((3, 3), (5, 4)):
        cfg = replace(SMALL, precoding="both", trials=2, n_rf_tx=n_rf, n_rf_rx=n_rf,
                      p_paths=p_paths)
        clean = run_sweep(cfg).rows
        seen = []   # spgm's design stacks; the second design of the first is the bad one

        def designs(method, group, run_cfg):
            found = real_designs(method, group, run_cfg)
            if method == "spgm":
                seen.append(found)
            return found

        calls = []   # the analog starts of each call

        def hybrid(targets, start, descent, *args, **kwargs):
            calls.append(start)
            factors = real_hybrid(targets, start, descent, *args, **kwargs)
            if any(np.array_equal(t, seen[0].f_target[1]) for t in targets):
                raise np.linalg.LinAlgError("injected")
            return factors

        monkeypatch.setattr(harness, "_designs", designs)
        monkeypatch.setattr(harness, "hybrid_factorize", hybrid)
        rows = run_sweep(cfg).rows
        monkeypatch.undo()
        # the batch of 4 tsvd jobs and 2 each of spgm and random (one per
        # trial), 8 precoders and 8 combiners, fails at the call that holds
        # the precoders; then each job runs alone from the starts it had in
        # the batch, and the bad one, job 5, fails at its precoder
        if p_paths == 3:   # one call for both sides
            assert [len(start) for start in calls] == [16] + [2] * 8
            for job, alone in enumerate(calls[1:]):
                np.testing.assert_array_equal(alone, calls[0][[job, 8 + job]])
        else:   # a call for each side
            assert [start.shape[:3] for start in calls] == (
                [(8, 8, 4)] + [(1, 8, 4), (1, 8, 3)] * 5 + [(1, 8, 4)]
                + [(1, 8, 4), (1, 8, 3)] * 2)
            precoders = [start for start in calls[1:] if start.shape[2] == 4]
            for job, alone in enumerate(precoders):
                np.testing.assert_array_equal(alone[0], calls[0][job])
        strip = lambda r: (r.mean_se, r.std_se, r.mean_cond, r.mean_offdiag, r.mean_iters,
                           r.errors)
        for got, want in zip(rows, clean):
            assert (got.sweep_value, got.method, got.precoding) == (
                want.sweep_value, want.method, want.precoding)
            if (got.method, got.precoding) == ("spgm", "hybrid"):
                assert got.errors == 1 and math.isfinite(got.mean_se)
            else:
                assert strip(got) == strip(want)


def test_run_sweep_descent_failure_is_per_point(monkeypatch):
    # a numerical failure in the stacked spgm descent of a group (3 trials x
    # 2 powers, one spgm design per trial): each design then descends alone
    # from the start its seed key draws, so only the points that share the
    # one that fails (trial 1, at both powers) count errors, in both modes
    from dataclasses import replace
    from lisim import harness
    cfg = replace(SMALL, precoding="both")
    clean = run_sweep(cfg).rows
    seen = []   # spgm's stacks; the second design of the first is the bad one
    real_passive = harness._passive_beamforming

    def passive(method, group, run_cfg):
        found = real_passive(method, group, run_cfg)   # starts drawn, as a real failure
        if method == "spgm":
            seen.append(group.points)
            if any(point is seen[0][1] for point in group.points):
                raise np.linalg.LinAlgError("injected")
        return found

    monkeypatch.setattr(harness, "_passive_beamforming", passive)
    rows = run_sweep(cfg).rows
    assert [len(points) for points in seen] == [3] + [1] * 3
    strip = lambda r: (r.mean_se, r.std_se, r.mean_cond, r.mean_offdiag, r.mean_iters,
                       r.errors)
    for got, want in zip(rows, clean):
        assert (got.sweep_value, got.method, got.precoding) == (
            want.sweep_value, want.method, want.precoding)
        if got.method == "spgm":
            assert got.errors == 1 and math.isfinite(got.mean_se)
        else:
            assert strip(got) == strip(want)


def test_run_sweep_digital_stage_failure_is_per_point(monkeypatch):
    # a numerical failure in the stacked spgm digital stage of a group (3
    # trials x 2 powers, one spgm design per trial), after the descents have
    # drawn their starts: each design then runs the method alone from the
    # start its seed key draws, so only the points that share the failing one
    # (trial 1, at both powers) count errors, digital and hybrid
    from dataclasses import replace
    from lisim import harness
    cfg = replace(SMALL, precoding="both")
    clean = run_sweep(cfg).rows
    seen, current = [], []   # spgm's stacks; the second design of the first is the bad one
    real_passive, real_svd = harness._passive_beamforming, harness.truncated_svd

    def passive(method, group, run_cfg):
        current[:] = [method, group.points]
        if method == "spgm":
            seen.append(group.points)
        return real_passive(method, group, run_cfg)

    def svd(h, n_streams):
        method, points = current
        if method == "spgm" and any(point is seen[0][1] for point in points):
            raise np.linalg.LinAlgError("injected")
        return real_svd(h, n_streams)

    monkeypatch.setattr(harness, "_passive_beamforming", passive)
    monkeypatch.setattr(harness, "truncated_svd", svd)
    rows = run_sweep(cfg).rows
    assert [len(points) for points in seen] == [3] + [1] * 3
    strip = lambda r: (r.mean_se, r.std_se, r.mean_cond, r.mean_offdiag, r.mean_iters,
                       r.errors)
    for got, want in zip(rows, clean):
        assert (got.sweep_value, got.method, got.precoding) == (
            want.sweep_value, want.method, want.precoding)
        if got.method == "spgm":
            assert got.errors == 1 and math.isfinite(got.mean_se)
        else:
            assert strip(got) == strip(want)


def test_digital_rows_ignore_hybrid():
    from dataclasses import replace
    both = run_sweep(replace(SMALL, precoding="both")).rows
    digital = run_sweep(SMALL).rows
    strip = lambda r: (r.sweep_value, r.method, r.mean_se, r.std_se, r.mean_cond,
                       r.mean_offdiag, r.mean_iters, r.errors)
    assert [strip(r) for r in both if r.precoding == "digital"] == [strip(r) for r in digital]


def test_hybrid_is_exact_with_a_chain_per_path():
    # n_rf = P = L = 7, and n_rf = 10 above them, with N_s = 4: every target
    # lies in the span of its paths' steering vectors, which the analog
    # start holds (at 10 RF chains the start is those 7 columns alone), so
    # the hybrid transceiver realizes the digital one on the true and on an
    # estimated path set
    for n_rf in (7, 10):
        cfg = ExperimentConfig(n_rf_tx=n_rf, n_rf_rx=n_rf, sweep_variable="angle_error_deg",
                               sweep_values=(0.0, 1.0), trials=2, precoding="both", seed=3)
        for si in range(len(cfg.sweep_values)):
            for ti in range(cfg.trials):
                se = _alone(cfg, (si, ti)).rate[0]   # (methods, digital and hybrid)
                for m in range(len(cfg.methods)):
                    assert se[m, 1] == pytest.approx(se[m, 0], rel=1e-9)


def test_run_sweep_lets_a_stream_count_error_through(monkeypatch):
    # a loaded config caps n_streams by its path and RF chain counts, so a
    # StreamCountError in a sweep is a bug, not one more `errors` cell
    from dataclasses import replace
    from lisim import harness
    from lisim.passive_bf import StreamCountError
    monkeypatch.setattr(harness, "stream_weights", _raise(StreamCountError))
    cfg = replace(SMALL, trials=1, sweep_values=(40.0,), methods=("tsvd",))
    with pytest.raises(StreamCountError, match="injected"):
        run_sweep(cfg)


@pytest.mark.parametrize("parallel", [0, -1])
def test_run_sweep_rejects_parallel_below_one(monkeypatch, parallel):
    from lisim import harness
    monkeypatch.setattr(harness, "_run_group", _raise(AssertionError))   # no point runs
    with pytest.raises(ConfigError, match="parallel must be >= 1"):
        run_sweep(SMALL, parallel=parallel)


def test_run_sweep_lets_bugs_through(monkeypatch):
    from dataclasses import replace
    from lisim import harness
    monkeypatch.setattr(harness, "hybrid_factorize", _raise(TypeError))
    cfg = replace(SMALL, precoding="hybrid", trials=1, sweep_values=(40.0,),
                  methods=("random",))
    with pytest.raises(TypeError, match="injected"):
        run_sweep(cfg)


def test_emit_csv_format(tmp_path):
    result = run_sweep(SMALL)
    out = tmp_path / "sweep.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(result.rows)
    first = lines[1].split(",")
    assert first[0] == "35" and first[1] == "tsvd" and first[2] == "digital"
    assert float(first[3]) == pytest.approx(result.rows[0].mean_se, rel=1e-11)
    assert first[8] == "0"


def test_emit_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(SMALL), a)
    emit_csv(run_sweep(SMALL), b)
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(a) == strip(b)


# -- brute-force oracle ------------------------------------------------------

def test_oracle_beats_every_quantized_competitor():
    geometry = ArrayGeometry(n_tx=4, n_rx=4, lis_y=2, lis_z=2)
    budget = LinkBudget(tx_power=dbm_to_watt(40.0))
    rng = np.random.default_rng(0)
    paths = sort_paths_descending(sample_paths(rng, geometry, budget, 2, 2))
    core = path_core([paths], geometry)
    weights = stream_weights(paths, budget, 2)
    v, best = brute_force_phase_oracle(core, weights, levels=4)
    evaluate, data = tsvd_objective(core, weights[None])
    assert -evaluate(data, v[None])[0][0] == pytest.approx(best, rel=1e-12)
    # exhaustive re-check against an independent python-loop enumeration
    import itertools
    step = 2 * np.pi / 4
    brute = max(
        -evaluate(data, np.exp(1j * step * np.array(digits))[None])[0][0]
        for digits in itertools.product(range(4), repeat=4))
    assert best == pytest.approx(brute, rel=1e-12)


def test_oracle_state_limit():
    geometry = ArrayGeometry(n_tx=4, n_rx=4, lis_y=4, lis_z=4)
    budget = LinkBudget()
    rng = np.random.default_rng(1)
    paths = sample_paths(rng, geometry, budget, 2, 2)
    with pytest.raises(ConfigError, match="exceeds"):
        brute_force_phase_oracle(path_core([paths], geometry),
                                 stream_weights(paths, budget, 2), levels=8)


@pytest.mark.parametrize("levels", [0, -2])
def test_oracle_rejects_levels_below_one(levels):
    geometry = ArrayGeometry(n_tx=4, n_rx=4, lis_y=2, lis_z=2)
    budget = LinkBudget()
    paths = sample_paths(np.random.default_rng(1), geometry, budget, 2, 2)
    with pytest.raises(ConfigError, match="levels must be >= 1"):
        brute_force_phase_oracle(path_core([paths], geometry),
                                 stream_weights(paths, budget, 2), levels=levels)
