"""End-to-end CLI behavior."""

import pytest

from lisim import __version__
from lisim.channel import path_core
from lisim.cli import main
from lisim.config import _specialize, load_config
from lisim.harness import _draw_point
from lisim.passive_bf import optimize_tsvd, stream_weights, tsvd_objective

SMALL_CFG = """
n_tx = 8
n_rx = 8
lis_y = 4
lis_z = 4
r_t = 3
r_r = 3
n_streams = 2
p_paths = 3
l_paths = 3
trials = 2
seed = 11
sweep_values = 40
methods = tsvd, random
"""

ORACLE_CFG = """
n_tx = 4
n_rx = 4
lis_y = 2
lis_z = 2
r_t = 2
r_r = 2
n_streams = 2
p_paths = 2
l_paths = 2
seed = 5
tx_power_dbm = 40
descent_epsilon = 1e-8
"""

# 2 x 4 LIS elements in the base config, 4 at the one sweep value
LIS_SWEEP_ORACLE_CFG = ORACLE_CFG.replace("lis_z = 2", "lis_z = 4") + """
sweep_variable = lis_elements
sweep_values = 4
"""


def _cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"lisim {__version__}" in capsys.readouterr().out


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "result.csv"
    code = main(["run", _cfg(tmp_path, SMALL_CFG), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep_value,method,precoding,mean_se")
    assert len(lines) == 3  # header + 2 methods x 1 sweep value


def test_run_overrides_seed_and_trials(tmp_path):
    base = tmp_path / "a.csv"
    other = tmp_path / "b.csv"
    cfg = _cfg(tmp_path, SMALL_CFG)
    assert main(["run", cfg, "--out", str(base), "--trials", "3"]) == 0
    assert main(["run", cfg, "--out", str(other), "--trials", "3", "--seed", "77"]) == 0
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(base) != strip(other)


def test_run_parallel_matches_serial(tmp_path):
    serial = tmp_path / "s.csv"
    parallel = tmp_path / "p.csv"
    cfg = _cfg(tmp_path, SMALL_CFG)
    assert main(["run", cfg, "--out", str(serial)]) == 0
    assert main(["run", cfg, "--out", str(parallel), "--parallel", "2"]) == 0
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(serial) == strip(parallel)


def test_run_bad_config(tmp_path, capsys):
    assert main(["run", _cfg(tmp_path, "junk line\n")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"trials = 2\nseed = \xff\xfe\n")
    assert main(["run", str(path), "--out", str(tmp_path / "never.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: not UTF-8 text at byte 18\n"
    assert captured.out == "" and not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("tx_power_dbm = 1e4", "out of range"), ("noise_dbm = 1e4", "out of range"),
    ("rx_gain_dbi = 1e4", "finite amplitude"), ("tx_gain_dbi = -1e4", "finite amplitude"),
])
def test_run_rejects_a_link_budget_out_of_range(tmp_path, capsys, line, message):
    # each value overflows or vanishes in the link budget: an error message
    # before any trial runs, not a traceback or a CSV of error rows; the
    # config's power is its one sweep value, so it has no sweep_values
    out = tmp_path / "never.csv"
    text = SMALL_CFG.replace("sweep_values = 40\n", "") + line + "\n"
    assert main(["run", _cfg(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, named", [
    ("sweep_values = 40", "noise_dbm = 1e4", "line 13: 'noise_dbm' = 1e4"),
    ("sweep_values = 40", "tx_power_dbm = 1e4", "line 13: 'tx_power_dbm' = 1e4"),
    ("sweep_values = 40", "sweep_values = 30, 1e4", "tx_power_dbm sweep value 10000"),
], ids=["noise_dbm", "tx_power_dbm", "sweep-value"])
def test_a_power_out_of_range_is_named(tmp_path, capsys, old, new, named):
    # the message points at the line and key, or the sweep variable and
    # value, whose power no float holds
    text = SMALL_CFG.replace(old, new)
    assert main(["run", _cfg(tmp_path, text), "--out", str(tmp_path / "never.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.endswith("out of range\n")


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["run", _cfg(tmp_path, SMALL_CFG), "--out", str(out), "--seed", "-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_run_checks_out_before_any_trial(tmp_path, capsys, monkeypatch, where):
    # an --out in a missing directory, or one that is a directory, stops
    # the run before the sweep
    from lisim import cli
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    assert main(["run", _cfg(tmp_path, SMALL_CFG), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and calls == []


def test_run_that_fails_keeps_an_existing_out(tmp_path, capsys):
    # the check of --out does not truncate an existing file, which a run
    # that then fails leaves as it was
    out = tmp_path / "kept.csv"
    out.write_text("earlier results\n")
    assert main(["run", _cfg(tmp_path, SMALL_CFG), "--out", str(out), "--parallel", "0"]) == 1
    assert out.read_text() == "earlier results\n"
    assert capsys.readouterr().err == "error: parallel must be >= 1, not 0\n"


def test_config_power_is_its_one_sweep_value(tmp_path):
    # without sweep_values, a config's tx_power_dbm is the default power
    # sweep's one value, so `run` and `oracle` draw at 40 dBm, not at 30
    cfg = load_config(_cfg(tmp_path, ORACLE_CFG))
    assert (cfg.sweep_variable, cfg.sweep_values) == ("tx_power_dbm", (40.0,))


def test_oracle_reports_ratio(tmp_path, capsys):
    assert main(["oracle", _cfg(tmp_path, ORACLE_CFG)]) == 0
    out = capsys.readouterr().out
    assert "oracle objective:" in out and "ratio:" in out
    ratio = float(out.strip().splitlines()[-1].split()[-1])
    assert ratio >= 0.95


@pytest.mark.parametrize("methods", ["", "methods = spgm, random\n"],
                         ids=["default-methods", "without-tsvd"])
def test_oracle_searches_at_the_first_sweep_value(tmp_path, capsys, methods):
    # `lisim run` sweeps this config at M = 4 (8^4 oracle states), not at
    # the base config's M = 8 (8^8 states, over the limit); the oracle runs
    # tsvd whether or not the config lists it
    assert main(["oracle", _cfg(tmp_path, LIS_SWEEP_ORACLE_CFG + methods)]) == 0
    ratio = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
    assert ratio >= 0.95


@pytest.mark.parametrize("text", [ORACLE_CFG, LIS_SWEEP_ORACLE_CFG],
                         ids=["power", "lis-sweep"])
def test_oracle_prints_the_surrogate_at_the_optimizer_point(tmp_path, capsys, text):
    # the printed optimizer objective is the trace's last value; it must be
    # the surrogate re-evaluated at the point optimize_tsvd returns
    path = _cfg(tmp_path, text)
    assert main(["oracle", path]) == 0
    printed = capsys.readouterr().out.splitlines()[1].split()[-1]
    cfg = load_config(path)
    point = _draw_point(cfg, _specialize(cfg), 0, 0)
    run_cfg = point.cfg
    core = path_core([point.paths], run_cfg.geometry, *run_cfg.gains)
    weights = stream_weights(point.paths, run_cfg.budget, run_cfg.n_streams, *run_cfg.gains)
    v, _ = optimize_tsvd(core, weights, run_cfg.descent)
    evaluate, data = tsvd_objective(core, weights[None])
    assert printed == f"{-evaluate(data, v[None])[0][0]:.9f}"


def test_oracle_refuses_large_state_space(tmp_path, capsys):
    assert main(["oracle", _cfg(tmp_path, SMALL_CFG)]) == 1
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg_text, option, value, message", [
    ("run", SMALL_CFG, "--parallel", "0", "parallel must be >= 1"),
    ("run", SMALL_CFG, "--parallel", "-1", "parallel must be >= 1"),
    ("oracle", ORACLE_CFG, "--levels", "0", "levels must be >= 1"),
    ("oracle", ORACLE_CFG, "--levels", "-2", "levels must be >= 1"),
], ids=["parallel-0", "parallel-minus-1", "levels-0", "levels-minus-2"])
def test_counts_below_one_are_rejected(tmp_path, capsys, command, cfg_text, option, value,
                                       message):
    out = tmp_path / "never.csv"
    args = [command, _cfg(tmp_path, cfg_text), option, value]
    if command == "run":
        args += ["--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}, not {value}\n"
    assert captured.out == "" and not out.exists()


def test_a_bug_in_a_run_is_not_reported_as_a_config_error(tmp_path, monkeypatch):
    # StreamCountError is a ValueError, but a loaded config cannot meet it:
    # raised in a run it is a bug, and it keeps its traceback
    from lisim import harness
    from lisim.passive_bf import StreamCountError

    def raise_bug(*_args, **_kwargs):
        raise StreamCountError("injected bug")

    monkeypatch.setattr(harness, "stream_weights", raise_bug)
    with pytest.raises(StreamCountError, match="injected bug"):
        main(["run", _cfg(tmp_path, SMALL_CFG), "--out", str(tmp_path / "out.csv")])
