"""End-to-end CLI behavior."""

import pytest

from lisim import __version__
from lisim.cli import main
from lisim.config import load_config

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

POWER_ONLY_CFG = """
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

# three streams over a cascade of rank at most lis_y * lis_z = 2
NARROW_LIS_CFG = """
n_tx = 16
n_rx = 16
lis_y = 1
lis_z = 2
r_t = 4
r_r = 4
n_streams = 3
p_paths = 4
l_paths = 4
trials = 2
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
    ("shadow_sigma_db = -5.8", "shadow_sigma must be non-negative, not -5.8"),
    # a path or cascade power, at 6 sigma of shadowing, that no normal
    # float64 holds: a draw overflows or underflows, and every rate is NaN;
    # or a cascade that float64 holds but whose rate at 30 dBm over the
    # noise overflows (an inf rate that counted no error)
    ("pathloss_a = 1e4", "link budget"), ("pathloss_a = 1600", "link budget"),
    ("rician_mu_db = -3000", "link budget"), ("pathloss_b = -1e3", "link budget"),
    ("bs_pos = 1e308, 0, 0", "link budget"), ("shadow_sigma_db = 1e4", "link budget"),
    ("pathloss_a = -1500", "link budget"),
])
def test_run_rejects_a_link_budget_out_of_range(tmp_path, capsys, line, message):
    # each value overflows, vanishes or has no meaning in the link budget
    # (a negative shadowing sigma would run as no shadowing): an error
    # message before any trial runs, not a traceback or a CSV of rows; the
    # config's power is its one sweep value, so it has no sweep_values
    out = tmp_path / "never.csv"
    text = SMALL_CFG.replace("sweep_values = 40\n", "") + line + "\n"
    assert main(["run", _cfg(tmp_path, text), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert len(err.splitlines()) == 1 and captured.out == ""
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
    # sweep's one value, so `run` draws at 40 dBm, not at 30
    cfg = load_config(_cfg(tmp_path, POWER_ONLY_CFG))
    assert (cfg.sweep_variable, cfg.sweep_values) == ("tx_power_dbm", (40.0,))


@pytest.mark.parametrize("value", ["0", "-1"], ids=["parallel-0", "parallel-minus-1"])
def test_counts_below_one_are_rejected(tmp_path, capsys, value):
    out = tmp_path / "never.csv"
    assert main(["run", _cfg(tmp_path, SMALL_CFG), "--parallel", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: parallel must be >= 1, not {value}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("text, named", [
    (NARROW_LIS_CFG, ""),
    (NARROW_LIS_CFG.replace("lis_z = 2", "lis_z = 8")
     + "sweep_variable = lis_elements\nsweep_values = 2, 8\n", "lis_elements sweep value 2: "),
], ids=["base", "lis-elements-sweep"])
def test_more_streams_than_lis_elements_are_rejected(tmp_path, capsys, text, named):
    # a cascade of rank below n_streams gives rows of rounding-level rates
    # and no error counted: the config, or the sweep value, fails at load
    out = tmp_path / "never.csv"
    assert main(["run", _cfg(tmp_path, text), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {named}n_streams must not exceed the LIS element "
                            "count lis_y * lis_z\n")
    assert captured.out == "" and not out.exists()


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("trials, parallel, workers", [
    ("2", "64", [2]), ("3", "2", [2]), ("1", "4", []),
], ids=["2-groups-of-64", "3-groups-of-2", "1-group"])
def test_parallel_starts_at_most_one_worker_per_group(tmp_path, monkeypatch, trials, parallel,
                                                      workers):
    # a pool forks all its workers at its first task, so --parallel K
    # starts min(K, groups) of them, and none for one group
    import concurrent.futures
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return _SerialPool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    cfg = _cfg(tmp_path, SMALL_CFG)
    serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["run", cfg, "--trials", trials, "--out", str(serial)]) == 0
    assert main(["run", cfg, "--trials", trials, "--parallel", parallel,
                 "--out", str(pooled)]) == 0
    assert started == workers
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(serial) == strip(pooled)


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
