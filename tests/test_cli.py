"""End-to-end CLI behavior."""

import pytest

from lisim import __version__
from lisim.cli import main
from lisim.harness import load_config

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


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_oracle_refuses_large_state_space(tmp_path, capsys):
    assert main(["oracle", _cfg(tmp_path, SMALL_CFG)]) == 1
    assert "exceeds" in capsys.readouterr().err
