"""The shipped configs' CSVs, apart from `wall_ms`, against committed fixtures.

Each config in `configs/` runs at two trials and its CSV, without the
`wall_ms` column, must equal `tests/data/<config>.csv` character for
character. A change that is meant to keep every value keeps these files; a
change that moves values on purpose regenerates them with
`PYTHONPATH=src python tests/test_golden.py`, which prints the
(sweep_value, method, precoding) key of each row it changed in each file,
with the row's old -> new `mean_se` and `mean_iters`, and lists the
regenerated files in `CHANGES.md`.
"""

import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from lisim.config import load_config
from lisim.harness import emit_csv, run_sweep

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.cfg"))
TRIALS = 2


def _csv_without_wall(name: str, out: Path) -> str:
    emit_csv(run_sweep(replace(load_config(ROOT / "configs" / f"{name}.cfg"), trials=TRIALS)),
             out)
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.read_text().splitlines())


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_csv_matches_its_fixture(tmp_path, name):
    assert _csv_without_wall(name, tmp_path / "run.csv") == (DATA / f"{name}.csv").read_text()


SHOWN = ("mean_se", "mean_iters")   # the columns a changed row prints


def _rows_by_key(text: str) -> dict[tuple[str, str, str], dict[str, str]]:
    """A fixture's rows, as column -> cell, keyed by (sweep_value, method, precoding)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {(row["sweep_value"], row["method"], row["precoding"]): row for row in rows}


def changed_keys(old: str, new: str) -> list[tuple[str, str, str]]:
    """The keys of the rows that differ between two fixtures, or that only one has."""
    before, after = _rows_by_key(old), _rows_by_key(new)
    return [key for key in before | after if before.get(key) != after.get(key)]


def describe_changes(old: str, new: str) -> list[str]:
    """One line per changed row: its key, then old -> new of each SHOWN
    column (`-` for a row that one fixture lacks)."""
    before, after = _rows_by_key(old), _rows_by_key(new)

    def cell(row, column):
        return f"{float(row[column]):.8g}" if row else "-"

    return [", ".join(key) + ": " + ", ".join(
                f"{column} {cell(before.get(key), column)} -> {cell(after.get(key), column)}"
                for column in SHOWN)
            for key in changed_keys(old, new)]


def test_changed_keys_names_the_rows_that_moved():
    old = "sweep_value,method,precoding,mean_se\n10,tsvd,digital,1.0\n10,spgm,digital,2.0\n"
    new = old.replace("spgm,digital,2.0", "spgm,digital,2.5") + "15,spgm,digital,3.0\n"
    assert changed_keys(old, new) == [("10", "spgm", "digital"), ("15", "spgm", "digital")]
    assert changed_keys(new, new) == []
    assert changed_keys("", new) == [("10", "tsvd", "digital"), ("10", "spgm", "digital"),
                                     ("15", "spgm", "digital")]


def test_describe_changes_shows_old_and_new_values():
    old = ("sweep_value,method,precoding,mean_se,mean_iters\n"
           "10,tsvd,digital,1.0,2.5e+01\n10,spgm,digital,2.0,8\n")
    new = old.replace("1.0,2.5e+01", "1.25,1.7e+01") + "15,spgm,digital,3.0,9\n"
    assert describe_changes(old, new) == [
        "10, tsvd, digital: mean_se 1 -> 1.25, mean_iters 25 -> 17",
        "15, spgm, digital: mean_se - -> 3, mean_iters - -> 9"]


if __name__ == "__main__":
    import tempfile
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            path = DATA / f"{name}.csv"
            old = path.read_text() if path.exists() else ""
            new = _csv_without_wall(name, Path(tmp) / "run.csv")
            path.write_text(new)
            lines = describe_changes(old, new)
            print(f"wrote {path}: {len(lines)} changed rows")
            for line in lines:
                print("  " + line)
