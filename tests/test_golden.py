"""The shipped configs' CSVs, apart from `wall_ms`, against committed fixtures.

Each config in `configs/` runs at two trials and its CSV, without the
`wall_ms` column, must equal `tests/data/<config>.csv` character for
character. A change that is meant to keep every value keeps these files; a
change that moves values on purpose regenerates them with
`PYTHONPATH=src python tests/test_golden.py`, which prints the
(sweep_value, method, precoding) keys of the rows it changed in each file,
and lists the regenerated files in `CHANGES.md`.
"""

import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from lisim.harness import emit_csv, load_config, run_sweep

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


def _rows_by_key(text: str) -> dict[tuple[str, str, str], list[str]]:
    """A fixture's rows keyed by (sweep_value, method, precoding)."""
    rows = list(csv.reader(io.StringIO(text)))
    return {tuple(row[:3]): row for row in rows[1:]}


def changed_keys(old: str, new: str) -> list[tuple[str, str, str]]:
    """The keys of the rows that differ between two fixtures, or that only one has."""
    before, after = _rows_by_key(old), _rows_by_key(new)
    return [key for key in before | after if before.get(key) != after.get(key)]


def test_changed_keys_names_the_rows_that_moved():
    old = "sweep_value,method,precoding,mean_se\n10,tsvd,digital,1.0\n10,spgm,digital,2.0\n"
    new = old.replace("spgm,digital,2.0", "spgm,digital,2.5") + "15,spgm,digital,3.0\n"
    assert changed_keys(old, new) == [("10", "spgm", "digital"), ("15", "spgm", "digital")]
    assert changed_keys(new, new) == []
    assert changed_keys("", new) == [("10", "tsvd", "digital"), ("10", "spgm", "digital"),
                                     ("15", "spgm", "digital")]


if __name__ == "__main__":
    import tempfile
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            path = DATA / f"{name}.csv"
            old = path.read_text() if path.exists() else ""
            new = _csv_without_wall(name, Path(tmp) / "run.csv")
            path.write_text(new)
            keys = changed_keys(old, new)
            print(f"wrote {path}: {len(keys)} changed rows")
            for key in keys:
                print("  " + ", ".join(key))
