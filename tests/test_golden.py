"""The shipped configs' CSVs, apart from `wall_ms`, against committed fixtures.

Each config in `configs/` runs at two trials and its CSV, without the
`wall_ms` column, must equal `tests/data/<config>.csv` character for
character. A change that is meant to keep every value keeps these files; a
change that moves values on purpose regenerates them with
`PYTHONPATH=src python tests/test_golden.py` and lists the regenerated files
in `CHANGES.md`.
"""

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


if __name__ == "__main__":
    import tempfile
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            (DATA / f"{name}.csv").write_text(_csv_without_wall(name, Path(tmp) / "run.csv"))
            print(f"wrote {DATA / name}.csv")
