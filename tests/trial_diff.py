"""Dump and compare the per-trial arrays of the shipped configs.

`dump` runs `harness._run_trials` on each configs/*.cfg with precoding =
both and saves every `_Trials` array but `wall_ms`, split along its mode
and method axes and keyed `<config>.<mode>.<method>.<array>`; `compare`
reports, array by array, whether two dumps are identical or how far apart
they are, so one run shows which method's arrays moved. From the
repository root:

    PYTHONPATH=src python tests/trial_diff.py dump OUT.npz [--trials N]
    PYTHONPATH=src python tests/trial_diff.py compare A.npz B.npz

Without --trials each config runs its own trial count. `compare` prints
one line per array, `identical` or the largest relative difference and
the number of entries that differ, then one summary line: how many arrays
are identical, and the largest relative difference over the rest. It
exits 1 when the keys, the shapes or the `failed` masks differ. pytest does not collect this file;
tests/test_scripts.py runs it at one trial.
"""

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from lisim.config import load_config
from lisim.harness import _run_trials, _Trials

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dump(out: str, trials: int | None = None) -> None:
    """Save the `_Trials` arrays of every shipped config to `out`."""
    arrays = {}
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = replace(load_config(path), precoding="both")
        found = _run_trials(cfg if trials is None else replace(cfg, trials=trials))
        for name in (f.name for f in fields(_Trials) if f.name != "wall_ms"):
            for k, mode in enumerate(("digital", "hybrid")):
                for m, method in enumerate(cfg.methods):
                    arrays[f"{path.stem}.{mode}.{method}.{name}"] = getattr(found, name)[:, m, k]
    np.savez(out, **arrays)


def compare(a_path: str, b_path: str) -> bool:
    """Print how each array of dump `b_path` differs from `a_path`'s; True
    when both hold the same keys, shapes and `failed` masks."""
    with np.load(a_path) as a_file, np.load(b_path) as b_file:
        a, b = dict(a_file), dict(b_file)
    if a.keys() != b.keys():
        print(f"keys differ: {sorted(a.keys() ^ b.keys())}")
        return False
    same, identical, largest = True, 0, []
    for key in sorted(a):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            print(f"{key}: shapes differ, {x.shape} and {y.shape}")
            same = False
            continue
        differ = ~((x == y) | (np.isnan(x) & np.isnan(y)) if x.dtype.kind == "f" else x == y)
        if not differ.any():
            print(f"{key}: identical")
            identical += 1
            continue
        if key.endswith(".failed"):
            same = False
            print(f"{key}: {differ.sum()} of {x.size} entries differ")
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(x - y)[differ] / np.maximum(np.abs(x), np.abs(y))[differ]
        largest.append(np.max(rel))
        print(f"{key}: largest relative difference {largest[-1]:.3g}, "
              f"{differ.sum()} of {x.size} entries differ")
    rest = f", largest relative difference {max(largest):.3g} over the rest" if largest else ""
    print(f"{identical} of {len(a)} arrays identical{rest}")
    return same


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dumping = commands.add_parser("dump")
    dumping.add_argument("out")
    dumping.add_argument("--trials", type=int)
    comparing = commands.add_parser("compare")
    comparing.add_argument("a")
    comparing.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.trials)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
