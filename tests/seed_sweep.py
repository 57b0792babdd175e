"""Pass counts of the trend criteria 4, 5, 6 and 10 over seeds.

Each criterion runs with the config and statistics of its test in
tests/test_acceptance.py, at the test's seed plus 1000 k for k = 0, 1, ...;
no criterion changes. From the repository root:

    PYTHONPATH=src python tests/seed_sweep.py [number of seeds, default 10]

It prints each run's report line, then one pass count per criterion. pytest
does not collect this file; tests/test_acceptance.py runs it at one seed.
"""

import sys

from test_acceptance import SEEDS, TRENDS


def main(argv: list[str]) -> dict[int, int]:
    """Run every trend criterion at the first `argv[0]` seeds (10 without
    it) and return the number of seeds at which each passes."""
    n_seeds = int(argv[0]) if argv else 10
    passes = {}
    for number, criterion in TRENDS.items():
        passes[number] = 0
        for k in range(n_seeds):
            seed = SEEDS[number] + 1000 * k
            ok, detail = criterion(seed)
            passes[number] += ok
            print(f"[criterion {number}] seed {seed} {'PASS' if ok else 'FAIL'}: {detail}")
    for number, count in passes.items():
        print(f"criterion {number}: {count} of {n_seeds} seeds pass")
    return passes


if __name__ == "__main__":
    main(sys.argv[1:])
