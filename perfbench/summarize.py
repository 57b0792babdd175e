"""Summarize benchmark run records: median, quartiles and spread per metric.

    python3 perfbench/summarize.py                      # perfbench_out/run-*.json
    python3 perfbench/summarize.py --out summary.json   # also write JSON

The spread is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, the figure each end-to-end bound in
BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    grouped: dict[tuple[str, bool], list[dict]] = {}
    for rec in records:
        grouped.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(grouped.items()):
        table = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name][0] for r in recs]
            median = statistics.median(values)
            row = {"n": len(values), "median": median, "unit": recs[0]["metrics"][name][1]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            table[name] = row
        out[f"{workload}/trace{int(trace)}"] = {
            "seeds": sorted(r["seed"] for r in recs),
            "env": {k: v for k, v in recs[0]["env"].items() if k != "seed"}, "metrics": table}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", default="perfbench_out", help="directory of run-*.json")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    records = [json.loads(p.read_text()) for p in sorted(Path(args.runs).glob("run-*.json"))]
    if not records:
        print(f"no run records in {args.runs}")
        return 1
    summary = summarize(records)
    for key, block in summary.items():
        print(f"{key}: seeds {block['seeds']}")
        for name, row in block["metrics"].items():
            spread = row.get("spread")
            extra = ("" if spread is None else
                     f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {spread:.4f}")
            print(f"  {name:50s} median {row['median']:.6g} {row['unit']}{extra}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
