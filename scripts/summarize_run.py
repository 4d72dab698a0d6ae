#!/usr/bin/env python3
"""Summarize a results.csv or bdr.csv from a run directory.

Prints one line per (sweep value, method) with the trial mean and standard
deviation of the recorded metric, so a sweep can be eyeballed without any
plotting stack.

    python3 scripts/summarize_run.py runs/desk/kgr_vs_power/results.csv
"""

import argparse
import statistics
import sys
from collections import defaultdict

from ris_skg.harness import read_csv_rows

METRICS = ("min_kgr_bits", "bdr", "milliseconds")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv_path", help="results.csv, bdr.csv or timings.csv")
    args = parser.parse_args(argv)

    rows = read_csv_rows(args.csv_path)
    if not rows:
        print("no data rows", file=sys.stderr)
        return 1
    metric = next((m for m in METRICS if m in rows[0]), None)
    if metric is None:
        print(f"no known metric column in {sorted(rows[0])}", file=sys.stderr)
        return 1

    groups = defaultdict(list)
    for row in rows:
        groups[(row["sweep_value"], row["method"])].append(float(row[metric]))

    experiment = rows[0].get("experiment", "?")
    print(f"{experiment}: {metric} over {len(rows)} rows")
    width = max(len(m) for _, m in groups)
    for (sval, method), vals in sorted(
            groups.items(), key=lambda kv: (float(kv[0][0]), kv[0][1])):
        spread = statistics.stdev(vals) if len(vals) > 1 else 0.0
        print(f"  sweep={sval:>8}  {method:<{width}}  "
              f"mean={statistics.mean(vals):.6g}  sd={spread:.3g}  "
              f"n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
