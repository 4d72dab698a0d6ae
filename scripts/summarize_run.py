#!/usr/bin/env python3
"""Summarize a results.csv or bdr.csv from a run directory.

Prints one line per (sweep value, method) with the trial mean and standard
deviation of the recorded metric, so a sweep can be eyeballed without any
plotting stack.  With ``--against OTHER.csv`` it prints, per cell, the
difference of the two means and its z-score (the difference over its
standard error, sqrt(sd^2/n + sd_other^2/n_other)), so two runs of the
same experiment can be checked for the same law.

    python3 scripts/summarize_run.py runs/desk/kgr_vs_power/results.csv
    python3 scripts/summarize_run.py new/bdr.csv --against old/bdr.csv
"""

import argparse
import math
import statistics
import sys
from collections import defaultdict

from ris_skg.harness import read_csv_rows

METRICS = ("min_kgr_bits", "bdr", "milliseconds")


def _cells(path):
    """(experiment, metric, row count, {(sweep value, method): values});
    ValueError, naming the file, for a file that cannot be read, has no
    rows, lacks the sweep_value, method or a known metric column, or holds
    a metric value that is not a finite number."""
    try:
        rows = read_csv_rows(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    missing = {"sweep_value", "method"} - rows[0].keys()
    if missing:
        raise ValueError(f"{path}: no {' or '.join(sorted(missing))} column")
    metric = next((m for m in METRICS if m in rows[0]), None)
    if metric is None:
        raise ValueError(
            f"{path}: no known metric column in {sorted(rows[0])}")
    groups = defaultdict(list)
    for n, row in enumerate(rows, 1):
        try:
            value = float(row[metric])
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: data row {n}: {metric} "
                             f"{row[metric]!r} is not a finite number")
        groups[(row["sweep_value"], row["method"])].append(value)
    return rows[0].get("experiment", "?"), metric, len(rows), groups


def _order(key):
    return float(key[0]), key[1]


def _stats(vals):
    return (statistics.mean(vals),
            statistics.stdev(vals) if len(vals) > 1 else 0.0, len(vals))


def _z(diff, se):
    """diff / se; 0 for equal means, infinite for a difference with no
    spread on either side."""
    if se:
        return diff / se
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def _compare(groups, other, width):
    """One line per cell of the mean difference and its z-score, then the
    largest |z|."""
    worst = 0.0
    for key in sorted(groups, key=_order):
        mean, sd, n = _stats(groups[key])
        mean_o, sd_o, n_o = _stats(other[key])
        diff = mean - mean_o
        z = _z(diff, math.sqrt(sd * sd / n + sd_o * sd_o / n_o))
        worst = max(worst, abs(z))
        print(f"  sweep={key[0]:>8}  {key[1]:<{width}}  diff={diff:+.4g}  "
              f"z={z:+.2f}  n={n}/{n_o}")
    print(f"max |z| = {worst:.2f} over {len(groups)} cells")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv_path", help="results.csv, bdr.csv or timings.csv")
    parser.add_argument("--against", metavar="OTHER.csv",
                        help="print each cell's mean difference from this "
                             "file's and its z-score")
    args = parser.parse_args(argv)

    try:
        experiment, metric, n_rows, groups = _cells(args.csv_path)
        if args.against:
            _, metric_o, _, other = _cells(args.against)
            if metric_o != metric:
                raise ValueError(f"metric {metric} against {metric_o}")
            if set(groups) != set(other):
                raise ValueError(
                    f"cells differ: only here {sorted(groups.keys() - other)}"
                    f", only there {sorted(other.keys() - groups)}")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    width = max(len(m) for _, m in groups)
    if args.against:
        print(f"{experiment}: {metric}, {args.csv_path} minus {args.against}")
        _compare(groups, other, width)
        return 0
    print(f"{experiment}: {metric} over {n_rows} rows")
    for key in sorted(groups, key=_order):
        mean, spread, n = _stats(groups[key])
        print(f"  sweep={key[0]:>8}  {key[1]:<{width}}  "
              f"mean={mean:.6g}  sd={spread:.3g}  n={n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
