"""Row-by-row checks of a result CSV written by ``harness.run_experiment``.

A row fails when a value is non-finite, a key rate is negative, an
``optimized`` rate is below the correlation-only (``statistical``) design's
rate for the same draw, ``bdr``/``p_frequency``/``p_runs`` leave [0, 1], or
``n_bits`` differs from ``probe_rounds``.  Missing and unexpected rows fail
too.  The reference rates are recomputed here through the public
functions, outside any timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ris_skg.bsum import optimize_design, statistical_design
from ris_skg.channel_model import build_correlations, dbm_to_watts
from ris_skg.harness import read_csv_rows
from ris_skg.kgr_core import min_kgr_bits


def sweep_configs(experiment, cfg):
    """(sweep value, per-point config) pairs, rebuilt from the public config
    fields the same way the harness documents its sweeps."""
    if experiment in ("kgr_vs_power", "bdr_vs_power"):
        out = []
        for p_dbm in cfg.sweep_power_dbm:
            p_w = float(dbm_to_watts(p_dbm))
            out.append((float(p_dbm),
                        replace(cfg, power_alice_w=p_w, power_bob_w=p_w)))
        return out
    if experiment == "kgr_vs_n":
        return [(float(r * c), replace(cfg, ris_shape=tuple((r, c))))
                for r, c in cfg.sweep_ris_shapes]
    raise ValueError(f"no checks defined for experiment {experiment!r}")


def expected_keys(experiment, cfg):
    return [(sval, trial, method)
            for sval, _ in sweep_configs(experiment, cfg)
            for trial in range(cfg.trials)
            for method in cfg.methods]


def _rng(sub, trial):
    return np.random.default_rng([sub.seed, trial])


def _rounded(x):
    """A float as it reads back from the CSV (12 significant digits)."""
    return float(format(float(x), ".12g"))


@dataclass
class CheckReport:
    attempted: int
    failed: int
    reasons: list = field(default_factory=list)
    kgr_bits_mean: float = math.nan
    bdr_mean: float = math.nan


def _row_problems(row, sub, trial, stat_rate):
    problems = []
    for col, text in row.items():
        try:
            val = float(text)
        except (TypeError, ValueError):
            continue
        if not math.isfinite(val):
            problems.append(f"{col} is {text}")
    if problems:
        return problems
    if "min_kgr_bits" in row:
        rate = float(row["min_kgr_bits"])
        if rate < 0:
            problems.append(f"min_kgr_bits {rate} < 0")
        if row["method"] == "optimized" and rate < stat_rate(sub, trial):
            problems.append(f"optimized {rate} below statistical "
                            f"{stat_rate(sub, trial)}")
    for col in ("bdr", "p_frequency", "p_runs"):
        if col in row and not 0.0 <= float(row[col]) <= 1.0:
            problems.append(f"{col} {row[col]} outside [0, 1]")
    if "n_bits" in row and int(float(row["n_bits"])) != sub.probe_rounds:
        problems.append(f"n_bits {row['n_bits']} != {sub.probe_rounds}")
    return problems


def check_results(experiment, cfg, path):
    """Check every row of the result CSV at ``path`` against ``cfg``."""
    subs = dict(sweep_configs(experiment, cfg))
    expected = set(expected_keys(experiment, cfg))
    stat_cache = {}

    def stat_rate(sub, trial):
        key = (id(sub), trial)
        if key not in stat_cache:
            corr = build_correlations(sub, _rng(sub, trial))
            w, v = statistical_design(corr)
            stat_cache[key] = _rounded(min_kgr_bits(corr, w, v))
        return stat_cache[key]

    report = CheckReport(attempted=len(expected), failed=0)
    seen, rates, bdrs = set(), [], []
    for row in read_csv_rows(path):
        try:
            key = (float(row["sweep_value"]), int(row["trial"]),
                   row["method"])
        except (KeyError, TypeError, ValueError):
            key = None
        if key not in expected or key in seen:
            report.failed += 1
            report.reasons.append(f"unexpected row {key}")
            continue
        seen.add(key)
        problems = _row_problems(row, subs[key[0]], key[1], stat_rate)
        if problems:
            report.failed += 1
            report.reasons.append(f"row {key}: {'; '.join(problems)}")
            continue
        if "min_kgr_bits" in row and key[2] == "optimized":
            rates.append(float(row["min_kgr_bits"]))
        if "bdr" in row:
            bdrs.append(float(row["bdr"]))
    missing = expected - seen
    report.failed += len(missing)
    report.reasons.extend(f"missing row {key}" for key in sorted(missing))
    if rates:
        report.kgr_bits_mean = float(np.mean(rates))
    if bdrs:
        report.bdr_mean = float(np.mean(bdrs))
    return report


def optimized_rate_mean(experiment, cfg):
    """Mean worst-case key rate of the optimized design over the draws of
    an experiment whose CSV carries no rate column (the probing sweep)."""
    rates = []
    for _, sub in sweep_configs(experiment, cfg):
        for trial in range(sub.trials):
            corr = build_correlations(sub, _rng(sub, trial))
            w, v, _ = optimize_design(
                corr, tol=sub.bsum_tol, max_iters=sub.bsum_max_iters,
                inner_tol=sub.inner_tol, inner_max_iters=sub.inner_max_iters)
            rates.append(min_kgr_bits(corr, w, v))
    return float(np.mean(rates))
