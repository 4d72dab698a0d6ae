"""Experiment harness: repeatable sweeps written as flat CSV artifacts.

Every experiment produces a results file with a fixed schema plus a
sidecar with wall-clock timings and a JSON manifest describing the
resolved configuration.  All randomness is derived from the config seed,
the trial index, and the sweep/method positions, so two runs of the same
experiment with the same config produce byte-identical result files
(timings are kept out of the results file for exactly that reason).
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import erfc

from . import __version__
from .baselines import DESIGN_METHODS
from .channel_model import (ConfigError, build_correlations, config_hash,
                            dbm_to_watts, parse_config_text, simulate_probing)
from .kgr_core import min_kgr_bits

RESULTS_SCHEMA = 2
BDR_SCHEMA = 1
TIMINGS_SCHEMA = 1

RESULT_COLUMNS = ("experiment", "sweep_value", "trial", "method",
                  "min_kgr_bits", "seed")
BDR_COLUMNS = ("experiment", "sweep_value", "trial", "method", "bdr",
               "p_frequency", "p_runs", "n_bits", "seed")
TIMING_COLUMNS = ("experiment", "sweep_value", "trial", "method",
                  "milliseconds")

PRESETS = {
    "paper": {
        "sweep_power_dbm": (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        "sweep_ris_shapes": ((5, 4), (5, 8), (5, 12)),
        "sweep_bs_shapes": ((5, 1), (5, 2), (5, 3), (5, 4)),
        "sweep_eve_radius_m": (1.0, 2.0, 5.0, 10.0, 20.0),
        "trials": 1000,
    },
    "desk": {
        "bs_shape": (5, 2),
        "ris_shape": (6, 4),
        "eve_count": 3,
        "bs_corr": 0.2,
        "trials": 50,
        "probe_rounds": 20000,
        "sweep_power_dbm": (10.0, 20.0, 30.0),
        "sweep_ris_shapes": ((5, 2), (5, 4), (5, 8)),
        "sweep_bs_shapes": ((5, 1), (5, 2), (5, 4)),
        "sweep_eve_radius_m": (1.0, 5.0, 10.0),
    },
}


def build_config(preset="paper", config_text=None, trials=None, seed=None):
    """Resolve a config: preset defaults, then file overrides, then CLI
    overrides."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    cfg = parse_config_text(config_text or "", base=PRESETS[preset])
    overrides = {}
    if trials is not None:
        overrides["trials"] = trials
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        cfg = replace(cfg, **overrides).validate()
    return cfg


# ---------------------------------------------------------------------------
# quantization and randomness checks


def quantize_median_bits(values):
    """Binary key material: 1 where the magnitude exceeds its own median.

    With distinct values this yields a balanced split ([1,2,3,4] ->
    [0,0,1,1]); a constant input produces all zeros and a warning.
    """
    values = np.asarray(values, dtype=float)
    bits = (values > np.median(values)).astype(np.int8)
    if values.size > 1 and values.max() == values.min():
        warnings.warn("median quantizer saw a constant sequence; "
                      "emitting all-zero bits", stacklevel=2)
    return bits


def bit_disagreement(bits_a, bits_b):
    bits_a = np.asarray(bits_a)
    bits_b = np.asarray(bits_b)
    if bits_a.shape != bits_b.shape:
        raise ValueError("bit sequences must have equal length")
    return float(np.mean(bits_a != bits_b))


def frequency_test(bits):
    """Monobit balance p-value: erfc(|sum(2b-1)| / sqrt(n) / sqrt(2))."""
    bits = np.asarray(bits)
    n = bits.size
    if n == 0:
        raise ValueError("empty bit sequence")
    s = np.sum(2 * bits.astype(np.int64) - 1)
    return float(erfc(abs(s) / np.sqrt(n) / np.sqrt(2.0)))


def runs_test(bits):
    """Runs p-value with the standard balance pre-test.

    If the ones-fraction pi deviates from 1/2 by at least 2/sqrt(n) the
    test is declared failed (p = 0); otherwise
    p = erfc(|V - 2 n pi (1-pi)| / (2 sqrt(2n) pi (1-pi))) with V the
    number of runs.
    """
    bits = np.asarray(bits)
    n = bits.size
    if n < 2:
        raise ValueError("runs test needs at least 2 bits")
    pi = float(np.mean(bits))
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


# ---------------------------------------------------------------------------
# experiment plumbing


def _check_methods(cfg):
    for name in cfg.methods:
        if name not in DESIGN_METHODS:
            raise ConfigError(
                f"unknown method {name!r}; known: {sorted(DESIGN_METHODS)}")


def _needs(cfg, key, experiment):
    if not getattr(cfg, key):
        raise ConfigError(f"experiment {experiment!r} requires config key {key}")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_csv(path, columns, rows, schema_name, schema_version, experiment):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {schema_name}-schema={schema_version}\n")
        fh.write(f"# experiment={experiment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def read_csv_rows(path):
    """Read one of the harness CSVs back as a list of dicts (strings)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _write_manifest(out_dir, experiment, cfg, files):
    manifest = {
        "experiment": experiment,
        "package_version": __version__,
        "config_hash": config_hash(cfg),
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "schemas": {"results": RESULTS_SCHEMA, "bdr": BDR_SCHEMA,
                    "timings": TIMINGS_SCHEMA},
        "files": sorted(files),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
    return path


def _sweep_configs(cfg, experiment):
    """Yield (sweep_value_for_csv, per-value config) pairs."""
    if experiment in ("kgr_vs_power", "bdr_vs_power"):
        _needs(cfg, "sweep_power_dbm", experiment)
        for p_dbm in cfg.sweep_power_dbm:
            p_w = float(dbm_to_watts(p_dbm))
            yield p_dbm, replace(cfg, power_alice_w=p_w, power_bob_w=p_w)
    elif experiment == "kgr_vs_n":
        _needs(cfg, "sweep_ris_shapes", experiment)
        for shape in cfg.sweep_ris_shapes:
            yield shape[0] * shape[1], replace(cfg, ris_shape=tuple(shape))
    elif experiment == "kgr_vs_m":
        _needs(cfg, "sweep_bs_shapes", experiment)
        for shape in cfg.sweep_bs_shapes:
            yield shape[0] * shape[1], replace(cfg, bs_shape=tuple(shape))
    elif experiment == "kgr_vs_eve_radius":
        _needs(cfg, "sweep_eve_radius_m", experiment)
        for radius in cfg.sweep_eve_radius_m:
            yield radius, replace(cfg, eve_radius_m=float(radius))
    else:
        raise ValueError(f"no sweep defined for experiment {experiment!r}")


def _probe_record(corr, w, v, seeds, rounds):
    """Simulate the full probing exchange and return the bit disagreement
    rate between the legitimate sequences plus randomness p-values and
    length of the user's bits."""
    obs_a, obs_b, _ = simulate_probing(
        corr, w, v, np.random.default_rng(seeds + [1]), rounds, eve=False)
    bits_a = quantize_median_bits(np.abs(obs_a))
    bits_b = quantize_median_bits(np.abs(obs_b))
    return (bit_disagreement(bits_a, bits_b), frequency_test(bits_b),
            runs_test(bits_b), bits_b.size)


def _run_sweep(cfg, experiment):
    """Common driver: per sweep value, trial, and method, build the
    scenario, run the design, and record what the experiment measures of
    it (key rate, or probing bit statistics for ``bdr_vs_power``).  A
    timing row covers the design and its record.  Every sweep point's
    config is validated before the first trial runs."""
    _check_methods(cfg)
    points = list(_sweep_configs(cfg, experiment))
    for _, sub in points:
        sub.validate()
    rows, timings = [], []
    for si, (sval, sub) in enumerate(points):
        for trial in range(sub.trials):
            corr = build_correlations(
                sub, np.random.default_rng([sub.seed, trial]))
            for mi, method in enumerate(sub.methods):
                seeds = [sub.seed, trial, si, mi]
                t0 = time.perf_counter()
                w, v = DESIGN_METHODS[method](
                    corr, np.random.default_rng(seeds))
                if experiment == "bdr_vs_power":
                    record = _probe_record(corr, w, v, seeds,
                                           sub.probe_rounds)
                else:
                    record = (min_kgr_bits(corr, w, v),)
                ms = (time.perf_counter() - t0) * 1e3
                rows.append((experiment, sval, trial, method, *record,
                             sub.seed))
                timings.append((experiment, sval, trial, method, ms))
    return rows, timings


EXPERIMENTS = ("kgr_vs_power", "kgr_vs_n", "kgr_vs_m", "kgr_vs_eve_radius",
               "bdr_vs_power")


def run_experiment(experiment, cfg, out_dir):
    """Run one experiment end to end and write its artifacts.

    Returns a dict with the written file paths and the row count.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"known: {list(EXPERIMENTS)}")
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)

    rows, timings = _run_sweep(cfg, experiment)
    if experiment == "bdr_vs_power":
        name, columns, schema = "bdr", BDR_COLUMNS, BDR_SCHEMA
    else:
        name, columns, schema = "results", RESULT_COLUMNS, RESULTS_SCHEMA
    results_path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(results_path, columns, rows, name, schema, experiment)

    timings_path = os.path.join(out_dir, "timings.csv")
    _write_csv(timings_path, TIMING_COLUMNS, timings, "timings",
               TIMINGS_SCHEMA, experiment)
    manifest_path = _write_manifest(
        out_dir, experiment, cfg,
        [os.path.basename(results_path), os.path.basename(timings_path)])
    return {"results": results_path, "timings": timings_path,
            "manifest": manifest_path, "rows": len(rows)}
