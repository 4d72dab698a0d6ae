"""Experiment harness: repeatable sweeps written as flat CSV artifacts.

Every experiment produces a results file with a fixed schema plus a
sidecar with wall-clock timings and a JSON manifest describing the
resolved configuration.  One driver, ``_run_sweep``, runs every
experiment: it makes each sweep point's designs, evaluates them in one
call per point (key rates) or per trial (probing), and gives each timing
row its design's time plus its share of that call.  All randomness is
derived from the config seed through three families of streams:

- a trial's eavesdropper, ``[seed, trial]``;
- a method's designs at a sweep point, ``[seed, sweep index, *method name
  bytes, 2]``;
- a trial's probe of every method's designs, ``[seed, trial, 1]``.

So two runs of the same experiment with the same config produce
byte-identical result files (timings are kept out of the results file for
exactly that reason), and a method's rows do not depend on which other
methods run; the methods of a trial are probed from the same draws.
"""

from __future__ import annotations

import collections
import csv
import json
import math
import os
import time
import warnings
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .baselines import DESIGN_METHODS
from .channel_model import (ConfigError, ScenarioConfig, build_correlations,
                            config_hash, dbm_to_watts, parse_config_values,
                            simulate_probing, sweep_value)
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
    """Resolve a config in one step: preset defaults, then file overrides,
    then CLI overrides, built (and so checked) once."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    overrides = {name: value for name, value in (("trials", trials),
                                                 ("seed", seed))
                 if value is not None}
    return ScenarioConfig(**{**PRESETS[preset],
                             **parse_config_values(config_text or ""),
                             **overrides})


# ---------------------------------------------------------------------------
# quantization and randomness checks


def quantize_median_bits(values):
    """Binary key material: 1 where the magnitude exceeds its own median.

    With distinct values this yields a balanced split ([1,2,3,4] ->
    [0,0,1,1]); a constant input produces all zeros and a warning.
    """
    values = np.asarray(values, dtype=float)
    # np.median's value (the middle element, or the mean of the middle
    # two) from one sort, without its general-axis machinery
    ordered = np.sort(values, axis=None)
    mid = values.size // 2
    median = (ordered[mid] if values.size % 2
              else np.mean(ordered[mid - 1:mid + 1]))
    bits = (values > median).astype(np.int8)
    if values.size > 1 and ordered[0] == ordered[-1]:
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
    """Monobit balance p-value: erfc(|sum(2b-1)| / sqrt(n) / sqrt(2)),
    the sum taken as twice the count of ones less n."""
    bits = np.asarray(bits)
    n = bits.size
    if n == 0:
        raise ValueError("empty bit sequence")
    s = 2 * np.count_nonzero(bits) - n
    return math.erfc(abs(s) / np.sqrt(n) / np.sqrt(2.0))


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
    return math.erfc(num / den)


# ---------------------------------------------------------------------------
# experiment plumbing


def _spec(value):
    """How a cell of ``value``'s type is written: an integer in full, a
    float to 12 significant digits, anything else as ``str`` writes it."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.12g"
    return "%s"


def _fmt(value):
    return _spec(value) % (value,)


def _write_csv(path, columns, rows, schema_name, schema_version, experiment):
    """Two comment lines, then the header and the rows as ``csv.writer``
    writes them (``\r\n`` row ends), in one write.  Every row is typed like
    the first, and no cell needs quoting: the harness writes numbers and
    the names of experiments and methods."""
    line = ",".join(map(_spec, rows[0])) + "\r\n" if rows else ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {schema_name}-schema={schema_version}\n"
                 f"# experiment={experiment}\n"
                 + ",".join(columns) + "\r\n"
                 + "".join([line % row for row in rows]))


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
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# an experiment's command-line help, the list field it sweeps, a sweep point's
# config from the base config and one entry, and whether it probes its designs
Experiment = collections.namedtuple("Experiment", "help sweeps point probes",
                                    defaults=(False,))


def _at_power(cfg, p_dbm):
    p_w = dbm_to_watts(p_dbm)
    return replace(cfg, power_alice_w=p_w, power_bob_w=p_w)


# every experiment, declared here only: the CLI and the sweep read this table
EXPERIMENTS = {
    "kgr_vs_power": Experiment("key rate versus probing power (dBm sweep)",
                               "sweep_power_dbm", _at_power),
    "kgr_vs_n": Experiment(
        "key rate versus number of surface elements", "sweep_ris_shapes",
        lambda cfg, shape: replace(cfg, ris_shape=shape)),
    "kgr_vs_m": Experiment(
        "key rate versus number of base-station antennas", "sweep_bs_shapes",
        lambda cfg, shape: replace(cfg, bs_shape=shape)),
    "kgr_vs_eve_radius": Experiment(
        "key rate versus eavesdropper placement radius", "sweep_eve_radius_m",
        lambda cfg, radius: replace(cfg, eve_radius_m=radius)),
    "bdr_vs_power": Experiment(
        "bit disagreement rate and randomness checks vs power",
        "sweep_power_dbm", _at_power, probes=True),
}


def _sweep_configs(cfg, experiment):
    """(sweep value for the CSV, config) for each point of the experiment's
    sweep; ConfigError if a method is unknown or the sweep is empty."""
    for name in cfg.methods:
        if name not in DESIGN_METHODS:
            raise ConfigError(
                f"unknown method {name!r}; known: {sorted(DESIGN_METHODS)}")
    spec = EXPERIMENTS[experiment]
    values = getattr(cfg, spec.sweeps)
    if not values:
        raise ConfigError(f"experiment {experiment!r} requires config key "
                          f"{spec.sweeps}")
    return [(sweep_value(x), spec.point(cfg, x)) for x in values]


def _probe_records(corrs, w, v, seeds, rounds):
    """Probe a stack of designs, each on its own CorrelationSet as in
    ``simulate_probing``, from one set of draws, and return each design's
    record: the bit disagreement rate between the legitimate sequences,
    the randomness p-values and the length of the user's bits.  Every
    design's observations are alive at once: 2 x designs x rounds complex
    values.  ConfigError if an observation is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        obs_a, obs_b, _ = simulate_probing(
            corrs, w, v, np.random.default_rng(seeds), rounds, eve=False)
    if not (np.isfinite(obs_a).all() and np.isfinite(obs_b).all()):
        raise ConfigError("probe observations are not finite: a gain or "
                          "power overflows")
    records = []
    for alice, bob in zip(obs_a, obs_b):
        bits_a = quantize_median_bits(np.abs(alice))
        bits_b = quantize_median_bits(np.abs(bob))
        records.append((bit_disagreement(bits_a, bits_b),
                        frequency_test(bits_b), runs_test(bits_b),
                        bits_b.size))
    return records


def _timed(fn, *args):
    """fn(*args) and its own wall time in milliseconds."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def _draw(sub, trial):
    """A trial's scenario: its eavesdropper drawn from ``[seed, trial]``."""
    return build_correlations(sub, np.random.default_rng([sub.seed, trial]))


def _design_seeds(sub, si, method):
    """A design method's stream at sweep point ``si``: keyed on its name,
    not its position, so its rows do not depend on which other methods run.
    The trailing 2 keeps it apart from Eve's ``[seed, trial]``, which
    SeedSequence pads with zeros to four words, and from a trial's probe
    stream ``[seed, trial, 1]``."""
    return [sub.seed, si, *method.encode(), 2]


def _designs(sub, si, first):
    """A sweep point's designs from its first draw, one call per method:
    each method's (w, v) stacks, one row per trial, and its call time in
    milliseconds divided by ``trials``.  A design reads no draw's
    eavesdropper, so any draw of the point would give the same rows."""
    out = []
    for method in sub.methods:
        (w, v), ms = _timed(DESIGN_METHODS[method], first,
                            _design_seeds(sub, si, method), sub.trials)
        out.append((w, v, ms / sub.trials))
    return out


def _rates(sval, draws, designs):
    """Every design of a sweep point rated on every draw of it in one
    ``min_kgr_bits`` call: a (trial, method, 1) array, one record of one
    rate per row.  The call's CorrelationSet carries every draw's
    per-antenna arrays, shaped (antenna, draw, 1) to broadcast against
    the (draw, method) design stacks; the draws share everything else.  A
    rate that is not finite raises ConfigError."""
    stacked = draws[0].with_eve(*(
        np.stack([getattr(corr, name) for corr in draws], axis=1)[..., None]
        for name in ("beta_ae", "beta_re", "rho_eve")))
    with np.errstate(all="ignore"):
        rates = min_kgr_bits(stacked,
                             np.stack([w for w, _, _ in designs], axis=1),
                             np.stack([v for _, v, _ in designs], axis=1))
    if not np.isfinite(rates).all():
        raise ConfigError(
            f"key rates at sweep value {_fmt(sval)} are not "
            "finite: a gain or power overflows")
    return rates[..., None]


def _run_sweep(cfg, experiment):
    """The one sweep driver: an experiment's rows and timing rows.

    Every point's config is built, and so checked, first; then each
    point's first draw and, from it, the point's designs.  Each group of
    draws is drawn just before the one call that evaluates it: a key-rate
    point's trials in ``_rates``, or a probing trial's points in
    ``_probe_records`` from the trial's stream ``[seed, trial, 1]``, whose
    2 x points x methods x rounds complex outputs are alive at once.  The
    points share the sweep's trials, methods and probe rounds.  Rows come
    out in (point, trial, method) order.  A timing row is its design's time
    per trial plus its share of the call that evaluated it: the call's wall
    time divided by the rows it evaluated."""
    points = _sweep_configs(cfg, experiment)
    firsts = [_draw(sub, 0) for _, sub in points]
    designs = [_designs(sub, si, first)
               for si, ((_, sub), first) in enumerate(zip(points, firsts))]
    # (point, trial) -> each method's record, and each row's share of the
    # call that evaluated it
    evaluated = {}
    if EXPERIMENTS[experiment].probes:
        _, base = points[0]
        stack = [design for point in designs for design in point]
        width = len(base.methods)
        for trial in range(base.trials):
            draws = firsts if trial == 0 else [_draw(sub, trial)
                                              for _, sub in points]
            records, ms = _timed(
                _probe_records,
                [corr for corr in draws for _ in base.methods],
                np.stack([w[trial] for w, _, _ in stack]),
                np.stack([v[trial] for _, v, _ in stack]),
                [base.seed, trial, 1], base.probe_rounds)
            for si in range(len(points)):
                evaluated[si, trial] = (records[si * width:(si + 1) * width],
                                        ms / len(records))
    else:
        for si, ((sval, sub), first) in enumerate(zip(points, firsts)):
            draws = [first, *(_draw(sub, trial)
                              for trial in range(1, sub.trials))]
            rates, ms = _timed(_rates, sval, draws, designs[si])
            share_ms = ms / (sub.trials * len(sub.methods))
            for trial in range(sub.trials):
                evaluated[si, trial] = rates[trial], share_ms
    rows, timings = [], []
    for si, (sval, sub) in enumerate(points):
        for trial in range(sub.trials):
            records, share_ms = evaluated[si, trial]
            for method, (_, _, design_ms), record in zip(
                    sub.methods, designs[si], records):
                head = (experiment, sval, trial, method)
                rows.append((*head, *record, sub.seed))
                timings.append((*head, design_ms + share_ms))
    return rows, timings


def run_experiment(experiment, cfg, out_dir):
    """Run one experiment end to end and write its artifacts.

    Returns a dict with the written file paths and the row count.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"known: {list(EXPERIMENTS)}")
    os.makedirs(out_dir, exist_ok=True)

    rows, timings = _run_sweep(cfg, experiment)
    name, columns, schema = (
        ("bdr", BDR_COLUMNS, BDR_SCHEMA) if EXPERIMENTS[experiment].probes
        else ("results", RESULT_COLUMNS, RESULTS_SCHEMA))
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
