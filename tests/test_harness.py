"""Quantization, randomness checks, experiment artifacts, and the CLI."""

import argparse
import collections
import csv
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from ris_skg import channel_model as cm
from ris_skg import cli
from ris_skg import harness as hn
from ris_skg import problem_lift as pl
from ris_skg.channel_model import ConfigError
from ris_skg.kgr_core import min_kgr_bits

_CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# a small but complete scenario for artifact tests
_TINY = """
bs_shape = 2x2
ris_shape = 3x2
eve_count = 2
trials = 2
probe_rounds = 400
methods = optimized, no_ris
sweep_power_dbm = 10, 20
sweep_ris_shapes = 2x2, 3x2
sweep_bs_shapes = 2x1, 2x2
sweep_eve_radius_m = 2, 5
"""


def _tiny_cfg(**over):
    return replace(hn.build_config("desk", _TINY), **over)


def _draws(sub):
    """A sweep point's draws, each from its own Eve stream."""
    return [cm.build_correlations(sub, np.random.default_rng([sub.seed, t]))
            for t in range(sub.trials)]


# ---------------------------------------------------------------------------
# quantization and randomness


def test_quantizer_median_split():
    assert np.array_equal(hn.quantize_median_bits([1.0, 2.0, 3.0, 4.0]),
                          [0, 0, 1, 1])
    bits = hn.quantize_median_bits([5.0, -1.0, 0.0, 9.0, 2.0])
    assert bits.dtype == np.int8
    assert bits.sum() == 2  # two values above the median


@pytest.mark.parametrize("size", [1, 2, 3, 10, 11, 1000, 1001])
def test_quantizer_threshold_is_numpy_median(size):
    rng = np.random.default_rng(size)
    for values in (rng.standard_normal(size) ** 2,
                   rng.integers(0, 3, size).astype(float)):    # ties
        assert np.array_equal(hn.quantize_median_bits(values),
                              (values > np.median(values)).astype(np.int8))


def test_quantizer_warns_on_constant_input():
    with pytest.warns(UserWarning):
        bits = hn.quantize_median_bits([2.0, 2.0, 2.0])
    assert np.array_equal(bits, [0, 0, 0])


@pytest.mark.parametrize("size", [1, 2, 999, 1000, 10001])
def test_quantizer_and_frequency_test_match_their_old_formulas(size):
    # the frequency test counts ones and the quantizer checks for a
    # constant sequence at the ends of its sorted copy; the p-value and the
    # warning are those of the sum of 2b - 1 and of max == min
    rng = np.random.default_rng(size)
    for p_one in (0.5, 0.45, 0.0, 1.0):
        bits = (rng.uniform(size=size) < p_one).astype(np.int8)
        s = np.sum(2 * bits.astype(np.int64) - 1)
        assert hn.frequency_test(bits) == math.erfc(
            abs(s) / np.sqrt(size) / np.sqrt(2.0))
        constant = size > 1 and bits.max() == bits.min()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hn.quantize_median_bits(bits.astype(float))
        assert len(caught) == constant


def test_bit_disagreement():
    assert hn.bit_disagreement([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
    assert hn.bit_disagreement([1, 1], [1, 1]) == 0.0
    with pytest.raises(ValueError):
        hn.bit_disagreement([0, 1], [0, 1, 1])


def test_frequency_test_known_answers():
    # published ten-bit worked example
    assert hn.frequency_test([1, 0, 1, 1, 0, 1, 0, 1, 0, 1]) == pytest.approx(
        0.527089, abs=1e-6)
    # perfectly balanced input
    assert hn.frequency_test([0, 1] * 500) == pytest.approx(1.0)
    # heavily biased input
    assert hn.frequency_test([1] * 100) < 1e-10
    with pytest.raises(ValueError):
        hn.frequency_test([])


def test_runs_test_known_answers():
    # published ten-bit worked example
    assert hn.runs_test([1, 0, 0, 1, 1, 0, 1, 0, 1, 1]) == pytest.approx(
        0.147232, abs=1e-6)
    # alternating bits are balanced but far too many runs
    assert hn.runs_test([0, 1] * 500) < 1e-10
    # biased input fails the balance pre-test outright
    assert hn.runs_test([1] * 90 + [0] * 10) == 0.0
    with pytest.raises(ValueError):
        hn.runs_test([1])


@pytest.mark.parametrize("pairs, ones", [(240, 500), (270, 517), (290, 540),
                                         (300, 560), (310, 503)])
def test_p_values_match_scipy_erfc(pairs, ones):
    # both tests take their p-value from math.erfc; scipy's erfc on the same
    # statistic is the reference.  1000 bits: ``pairs`` pairs 0, 1, then a
    # block of 0s and a block of 1s, so 2 pairs + 2 runs; p goes down to
    # 1.5e-4 (frequency) and 1.2e-14 (runs)
    bits = np.repeat([0, 1] * pairs + [0, 1],
                     [1] * 2 * pairs + [1000 - pairs - ones, ones - pairs])
    s = 2 * ones - 1000
    assert hn.frequency_test(bits) == pytest.approx(
        erfc(abs(s) / np.sqrt(1000) / np.sqrt(2.0)), rel=1e-14, abs=0.0)
    pi = ones / 1000
    runs = 2 * pairs + 2
    assert hn.runs_test(bits) == pytest.approx(
        erfc(abs(runs - 2000 * pi * (1 - pi))
             / (2 * np.sqrt(2000) * pi * (1 - pi))), rel=1e-14, abs=0.0)


def test_random_bits_pass_both_tests():
    rng = np.random.default_rng(12)
    bits = (rng.uniform(size=20000) > 0.5).astype(np.int8)
    assert hn.frequency_test(bits) > 0.01
    assert hn.runs_test(bits) > 0.01


# ---------------------------------------------------------------------------
# config resolution


def test_build_config_presets_and_overrides():
    cfg = hn.build_config("desk")
    assert cfg.bs_shape == (5, 2) and cfg.ris_shape == (6, 4)
    assert cfg.trials == 50  # reduced averaging, full-scale code path
    cfg = hn.build_config("paper")
    assert cfg.bs_shape == (5, 3) and cfg.trials == 1000
    cfg = hn.build_config("desk", "trials = 4", trials=6, seed=99)
    assert cfg.trials == 6 and cfg.seed == 99  # CLI override wins over file
    with pytest.raises(ConfigError):
        hn.build_config("bench")


def test_bundled_config_files_parse():
    paths = sorted(_CONFIG_DIR.glob("*.cfg"))
    assert paths, "no bundled config files found"
    for path in paths:
        for preset in ("paper", "desk"):
            # raises ConfigError unless the layered config passes its checks
            hn.build_config(preset, path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(_CONFIG_DIR.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_bundled_config_runs_the_experiment_in_its_header(path, tmp_path):
    # each file's header shows the command it is for; ``<experiment>``
    # stands for every experiment (test_bundled_config_files_parse checks
    # that each file parses on both presets, and
    # test_every_bundled_config_runs_every_experiment runs it)
    named = re.search(r"ris-skg (\S+) --preset desk --config configs/"
                      + re.escape(path.name), path.read_text(encoding="utf-8"))
    assert named, f"{path.name} names no experiment in its header"
    assert named[1] == "<experiment>" or named[1] in hn.EXPERIMENTS


@pytest.mark.parametrize("experiment", list(hn.EXPERIMENTS))
@pytest.mark.parametrize("path", sorted(_CONFIG_DIR.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_every_bundled_config_runs_every_experiment(path, experiment,
                                                    tmp_path):
    rc = cli.main([experiment, "--preset", "desk", "--config", str(path),
                   "--trials", "1", "--out", str(tmp_path / experiment)])
    assert rc == 0



# ---------------------------------------------------------------------------
# experiment artifacts


def test_design_sweep_artifacts(tmp_path):
    cfg = _tiny_cfg()
    info = hn.run_experiment("kgr_vs_power", cfg, str(tmp_path))
    assert info["rows"] == 2 * 2 * 2  # powers x trials x methods

    with open(info["results"], "r", encoding="utf-8") as fh:
        first, second, header = fh.readline(), fh.readline(), fh.readline()
    assert first.strip() == "# results-schema=2"
    assert second.strip() == "# experiment=kgr_vs_power"
    assert tuple(header.strip().split(",")) == hn.RESULT_COLUMNS

    rows = hn.read_csv_rows(info["results"])
    assert len(rows) == 8
    assert {r["method"] for r in rows} == {"optimized", "no_ris"}
    assert {r["sweep_value"] for r in rows} == {"10", "20"}
    for r in rows:
        assert float(r["min_kgr_bits"]) >= 0.0
        assert r["experiment"] == "kgr_vs_power"

    timing_rows = hn.read_csv_rows(info["timings"])
    assert len(timing_rows) == 8
    assert all(float(r["milliseconds"]) >= 0 for r in timing_rows)

    with open(info["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["experiment"] == "kgr_vs_power"
    assert manifest["config"]["trials"] == 2
    assert len(manifest["config_hash"]) == 16
    assert sorted(manifest["files"]) == ["results.csv", "timings.csv"]
    assert not any("time" in key for key in manifest)


def test_csv_writer_writes_what_csv_writer_writes(tmp_path):
    # the one-write CSV writer against csv.writer with a per-cell format
    # (an integer in full, a float to 12 significant digits, anything
    # else as str), on the result and timing rows of every experiment
    def cell(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".12g")
        return str(value)

    cfg = _tiny_cfg(trials=2, methods=tuple(hn.DESIGN_METHODS))
    for experiment in hn.EXPERIMENTS:
        rows, timings = hn._run_sweep(cfg, experiment)
        columns = (hn.BDR_COLUMNS if hn.EXPERIMENTS[experiment].probes
                   else hn.RESULT_COLUMNS)
        for name, columns, table in (("rows", columns, rows),
                                     ("timings", hn.TIMING_COLUMNS, timings)):
            path = tmp_path / f"{experiment}_{name}.csv"
            hn._write_csv(path, columns, table, name, 3, experiment)
            want = io.StringIO(newline="")
            want.write(f"# {name}-schema=3\n# experiment={experiment}\n")
            writer = csv.writer(want)
            writer.writerow(columns)
            for row in table:
                writer.writerow([cell(x) for x in row])
            assert path.read_bytes() == want.getvalue().encode(), (
                experiment, name)


def test_results_are_byte_deterministic(tmp_path):
    cfg = _tiny_cfg()
    a = hn.run_experiment("kgr_vs_m", cfg, str(tmp_path / "a"))
    b = hn.run_experiment("kgr_vs_m", cfg, str(tmp_path / "b"))
    with open(a["results"], "rb") as fh:
        bytes_a = fh.read()
    with open(b["results"], "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    with open(a["manifest"], "rb") as fh:
        man_a = fh.read()
    with open(b["manifest"], "rb") as fh:
        man_b = fh.read()
    assert man_a == man_b


def _types(value):
    """The type of a config value, and of each element of a tuple."""
    if isinstance(value, tuple):
        return tuple, [_types(x) for x in value]
    return type(value)


@pytest.mark.parametrize("field, value", [
    ("trials", np.int64(2)),
    ("ris_shape", [3, 2]),
    ("ris_shape", (np.int64(3), 2)),
    ("alice_pos", [5.0, 0.0, 20.0]),
    ("sweep_power_dbm", [np.float64(10.0), 20]),
    ("trials", "2"),
    ("ris_shape", "3x2"),
    ("methods", "optimized, no_ris"),
    ("sweep_power_dbm", "10, 20"),
])
def test_list_and_numpy_values_make_the_plain_config(tmp_path, field, value):
    # a value of another type that the field's kind accepts makes the very
    # config the plain value does: equal, with the same hash, Python types
    # throughout, and a manifest that reads back
    plain = _tiny_cfg()
    cfg = _tiny_cfg(**{field: value})
    assert cfg == plain and cm.config_hash(cfg) == cm.config_hash(plain)
    for name in vars(plain):
        assert _types(getattr(cfg, name)) == _types(getattr(plain, name))
    info = hn.run_experiment("kgr_vs_power", cfg, str(tmp_path))
    with open(info["manifest"], "r", encoding="utf-8") as fh:
        assert json.load(fh)["config_hash"] == cm.config_hash(plain)


def test_bdr_experiment_artifacts(tmp_path):
    cfg = _tiny_cfg(probe_rounds=2000, trials=1, methods=("optimized",))
    info = hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    assert os.path.basename(info["results"]) == "bdr.csv"
    rows = hn.read_csv_rows(info["results"])
    assert len(rows) == 2
    for r in rows:
        assert tuple(r) == hn.BDR_COLUMNS
        assert 0.0 <= float(r["bdr"]) <= 1.0
        assert 0.0 <= float(r["p_frequency"]) <= 1.0
        assert 0.0 <= float(r["p_runs"]) <= 1.0
        assert int(r["n_bits"]) == 2000


def test_sweep_value_encodes_element_counts(tmp_path):
    cfg = _tiny_cfg(trials=1, methods=("no_ris",))
    info = hn.run_experiment("kgr_vs_n", cfg, str(tmp_path))
    rows = hn.read_csv_rows(info["results"])
    assert sorted({int(r["sweep_value"]) for r in rows}) == [4, 6]


def test_unknown_experiment_and_method_rejected(tmp_path):
    with pytest.raises(ConfigError):
        hn.run_experiment("speedup", _tiny_cfg(), str(tmp_path))
    cfg = _tiny_cfg(methods=("optimized", "quantum"))
    with pytest.raises(ConfigError):
        hn.run_experiment("kgr_vs_power", cfg, str(tmp_path))
    cfg = _tiny_cfg(sweep_power_dbm=())
    with pytest.raises(ConfigError):
        hn.run_experiment("kgr_vs_power", cfg, str(tmp_path))


def test_bad_last_sweep_point_fails_before_any_trial(tmp_path, monkeypatch):
    def no_trial(cfg, rng):
        raise AssertionError("a trial started before the sweep was checked")

    monkeypatch.setattr(hn, "build_correlations", no_trial)
    cfg = _tiny_cfg(sweep_ris_shapes=((2, 2), (3, 2), (0, 4)))
    with pytest.raises(ConfigError, match="array shapes"):
        hn.run_experiment("kgr_vs_n", cfg, str(tmp_path))


def test_no_experiment_runs_an_iterative_solver(tmp_path, monkeypatch):
    # BSUM and the projected-subgradient check both start by lifting the
    # problem; the experiments run the closed-form designs only
    def no_lift(corr):
        raise AssertionError("an experiment lifted the design problem")

    monkeypatch.setattr(pl, "build_lifted", no_lift)
    cfg = _tiny_cfg(trials=1, methods=tuple(hn.DESIGN_METHODS))
    for experiment in hn.EXPERIMENTS:
        info = hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        assert info["rows"] == 2 * len(cfg.methods)


def test_sweep_decomposes_each_correlation_matrix_once(tmp_path, monkeypatch):
    # R_bs and R_ris are fixed by a sweep point's config: its trials share
    # one eigendecomposition of each, however many there are, whether the
    # sweep changes the geometry (kgr_vs_n) or only the power
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = _tiny_cfg(trials=10, sweep_power_dbm=(10.0, 20.0, 30.0))
    for experiment in ("kgr_vs_n", "kgr_vs_power"):
        cm._shared_draw.cache_clear()
        calls.clear()
        hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        points = list(hn._sweep_configs(cfg, experiment))
        assert len(calls) == 2 * len(points), experiment


def test_a_long_probing_sweep_decomposes_each_point_once(tmp_path,
                                                        monkeypatch):
    # a probing sweep draws each trial at every point in turn, so a sweep
    # longer than a small memo would decompose its matrices at every draw
    calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    powers = tuple(float(p) for p in range(0, 45, 5))
    cfg = _tiny_cfg(trials=3, probe_rounds=50, methods=("no_ris",),
                    sweep_power_dbm=powers)
    cm._shared_draw.cache_clear()
    hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    assert len(calls) == 2 * len(powers)


def test_batched_rates_equal_per_call_rates(tmp_path):
    # a sweep point rates all its designs in one min_kgr_bits call; each
    # row must be what the call on that one draw and design returns
    cfg = _tiny_cfg(trials=3, methods=tuple(hn.DESIGN_METHODS))
    for experiment in ("kgr_vs_power", "kgr_vs_n", "kgr_vs_m",
                       "kgr_vs_eve_radius"):
        info = hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        rows = hn.read_csv_rows(info["results"])
        raw, _ = hn._run_sweep(cfg, experiment)
        points = list(hn._sweep_configs(cfg, experiment))
        assert len(rows) == len(raw) == (len(points) * cfg.trials
                                         * len(cfg.methods))
        by_key = {(r["sweep_value"], int(r["trial"]), r["method"]):
                  r["min_kgr_bits"] for r in rows}
        rates = {(hn._fmt(row[1]), row[2], row[3]): row[4] for row in raw}
        for si, (sval, sub) in enumerate(points):
            draws = _draws(sub)
            for method in sub.methods:
                w, v = hn.DESIGN_METHODS[method](
                    draws[0], hn._design_seeds(sub, si, method), sub.trials)
                for trial, corr in enumerate(draws):
                    alone = min_kgr_bits(corr, w[trial], v[trial])
                    key = (hn._fmt(sval), trial, method)
                    assert rates[key] == alone, (experiment, key)
                    assert by_key[key] == format(alone, ".12g")


def test_designs_that_draw_nothing_build_no_generator(tmp_path, monkeypatch):
    # a generator per draw for Eve, and one per sweep point for each
    # stochastic design, which draws all of the point's trials from it
    calls = []
    real = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = _tiny_cfg(trials=4, methods=("optimized", "iid_ris", "no_ris",
                                       "random", "statistical"))
    hn.run_experiment("kgr_vs_n", cfg, str(tmp_path))
    points = len(cfg.sweep_ris_shapes)
    assert len(calls) == cfg.trials * points + 2 * points


@pytest.mark.parametrize("methods", [
    ("iid_ris", "optimized", "random", "iid_bs"),
    ("optimized", "random", "iid_bs", "iid_ris"),
])
def test_eve_design_and_probe_streams_are_distinct(tmp_path, monkeypatch,
                                                   methods):
    # SeedSequence pads a seed list with zeros to four words, so a design
    # seeded [seed, trial, 0, 0] draws the numbers of Eve's [seed, trial];
    # every stream a probing run builds must start differently
    seeds = []
    real = np.random.default_rng

    def recorded(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    cfg = _tiny_cfg(trials=3, methods=methods)
    hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    # Eve's draw of a trial is the same at every point; one probe per trial
    # for all the methods, and at most one design stream per (point, method)
    streams = {tuple(seed) for seed in seeds}
    assert len(streams) >= cfg.trials * 2
    first = {real(list(seed)).bit_generator.random_raw(4).tobytes()
             for seed in streams}
    assert len(first) == len(streams)


def test_a_method_rows_do_not_depend_on_the_other_methods(tmp_path):
    # each method's result and bdr rows are the same bytes whichever other
    # methods run beside it, and in whatever order
    def rows_by_method(experiment, methods, name):
        info = hn.run_experiment(experiment, _tiny_cfg(
            trials=3, methods=methods), str(tmp_path / experiment / name))
        out = collections.defaultdict(list)
        for row in hn.read_csv_rows(info["results"]):
            out[row["method"]].append(row)
        return out

    every = tuple(hn.DESIGN_METHODS)
    for experiment in ("kgr_vs_power", "bdr_vs_power"):
        together = rows_by_method(experiment, every, "all")
        assert rows_by_method(experiment, every[::-1], "reversed") == together
        for method in every:
            alone = rows_by_method(experiment, (method,), method)
            assert alone[method] == together[method], (experiment, method)


def test_a_probed_row_does_not_depend_on_the_other_powers(tmp_path):
    # a trial's probes share their draws across the sweep, and each point
    # keeps its own law: the 20 dBm rows of the deterministic designs are
    # the same bytes whether the sweep has other points or not (a
    # stochastic design's stream is keyed on the sweep index)
    def rows_at_20(powers):
        cfg = _tiny_cfg(trials=3, methods=("optimized", "no_ris"),
                        sweep_power_dbm=powers)
        info = hn.run_experiment("bdr_vs_power", cfg,
                                 str(tmp_path / str(len(powers))))
        return [row for row in hn.read_csv_rows(info["results"])
                if row["sweep_value"] == "20"]

    alone = rows_at_20((20.0,))
    assert len(alone) == 6
    assert rows_at_20((10.0, 20.0, 30.0)) == alone


def test_each_method_gives_the_same_rows_on_every_draw():
    # a design never reads Eve, so the point's draws all give the same rows
    cfg = _tiny_cfg(trials=4)
    for si, (_, sub) in enumerate(hn._sweep_configs(cfg, "kgr_vs_power")):
        draws = _draws(sub)
        assert len({corr.beta_ae.tobytes() for corr in draws}) == len(draws)
        for method, design in hn.DESIGN_METHODS.items():
            seeds = hn._design_seeds(sub, si, method)
            w0, v0 = design(draws[0], seeds, sub.trials)
            for corr in draws[1:]:
                w, v = design(corr, seeds, sub.trials)
                assert np.array_equal(w, w0) and np.array_equal(v, v0)


def test_methods_of_a_trial_share_their_probe_draws(tmp_path):
    # optimized, statistical and subgradient make one design, so probed
    # from a trial's shared draws their rows differ only in the method
    cfg = _tiny_cfg(trials=3, methods=("optimized", "statistical",
                                       "subgradient"))
    info = hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    by_method = collections.defaultdict(list)
    for row in hn.read_csv_rows(info["results"]):
        by_method[row.pop("method")].append(row)
    assert len(by_method["optimized"]) == 2 * 3
    assert by_method["statistical"] == by_method["optimized"]
    assert by_method["subgradient"] == by_method["optimized"]


@pytest.mark.parametrize("trials", [1, 3])
def test_probe_pool_keeps_the_rows(tmp_path, trials):
    # the probe tasks, one per trial and each probing every method's
    # designs at every point, give the sweep's rows in (point, trial,
    # method) order, whatever the trial count; the reference stacks the
    # designs method by method, and a design's record does not depend on
    # its place in the stack
    cfg = hn.build_config("desk", "sweep_power_dbm = 10, 30\n"
                          "methods = optimized, random, no_ris", trials=trials)
    info = hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    raw, timings = hn._run_sweep(cfg, "bdr_vs_power")

    points = hn._sweep_configs(cfg, "bdr_vs_power")
    draws = [_draws(sub) for _, sub in points]
    designs = [[hn.DESIGN_METHODS[method](
        draws[si][0], hn._design_seeds(sub, si, method), sub.trials)
        for method in sub.methods] for si, (_, sub) in enumerate(points)]
    records = {}
    for trial in range(cfg.trials):
        stacked = hn._probe_records(
            [point[trial] for _ in cfg.methods for point in draws],
            np.stack([point[mi][0][trial] for mi in range(len(cfg.methods))
                      for point in designs]),
            np.stack([point[mi][1][trial] for mi in range(len(cfg.methods))
                      for point in designs]),
            [cfg.seed, trial, 1], cfg.probe_rounds)
        for mi in range(len(cfg.methods)):
            for si in range(len(points)):
                records[trial, mi, si] = stacked[mi * len(points) + si]
    want = [("bdr_vs_power", sval, trial, method,
             *records[trial, mi, si], sub.seed)
            for si, (sval, sub) in enumerate(points)
            for trial in range(sub.trials)
            for mi, method in enumerate(sub.methods)]
    assert len(want) == 2 * trials * 3
    assert raw == want
    assert [row[:4] for row in timings] == [row[:4] for row in want]
    assert all(row[4] >= 0 for row in timings)
    rows = hn.read_csv_rows(info["results"])
    assert [list(r.values()) for r in rows] == [[hn._fmt(x) for x in row]
                                                for row in want]


def test_probes_run_on_the_calling_thread(tmp_path, monkeypatch):
    # one task per trial runs on the thread that called, and the run
    # starts no thread
    real = hn._probe_records
    threads = threading.active_count()
    seen = []

    def watched_probe(*args):
        seen.append((threading.current_thread() is threading.main_thread(),
                     threading.active_count()))
        return real(*args)

    monkeypatch.setattr(hn, "_probe_records", watched_probe)
    cfg = _tiny_cfg(trials=3, methods=("optimized", "random", "no_ris"))
    hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    assert seen == [(True, threads)] * 3
    assert threading.active_count() == threads


def test_a_failing_probe_reaches_the_caller_and_writes_nothing(
        tmp_path, monkeypatch):
    real = hn.simulate_probing
    calls = itertools.count(1)

    def third_fails(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("probe 3 failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(hn, "simulate_probing", third_fails)
    with pytest.raises(RuntimeError, match="probe 3 failed"):
        hn.run_experiment("bdr_vs_power", _tiny_cfg(trials=4), str(tmp_path))
    assert not (tmp_path / "bdr.csv").exists()


def test_each_timing_row_includes_its_share_of_the_probe(tmp_path,
                                                         monkeypatch):
    # one task per trial probes every method at all the sweep's points;
    # each task also sleeps 1 ms per (point, method) record, and each of
    # its rows must include that record's share
    real = hn._probe_records

    def slow_probe(*args):
        out = real(*args)
        time.sleep(1e-3 * len(out))
        return out

    monkeypatch.setattr(hn, "_probe_records", slow_probe)
    cfg = _tiny_cfg(trials=10, methods=("optimized", "random", "no_ris"))
    info = hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    assert info["rows"] == 2 * 10 * 3
    assert all(float(r["milliseconds"]) >= 1.0
               for r in hn.read_csv_rows(info["timings"]))


def test_each_timing_row_includes_its_share_of_the_rates(tmp_path,
                                                         monkeypatch):
    # one call per sweep point rates every method's designs on every
    # trial's draw; each call also sleeps 1 ms per design it rates, and
    # each row must include that design's share
    def slow_rates(corr, w, v):
        time.sleep(1e-3 * math.prod(w.shape[:-1]))
        return min_kgr_bits(corr, w, v)

    monkeypatch.setattr(hn, "min_kgr_bits", slow_rates)
    cfg = _tiny_cfg(trials=10, methods=("optimized", "random", "no_ris"))
    info = hn.run_experiment("kgr_vs_power", cfg, str(tmp_path))
    assert info["rows"] == 2 * 10 * 3
    assert all(float(r["milliseconds"]) >= 1.0
               for r in hn.read_csv_rows(info["timings"]))


# ---------------------------------------------------------------------------
# command line


def test_cli_runs_experiment(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(_TINY)
    rc = cli.main(["kgr_vs_power", "--preset", "desk",
                   "--config", str(cfg_path), "--trials", "1",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 4 rows" in out
    assert (tmp_path / "run" / "results.csv").exists()
    assert (tmp_path / "run" / "manifest.json").exists()


# runs the CLI with scipy's import blocked: any ``import scipy...`` raises
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from ris_skg import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("experiment, name", [("kgr_vs_power", "results.csv"),
                                              ("bdr_vs_power", "bdr.csv")])
def test_experiments_run_without_scipy(tmp_path, experiment, name):
    # scipy is a test dependency only: with it blocked, the CLI writes the
    # bytes that it writes here, where the tests have scipy loaded
    args = [experiment, "--preset", "desk",
            "--config", str(_CONFIG_DIR / "desk_quick.cfg")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    bare = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY,
         *args, "--out", str(tmp_path / "bare")],
        env=env, capture_output=True, text=True, timeout=120)
    assert bare.returncode == 0, bare.stderr
    assert cli.main([*args, "--out", str(tmp_path / "here")]) == 0
    assert ((tmp_path / "bare" / name).read_bytes()
            == (tmp_path / "here" / name).read_bytes())


@pytest.mark.parametrize("line", [
    "bs_corr = 1.5",
    "power_alice_dbm = nan",
    "eve_radius_m = nan",
    "noise_dbm = inf",
    "wavelength_m = inf",
    "bob_pos = nan, 0, 0",
    "sweep_power_dbm = nan",
    "methods =",
    "seed = -1",
    "power_alice_dbm = 1e6",
    "noise_dbm = 1e6",
    "ref_gain_db = 1e6",
    "sweep_power_dbm = 10, 1e6",
    "sweep_power_dbm = 10, 10",
    "sweep_ris_shapes = 5x4, 4x5",
    "sweep_bs_shapes = 5x2, 2x5",
    "sweep_eve_radius_m = 1, 1.0",
    "methods = optimized, optimized",
    "bob_pos = 5, 0, 20",
    "ris_pos = 3, 100, 0",
    "ris_pos = 5, 0, 20",
    "trials = 2\ntrials = 3",
    "power_alice_dbm = 20\npower_alice_w = 0.5",
    "power_alice_w = 0.5\npower_alice_dbm = 20",
    "eve_radius_m = 1e300",
    "alice_pos = 1e200, 0, 20",
    "pl_exp_ris_bob = -1000",
    "pl_exp_alice_eve = -400",
    "ref_gain = 1e300",
    "noise_power_w = 1e-320",
    "ris_spacing_wavelengths = 1e300",
    "wavelength_m = 1e300",
    "wavelength_m = 1e-160",
    "wavelength_m = 1e-200",
    "wavelength_m = 1e-320",
    "wavelength_m = 1e-307\nris_spacing_wavelengths = 1e200",
])
def test_cli_rejects_bad_config(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    rc = cli.main(["kgr_vs_power", "--preset", "desk", "--trials", "1",
                   "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run" / "results.csv").exists()


def test_bdr_rejects_an_overflowing_fixed_link(tmp_path, capsys):
    # probing reads no key rate, so the fixed links' gains are checked where
    # they are computed
    bad = tmp_path / "bad.cfg"
    bad.write_text("pl_exp_ris_bob = -1000\n")
    rc = cli.main(["bdr_vs_power", "--preset", "desk", "--trials", "1",
                   "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "path gain overflows" in capsys.readouterr().err
    assert not (tmp_path / "run" / "bdr.csv").exists()


@pytest.mark.parametrize("line", ["ris_spacing_wavelengths = 1e300",
                                  "wavelength_m = 1e300"])
def test_bdr_rejects_an_overflowing_surface_geometry(tmp_path, capsys, line):
    # the surface's element distances overflow a float: the config is
    # rejected when it is built, before the surface correlation is computed
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    rc = cli.main(["bdr_vs_power", "--preset", "desk", "--trials", "1",
                   "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "surface element distances overflow" in capsys.readouterr().err
    assert not (tmp_path / "run" / "bdr.csv").exists()


@pytest.mark.parametrize("line", [
    "wavelength_m = 1e-160",
    "wavelength_m = 1e-200",
    "wavelength_m = 1e-320",
    "wavelength_m = 1e-307\nris_spacing_wavelengths = 1e200",
])
def test_a_wavelength_too_small_for_the_arithmetic_exits_2(tmp_path, capsys,
                                                           line):
    # the element spacing in metres squares to a subnormal or to 0, which
    # makes R_ris wrong or all ones, or Eve's phase 2 pi d / lambda
    # overflows: rejected when the config is built, whichever experiment
    # runs and whether or not a RuntimeWarning is an error
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    for experiment in ("kgr_vs_power", "bdr_vs_power"):
        for action in ("default", "error"):
            out = tmp_path / f"{experiment}_{action}"
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                rc = cli.main([experiment, "--preset", "desk", "--trials", "1",
                               "--config", str(bad), "--out", str(out)])
            assert rc == 2, (experiment, action)
            assert "too small" in capsys.readouterr().err
            assert not out.exists()


def test_bdr_rejects_an_overflowing_probe_power(tmp_path, capsys):
    # 2000 dBm is 1e197 W: the designs and gains are finite, the probe's
    # observations are not; with RuntimeWarning as an error it still exits 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("sweep_power_dbm = 10, 2000\n")
    args = ["bdr_vs_power", "--preset", "desk", "--trials", "1",
            "--config", str(bad)]
    assert cli.main([*args, "--out", str(tmp_path / "here")]) == 2
    assert "probe observations are not finite" in capsys.readouterr().err
    assert not (tmp_path / "here" / "bdr.csv").exists()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    strict = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ris_skg.cli",
         *args, "--out", str(tmp_path / "strict")],
        env=env, capture_output=True, text=True, timeout=120)
    assert strict.returncode == 2, strict.stderr
    assert "probe observations are not finite" in strict.stderr
    assert not (tmp_path / "strict" / "bdr.csv").exists()


def test_cli_rejects_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"trials = 2\n\xff\n")
    rc = cli.main(["kgr_vs_power", "--preset", "desk", "--config", str(bad),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_negative_seed_flag(tmp_path, capsys):
    rc = cli.main(["kgr_vs_power", "--preset", "desk", "--trials", "1",
                   "--seed", "-1", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_missing_config(tmp_path, capsys):
    rc = cli.main(["kgr_vs_power", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "run")])
    assert rc == 2


def test_cli_and_sweeps_read_the_experiment_table():
    # one subcommand per experiment, with the table's help, and each sweeps
    # a list field of the config
    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: spec.help for name, spec in hn.EXPERIMENTS.items()}
    assert all(spec.sweeps in cm._LISTS for spec in hn.EXPERIMENTS.values())


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["warp_drive"])
