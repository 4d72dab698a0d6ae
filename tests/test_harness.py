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

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_CONFIG_DIR = _ROOT / "configs"

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


@pytest.mark.parametrize("size", [1, 2, 3, 10, 11, 1000, 1001, 10000,
                                  10001])
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
    # the frequency test counts ones and the quantizer compares the
    # sequence's extremes; the p-value and the warning are those of the sum
    # of 2b - 1 and of max == min
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
def test_bundled_config_header_names_known_experiments_and_presets(path):
    # each file's header shows the commands it is for; ``<experiment>``
    # stands for every experiment (test_bundled_config_files_parse checks
    # that each file parses on both presets, and
    # test_every_bundled_config_runs_every_experiment runs it)
    named = re.findall(r"ris-skg (\S+) --preset (\S+) --config configs/"
                       + re.escape(path.name) + r"\b",
                       path.read_text(encoding="utf-8"))
    assert named, f"{path.name} names no command in its header"
    for experiment, preset in named:
        assert experiment == "<experiment>" or experiment in hn.EXPERIMENTS
        assert preset in hn.PRESETS


@pytest.mark.parametrize("experiment", list(hn.EXPERIMENTS))
@pytest.mark.parametrize("path", sorted(_CONFIG_DIR.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_every_bundled_config_runs_every_experiment(path, experiment,
                                                    tmp_path):
    rc = cli.main([experiment, "--preset", "desk", "--config", str(path),
                   "--trials", "1", "--out", str(tmp_path / experiment)])
    assert rc == 0
    with open(tmp_path / experiment / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["experiment"] == experiment


def test_readme_python_examples_run_in_order(tmp_path, monkeypatch):
    # the README's python blocks, in order and as one script, from an
    # empty working directory
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "no python blocks in README.md"
    monkeypatch.chdir(tmp_path)
    exec(compile("".join(blocks), "README.md", "exec"),
         {"__name__": "__main__"})


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
    # two runs of every experiment, stochastic designs and probes included,
    # write the same result and manifest bytes
    cfg = _tiny_cfg(methods=tuple(hn.DESIGN_METHODS))
    for experiment in hn.EXPERIMENTS:
        outs = [hn.run_experiment(experiment, cfg, str(tmp_path / run))
                for run in (experiment + "_a", experiment + "_b")]
        for key in ("results", "manifest"):
            a, b = (pathlib.Path(out[key]).read_bytes() for out in outs)
            assert a == b, (experiment, key)


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
    with open(info["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["experiment"] == "bdr_vs_power"
    assert sorted(manifest["files"]) == ["bdr.csv", "timings.csv"]


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
    # R_bs and R_ris are fixed by a sweep point's geometry: its trials, and
    # the points that differ only in power, share one eigendecomposition
    # of each, so kgr_vs_n decomposes once per surface shape and
    # kgr_vs_power once in all
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = _tiny_cfg(trials=10, sweep_power_dbm=(10.0, 20.0, 30.0))
    assert len(cfg.sweep_ris_shapes) == 2
    for experiment, geometries in (("kgr_vs_n", 2), ("kgr_vs_power", 1)):
        cm._fixed_statistics.cache_clear()
        calls.clear()
        hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        assert len(calls) == 2 * geometries, experiment


def test_a_long_probing_sweep_decomposes_each_geometry_once(tmp_path,
                                                           monkeypatch):
    # the statistics cache is keyed on the geometry, not the power, so a
    # power sweep longer than the cache (64 entries) still decomposes its
    # one geometry's matrices once, on a probing sweep as on a key-rate one
    calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    powers = tuple(10.0 + 0.25 * i for i in range(70))
    cfg = _tiny_cfg(trials=3, probe_rounds=50, methods=("no_ris",),
                    sweep_power_dbm=powers)
    for experiment in ("bdr_vs_power", "kgr_vs_power"):
        cm._fixed_statistics.cache_clear()
        calls.clear()
        hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        assert len(calls) == 2, experiment


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


def test_stacked_rates_equal_each_design_rated_alone():
    # at the paper preset (M = 15, where a stack's layout changed a
    # combiner gain by an ulp), every rate of a point's one ``_rates``
    # call has the bits of its design rated alone on its draw, so a
    # method's rates are the same bits whichever methods run beside it
    cfg = hn.build_config("paper", f"methods = {', '.join(hn.DESIGN_METHODS)}",
                          trials=20)
    for si, (sval, sub) in enumerate(hn._sweep_configs(cfg, "kgr_vs_n")):
        draws = [hn._draw(sub, trial) for trial in range(sub.trials)]
        designs = hn._designs(sub, si)
        rates = hn._rates(sval, draws, designs)[..., 0]
        for m, (w, v, _) in enumerate(designs):
            alone = [min_kgr_bits(draw, w[t], v[t])
                     for t, draw in enumerate(draws)]
            assert rates[:, m].tobytes() == np.array(alone).tobytes(), m
            rest = designs[:m] + designs[m + 1:]
            for beside in ([], rest[:1], rest[::-1]):
                got = hn._rates(sval, draws, [designs[m], *beside])
                assert got[:, 0, 0].tobytes() == rates[:, m].tobytes(), m


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


def test_every_design_receives_no_eavesdropper(tmp_path, monkeypatch):
    # a design may read no eavesdropper, so it is given none: every call
    # of every method, in every experiment, gets a set with K = 0, once
    # per sweep point
    seen = []
    for method, design in hn.DESIGN_METHODS.items():
        def recorded(corr, seeds, trials, _design=design):
            seen.append(corr.n_eve)
            return _design(corr, seeds, trials)

        monkeypatch.setitem(hn.DESIGN_METHODS, method, recorded)
    cfg = _tiny_cfg(methods=tuple(hn.DESIGN_METHODS))
    for experiment in hn.EXPERIMENTS:
        seen.clear()
        hn.run_experiment(experiment, cfg, str(tmp_path / experiment))
        points = len(hn._sweep_configs(cfg, experiment))
        assert seen == [0] * points * len(cfg.methods), experiment


def test_the_probe_receives_no_eavesdropper(tmp_path, monkeypatch):
    # the probe is given the points' statistics, which hold no
    # eavesdropper: every set it receives has K = 0, and no keyword
    # argument says anything else
    seen = []
    real = hn.simulate_probing

    def recorded(corrs, *args, **kwargs):
        assert not kwargs
        seen.extend(corr.n_eve for corr in corrs)
        return real(corrs, *args)

    monkeypatch.setattr(hn, "simulate_probing", recorded)
    cfg = _tiny_cfg(trials=2, methods=tuple(hn.DESIGN_METHODS))
    hn.run_experiment("bdr_vs_power", cfg, str(tmp_path))
    points = len(hn._sweep_configs(cfg, "bdr_vs_power"))
    assert seen == [0] * cfg.trials * points * len(cfg.methods)


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
def test_probe_rows_equal_one_stacked_probe_per_trial(tmp_path, trials):
    # one stacked probe per trial, of every method's designs at every
    # point, gives the sweep's rows in (point, trial, method) order,
    # whatever the trial count; the reference stacks the designs method by
    # method, and a design's record does not depend on its place in the
    # stack
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


# A bad config line and a fragment of the error it exits 2 with.  Each
# line runs through both experiments below unless it is key-rate only.
_BAD_CONFIG = [
    ("bs_corr = 1.5", "bs_corr must lie in [0, 1)"),
    ("power_alice_dbm = nan", "power_alice_w must be finite"),
    ("eve_radius_m = nan", "eve_radius_m must be finite"),
    ("noise_dbm = inf", "noise_power_w must be finite"),
    ("wavelength_m = inf", "wavelength_m must be finite"),
    ("bob_pos = nan, 0, 0", "bob_pos must be finite"),
    ("sweep_power_dbm = nan", "sweep_power_dbm must be finite"),
    ("methods =", "methods must name at least one design"),
    ("seed = -1", "seed must be non-negative"),
    ("power_alice_dbm = 1e6", "power_alice_w must be finite"),
    ("noise_dbm = 1e6", "noise_power_w must be finite"),
    ("ref_gain_db = 1e6", "ref_gain must be finite"),
    ("sweep_power_dbm = 10, 1e6",
     "sweep_power_dbm entry 1000000: power_alice_w must be finite"),
    ("sweep_ris_shapes = 5x4, 0x3",
     "sweep_ris_shapes entry 0x3: array shapes must have positive"),
    ("sweep_bs_shapes = 5x1, 0x2",
     "sweep_bs_shapes entry 0x2: array shapes must have positive"),
    ("sweep_eve_radius_m = 1, -2",
     "sweep_eve_radius_m entry -2: eve_radius_m must be non-negative"),
    ("sweep_power_dbm = 10, 10", "sweep_power_dbm repeats a value"),
    ("sweep_ris_shapes = 5x4, 4x5", "sweep_ris_shapes repeats a value"),
    ("sweep_bs_shapes = 5x2, 2x5", "sweep_bs_shapes repeats a value"),
    ("sweep_eve_radius_m = 1, 1.0", "sweep_eve_radius_m repeats a value"),
    ("methods = optimized, optimized", "methods repeats a value"),
    ("bob_pos = 5, 0, 20", "alice_pos and bob_pos must be different"),
    ("ris_pos = 3, 100, 0", "bob_pos and ris_pos must be different"),
    ("ris_pos = 5, 0, 20", "alice_pos and ris_pos must be different"),
    ("trials = 2\ntrials = 3", "line 2: trials is already set"),
    ("power_alice_dbm = 20\npower_alice_w = 0.5",
     "line 2: power_alice_w is already set"),
    ("power_alice_w = 0.5\npower_alice_dbm = 20",
     "line 2: power_alice_w is already set"),
    ("amplitude_pathloss = false", "unknown key 'amplitude_pathloss'"),
    ("eve_radius_m = 1e300", "link lengths overflow"),
    ("alice_pos = 1e200, 0, 20", "link lengths overflow"),
    ("pl_exp_ris_bob = -1000", "fixed link's path gain overflows"),
    ("pl_exp_alice_eve = -400", "eavesdropper's path gain overflows"),
    ("pl_exp_ris_eve = -400", "eavesdropper's path gain overflows"),
    ("ref_gain = 1e300", "key rates at sweep value 10 are not finite"),
    ("noise_power_w = 1e-320", "key rates at sweep value 10 are not finite"),
    # 2000 dBm is 1e197 W: the designs and gains are finite, the key rates
    # and the probe's observations are not
    ("sweep_power_dbm = 10, 2000", "not finite: a gain or power overflows"),
    ("ris_spacing_wavelengths = 1e300", "surface element distances overflow"),
    ("wavelength_m = 1e300", "surface element distances overflow"),
    # the element spacing in metres squares to a subnormal or to 0, which
    # would make R_ris wrong or all ones, or Eve's phase 2 pi d / lambda
    # overflows
    ("wavelength_m = 1e-160", "are too small"),
    ("wavelength_m = 1e-200", "are too small"),
    ("wavelength_m = 1e-320", "are too small"),
    ("wavelength_m = 1e-307\nris_spacing_wavelengths = 1e200",
     "are too small"),
]

# The experiments a line runs through, where not both power sweeps
# (kgr_vs_power and bdr_vs_power).
_ONLY_ON = {
    # Probing reads no key rate, and on these two lines its observations
    # stay finite, so bdr_vs_power rightly writes its rows; only the rate
    # formula leaves the float range: gains near 1e147, whose products in
    # the rate overflow, and a subnormal noise power, which overflows the
    # rate's signal-to-noise ratios.
    "ref_gain = 1e300": ("kgr_vs_power",),
    "noise_power_w = 1e-320": ("kgr_vs_power",),
    # a sweep entry makes a config only where its field is swept
    "sweep_ris_shapes = 5x4, 0x3": ("kgr_vs_n",),
    "sweep_bs_shapes = 5x1, 0x2": ("kgr_vs_m",),
    "sweep_eve_radius_m = 1, -2": ("kgr_vs_eve_radius",),
}


def _exits_2_on_every_experiment(tmp_path, capsys, line):
    # exit 2 with the line's error and no output file, on each experiment,
    # whether a RuntimeWarning is a warning or an error
    fragment = dict(_BAD_CONFIG)[line]
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    experiments = _ONLY_ON.get(line, ("kgr_vs_power", "bdr_vs_power"))
    for experiment in experiments:
        for action in ("default", "error"):
            out = tmp_path / f"{experiment}_{action}"
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                rc = cli.main([experiment, "--preset", "desk", "--trials", "1",
                               "--config", str(bad), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2, (experiment, action)
            assert "config error: " in err and fragment in err, (
                experiment, action, err)
            assert not any(out.glob("*")), (experiment, action)


@pytest.mark.parametrize("line", [line for line, _ in _BAD_CONFIG],
                         ids=[line for line, _ in _BAD_CONFIG])
def test_cli_rejects_bad_config(tmp_path, capsys, line):
    _exits_2_on_every_experiment(tmp_path, capsys, line)


# Seven lines of _BAD_CONFIG, also run under the names of the tests they
# first had
def test_bdr_rejects_an_overflowing_fixed_link(tmp_path, capsys):
    _exits_2_on_every_experiment(tmp_path, capsys, "pl_exp_ris_bob = -1000")


@pytest.mark.parametrize("line", ["ris_spacing_wavelengths = 1e300",
                                  "wavelength_m = 1e300"])
def test_bdr_rejects_an_overflowing_surface_geometry(tmp_path, capsys, line):
    _exits_2_on_every_experiment(tmp_path, capsys, line)


@pytest.mark.parametrize("line", [
    "wavelength_m = 1e-160",
    "wavelength_m = 1e-200",
    "wavelength_m = 1e-320",
    "wavelength_m = 1e-307\nris_spacing_wavelengths = 1e200",
])
def test_a_wavelength_too_small_for_the_arithmetic_exits_2(tmp_path, capsys,
                                                           line):
    _exits_2_on_every_experiment(tmp_path, capsys, line)


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
