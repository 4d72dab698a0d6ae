"""Quantization, randomness checks, experiment artifacts, and the CLI."""

import json
import os
import pathlib

import numpy as np
import pytest

from ris_skg import cli
from ris_skg import harness as hn
from ris_skg import problem_lift as pl
from ris_skg.channel_model import ConfigError

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
    cfg = hn.build_config("desk", _TINY)
    if over:
        from dataclasses import replace
        cfg = replace(cfg, **over).validate()
    return cfg


# ---------------------------------------------------------------------------
# quantization and randomness


def test_quantizer_median_split():
    assert np.array_equal(hn.quantize_median_bits([1.0, 2.0, 3.0, 4.0]),
                          [0, 0, 1, 1])
    bits = hn.quantize_median_bits([5.0, -1.0, 0.0, 9.0, 2.0])
    assert bits.dtype == np.int8
    assert bits.sum() == 2  # two values above the median


def test_quantizer_warns_on_constant_input():
    with pytest.warns(UserWarning):
        bits = hn.quantize_median_bits([2.0, 2.0, 2.0])
    assert np.array_equal(bits, [0, 0, 0])


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
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(cfg_dir.glob("*.cfg"))
    assert paths, "no bundled config files found"
    for path in paths:
        for preset in ("paper", "desk"):
            cfg = hn.build_config(preset, path.read_text(encoding="utf-8"))
            assert cfg.validate() is cfg


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
])
def test_cli_rejects_bad_config(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    rc = cli.main(["kgr_vs_power", "--preset", "desk", "--trials", "1",
                   "--config", str(bad), "--out", str(tmp_path / "run")])
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


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["warp_drive"])
