"""Tests of the benchmark itself: tracer hygiene, byte-identical output
under tracing, the row checks, and the seed path.

    python3 -m pytest perfbench/tests -q
"""

import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import measure
import tracer as tr
import worker
from ris_skg import cli, harness
from ris_skg.bsum import statistical_design
from ris_skg.channel_model import build_correlations
from ris_skg.kgr_core import min_kgr_bits

# a scenario small enough that every experiment finishes in a second
_TINY = """
bs_shape = 2x2
ris_shape = 3x2
eve_count = 2
probe_rounds = 400
inner_max_iters = 200
sweep_power_dbm = 10, 20
sweep_ris_shapes = 2x2, 3x2
"""

_BENCH_WORKLOADS = dict(worker.WORKLOADS)
_TINY_WORKLOADS = {
    "tiny_design": ("kgr_vs_power", "desk",
                    _TINY + "methods = optimized, statistical, iid_bs, "
                            "subgradient", 2),
    "tiny_sizes": ("kgr_vs_n", "desk", _TINY, 2),
    "tiny_probing": ("bdr_vs_power", "desk", _TINY, 1),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(worker, "WORKLOADS", _TINY_WORKLOADS)


def _run(name, seed, out_dir, tracer=None):
    experiment, cfg = worker.workload_config(name, seed)
    wall, digest, info = measure.run_once(experiment, cfg, str(out_dir),
                                          tracer)
    return experiment, cfg, digest, info


def _wrapped_now():
    names = [(module, attr, getattr(module, attr))
             for module, attr, _ in tr.WRAPPED]
    return names, dict(harness.DESIGN_METHODS)


def test_tracer_restores_every_wrapped_name():
    before, registry = _wrapped_now()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.traced(tracer) as missing:
            assert missing == []
            for module, attr, fn in before:
                assert getattr(module, attr) is not fn
            for method, fn in registry.items():
                assert harness.DESIGN_METHODS[method] is not fn
            raise RuntimeError("leave the block early")
    for module, attr, fn in before:
        assert getattr(module, attr) is fn
    assert harness.DESIGN_METHODS == registry
    for method, fn in registry.items():
        assert harness.DESIGN_METHODS[method] is fn


@pytest.mark.parametrize("trace, moved", [([2.0, 2.0], False),
                                          ([2.0, 2.0 + 1e-15], False),
                                          ([2.0, 2.0, 2.5], True)])
def test_a_move_is_a_gain_beyond_rounding(trace, moved):
    res = SimpleNamespace(trace=np.array(trace), iterations=len(trace) - 1,
                          inner_iterations=2, rejected_steps=0)
    assert tr._bsum_counts((), {}, (None, None, res))["moved"] is moved


@pytest.mark.parametrize("name", ["tiny_design", "tiny_probing"])
def test_traced_run_writes_identical_bytes(tmp_path, name):
    experiment, cfg, plain, _ = _run(name, 3, tmp_path / "plain")
    tracer = tr.Tracer()
    with tr.traced(tracer):
        *_, traced, _ = _run(name, 3, tmp_path / "traced", tracer)
    assert traced == plain
    layers = tr.layer_metrics(tracer.spans, 1, 0.0, 0.0)
    assert set(layers) == set(tr.LAYER_UNITS)
    draws = len(checks.sweep_configs(experiment, cfg)) * cfg.trials
    assert layers["channel_model.build_correlations.calls"] == draws
    assert 0.0 <= layers["bsum.moved_frac"] <= 1.0
    assert layers["harness.trial_ms_p50"] > 0


def test_changing_the_seed_changes_the_digest(tmp_path):
    *_, first, _ = _run("tiny_design", 1, tmp_path / "a")
    *_, again, _ = _run("tiny_design", 1, tmp_path / "b")
    *_, other, _ = _run("tiny_design", 2, tmp_path / "c")
    assert first == again
    assert other != first


@pytest.mark.parametrize("name", sorted(_TINY_WORKLOADS))
def test_benchmark_output_matches_the_cli(tmp_path, name):
    experiment, _, digest, info = _run(name, 5, tmp_path / "bench")
    _, preset, text, trials = _TINY_WORKLOADS[name]
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "cli"
    assert cli.main([experiment, "--preset", preset, "--config",
                     str(cfg_file), "--trials", str(trials), "--seed", "5",
                     "--out", str(out)]) == 0
    results = pathlib.Path(info["results"]).name
    assert (out / results).read_bytes() == pathlib.Path(
        info["results"]).read_bytes()


def _rewrite(path, edit):
    """Apply ``edit`` to the list of data lines of a harness CSV."""
    lines = pathlib.Path(path).read_text().splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")] + [
        [ln for ln in lines if not ln.startswith("#")][0]]
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    pathlib.Path(path).write_text("".join(head + edit(body)))


def _set_field(line, index, value):
    parts = line.rstrip("\n").split(",")
    parts[index] = value
    return ",".join(parts) + "\n"


@pytest.mark.parametrize("name", ["tiny_design", "tiny_sizes",
                                  "tiny_probing"])
def test_clean_output_passes_the_checks(tmp_path, name):
    experiment, cfg, _, info = _run(name, 7, tmp_path)
    report = checks.check_results(experiment, cfg, info["results"])
    assert report.attempted == len(checks.expected_keys(experiment, cfg))
    assert (report.failed, report.reasons) == (0, [])
    mean = (report.bdr_mean if experiment == "bdr_vs_power"
            else report.kgr_bits_mean)
    assert np.isfinite(mean)


def test_checks_flag_nan_missing_and_low_rows(tmp_path):
    experiment, cfg, _, info = _run("tiny_design", 7, tmp_path)
    path = info["results"]
    rate_col = harness.RESULT_COLUMNS.index("min_kgr_bits")
    # first row: NaN rate; second row: dropped
    _rewrite(path, lambda body: [_set_field(body[0], rate_col, "nan")]
             + body[2:])
    report = checks.check_results(experiment, cfg, path)
    assert report.failed == 2
    assert any("nan" in r for r in report.reasons)
    assert any(r.startswith("missing row") for r in report.reasons)

    experiment, cfg, _, info = _run("tiny_design", 7, tmp_path)
    path = info["results"]
    # the first row is the optimized design of trial 0 at the first sweep
    # point; put it a hair below the statistical design's rate
    _, sub = checks.sweep_configs(experiment, cfg)[0]
    corr = build_correlations(sub, np.random.default_rng([sub.seed, 0]))
    stat = min_kgr_bits(corr, *statistical_design(corr))
    low = format(stat * (1 - 1e-9), ".12g")
    _rewrite(path, lambda body: [_set_field(body[0], rate_col, low)]
             + body[1:])
    report = checks.check_results(experiment, cfg, path)
    assert report.failed == 1
    assert "below statistical" in report.reasons[0]


def test_checks_flag_out_of_range_bdr_and_bit_count(tmp_path):
    experiment, cfg, _, info = _run("tiny_probing", 7, tmp_path)
    path = info["results"]
    bdr_col = harness.BDR_COLUMNS.index("bdr")
    bits_col = harness.BDR_COLUMNS.index("n_bits")
    _rewrite(path, lambda body: [_set_field(body[0], bdr_col, "1.5"),
                                 _set_field(body[1], bits_col, "399")]
             + body[2:])
    report = checks.check_results(experiment, cfg, path)
    assert report.failed == 2
    assert any("bdr 1.5 outside [0, 1]" in r for r in report.reasons)
    assert any("n_bits 399" in r for r in report.reasons)


def test_benchmark_json_names_every_reported_metric():
    import json

    import run
    root = pathlib.Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tr.LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(_BENCH_WORKLOADS)
