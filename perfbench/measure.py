"""Timed repetitions of one experiment, the checks of their output, and the
raw numbers ``run.py`` reports."""

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import replace

import numpy as np
import scipy

from ris_skg import harness

import checks
import tracer as tr


def run_once(experiment, cfg, out_dir, tracer=None):
    """Wall seconds of one ``run_experiment`` call and the sha256 of the
    result CSV it wrote (hashed outside the timed region)."""
    t0 = time.perf_counter()
    if tracer is None:
        info = harness.run_experiment(experiment, cfg, out_dir)
    else:
        with tracer.span(tr.ROOT):
            info = harness.run_experiment(experiment, cfg, out_dir)
    wall = time.perf_counter() - t0
    with open(info["results"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return wall, digest, info


def _repeat(experiment, cfg, seconds, out_dir, trace):
    """Repeat the experiment for ``seconds`` (at least twice, so that the
    digests of two runs can be compared); with ``trace``, odd repetitions
    run under the tracer."""
    warm = replace(cfg, trials=1, probe_rounds=min(cfg.probe_rounds, 1000))
    harness.run_experiment(experiment, warm, out_dir)
    tracer = tr.Tracer() if trace else None
    walls, traced_walls, digests, missing = [], [], set(), []
    deadline = time.perf_counter() + seconds
    while len(walls) + len(traced_walls) < 2 or time.perf_counter() < deadline:
        if trace and len(walls) > len(traced_walls):
            with tr.traced(tracer) as missing:
                wall, digest, info = run_once(experiment, cfg, out_dir, tracer)
            traced_walls.append(wall)
        else:
            wall, digest, info = run_once(experiment, cfg, out_dir)
            walls.append(wall)
        digests.add(digest)
    return walls, traced_walls, digests, info, tracer, missing


def measure(workload, experiment, cfg, seconds, out_dir, trace,
            estimate=False):
    attempted = len(checks.expected_keys(experiment, cfg))
    report = {"workload": workload, "experiment": experiment,
              "draws": len(checks.sweep_configs(experiment, cfg)) * cfg.trials,
              "attempted": attempted, "failed": attempted, "correct": False,
              "reasons": [], "env": environment()}
    try:
        walls, traced_walls, digests, info, tracer, missing = _repeat(
            experiment, cfg, seconds, out_dir, trace)
    except Exception as exc:  # every row of a run that raises has failed
        traceback.print_exc()
        report["reasons"].append(f"run raised {type(exc).__name__}: {exc}")
        return report
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["walls"] = walls

    found = checks.check_results(experiment, cfg, info["results"])
    report["failed"] = found.failed
    report["reasons"] = found.reasons[:20]
    if len(digests) > 1:
        report["failed"] = attempted
        report["reasons"].append(
            f"{len(digests)} different result digests for one config and seed")
    report["correct"] = report["failed"] == 0
    report["kgr_bits_mean"] = (
        found.kgr_bits_mean if np.isfinite(found.kgr_bits_mean)
        else checks.optimized_rate_mean(experiment, cfg))
    report["bdr_mean"] = (found.bdr_mean if np.isfinite(found.bdr_mean)
                          else 0.0)
    if estimate:
        report["estimate"] = paper_estimate(
            experiment, cfg, info["timings"], statistics.median(walls))
    if trace:
        overhead = (statistics.median(traced_walls)
                    / statistics.median(walls) - 1.0)
        layers = tr.layer_metrics(
            tracer.spans, len(traced_walls), overhead, report["bdr_mean"])
        report["layers"] = {name: {"value": value,
                                   "unit": tr.LAYER_UNITS[name]}
                            for name, value in layers.items()}
        report["layer_table"] = _share_table(tracer.spans, traced_walls)
        report["missing_layers"] = missing
    return report


def _share_table(spans, traced_walls):
    """Inclusive and self share of traced wall time per layer, largest
    self share first."""
    total = sum(traced_walls)
    rows = [(name, e["calls"], e["s"] / total, e["self_s"] / total)
            for name, e in tr.layer_table(spans).items()]
    return sorted(rows, key=lambda r: -r[3])


# ---------------------------------------------------------------------------
# environment stamp


def _blas_runtime():
    """(config string, thread count) of each OpenBLAS loaded in this
    process, read through its own C entry points."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in ln.lower() and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("", ""), ("scipy_", ""), ("scipy_", "64_")):
            try:
                threads = getattr(
                    lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            entry.update(config=config().decode(), threads=threads())
            break
        out.append(entry)
    return out


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_runtime = _blas_runtime()
    except OSError as exc:
        blas_runtime = [f"unavailable: {exc}"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_runtime,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# paper-preset estimate


def paper_estimate(experiment, cfg, timings_path, wall):
    """Hours the paper suite would take, extrapolated from per-draw costs
    measured at paper array sizes (``cfg`` must be on the paper preset).
    Informational; not a gated metric.

    ``timings.csv`` gives each design's milliseconds per draw; they are
    scaled by wall / (sum of timings) so that per-draw overhead outside
    the designs is charged too.
    """
    paper = harness.PRESETS["paper"]
    if experiment not in ("kgr_vs_n", "bdr_vs_power"):
        return None
    rows = harness.read_csv_rows(timings_path)
    total_ms = sum(float(r["milliseconds"]) for r in rows)
    scale = wall / (total_ms / 1e3) if total_ms > 0 else 1.0
    n_trials = paper["trials"]
    if experiment == "bdr_vs_power":
        per_draw = wall / (len(cfg.sweep_power_dbm) * cfg.trials)
        hours = len(paper["sweep_power_dbm"]) * n_trials * per_draw / 3600
        return (f"paper-preset estimate (informational, not gated): "
                f"bdr_vs_power {hours:.2f} h "
                f"({per_draw:.3f} s per draw over {len(cfg.methods)} probed "
                f"designs x {len(paper['sweep_power_dbm'])} powers x "
                f"{n_trials} trials)")
    # kgr_vs_n: cost per draw for each surface size, all methods, and for
    # the optimized design alone
    draw_s, opt_s = {}, {}
    for r in rows:
        n = int(float(r["sweep_value"]))
        ms = float(r["milliseconds"]) * scale / 1e3 / cfg.trials
        draw_s[n] = draw_s.get(n, 0.0) + ms
        if r["method"] == "optimized":
            opt_s[n] = opt_s.get(n, 0.0) + ms
    base_n = int(np.prod(cfg.ris_shape))
    conv_n = max(draw_s)
    if base_n not in draw_s or conv_n not in opt_s:
        return None
    c = draw_s[base_n]
    parts = {
        "convergence": n_trials * opt_s[conv_n],
        "kgr_vs_power": len(paper["sweep_power_dbm"]) * n_trials * c,
        "kgr_vs_n": n_trials * sum(draw_s.values()),
        "kgr_vs_m": len(paper["sweep_bs_shapes"]) * n_trials * c,
        "kgr_vs_eve_radius": len(paper["sweep_eve_radius_m"]) * n_trials * c,
    }
    detail = ", ".join(f"{k} {v / 3600:.2f} h" for k, v in parts.items())
    return (f"paper-preset estimate (informational, not gated): design "
            f"experiments {sum(parts.values()) / 3600:.2f} h ({detail}; "
            f"convergence at N={conv_n}; kgr_vs_m charged at the "
            f"M={int(np.prod(cfg.bs_shape))} cost)")
