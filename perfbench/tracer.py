"""Span tracer around the package's layer functions, wrapped where looked up.

Nothing under ``src/`` is edited: each wrapped name is replaced on its
module (or in the ``DESIGN_METHODS`` registry) for the duration of a
``traced()`` block and put back on exit, even if the block raises.
Spans (name, start, end, parent, counts) stay in memory until the caller
aggregates them.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from ris_skg import baselines, bsum, harness, problem_lift

MOVE_RTOL = 1e-12

# (module, attribute looked up by the caller, layer name reported)
WRAPPED = (
    (harness, "build_correlations", "channel_model.build_correlations"),
    (harness, "simulate_probing", "channel_model.simulate_probing"),
    (harness, "min_kgr_bits", "kgr_core.min_kgr_bits"),
    (harness, "quantize_median_bits", "harness.quantize_median_bits"),
    (harness, "bit_disagreement", "harness.bit_disagreement"),
    (harness, "frequency_test", "harness.frequency_test"),
    (harness, "runs_test", "harness.runs_test"),
    (baselines, "optimize_design", "bsum.optimize_design"),
    (problem_lift, "build_lifted", "problem_lift.build_lifted"),
    (problem_lift, "objective_terms", "problem_lift.objective_terms"),
    (bsum, "curvature_v", "bsum.curvature_v"),
    (bsum, "curvature_w", "bsum.curvature_w"),
    (bsum, "mirror_prox_solve", "mirror_prox.mirror_prox_solve"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None


class Tracer:
    """Records nested spans; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            tracer.spans[idx].counts = count(args, kwargs, out)
        return out
    return wrapper


def _probe_counts(args, kwargs, out):
    rounds = kwargs["rounds"] if "rounds" in kwargs else args[4]
    return {"rounds": int(rounds)}


def _bsum_counts(args, kwargs, out):
    """Solver record of one optimize_design call.  ``moved`` means the
    worst-case objective rose above the warm start's by more than
    floating-point rounding (1e-12 relative): at the parent commit most
    calls return a design a few ulps from the start with the same value,
    which is not a useful move."""
    res = out[2]
    gain = res.trace[-1] - res.trace[0]
    return {"outer": res.iterations, "inner": res.inner_iterations,
            "rejected": res.rejected_steps,
            "moved": bool(gain > MOVE_RTOL * abs(res.trace[0]))}


def _mirror_prox_counts(args, kwargs, out):
    return {"iterations": out.iterations, "converged": bool(out.converged)}


_COUNTS = {
    "channel_model.simulate_probing": _probe_counts,
    "bsum.optimize_design": _bsum_counts,
    "mirror_prox.mirror_prox_solve": _mirror_prox_counts,
}


@contextlib.contextmanager
def traced(tracer):
    """Install span wrappers on every layer name that exists; restore all
    of them on exit.  Yields the list of names that were not found."""
    saved, missing = [], []
    try:
        for module, attr, name in WRAPPED:
            if not hasattr(module, attr):
                missing.append(name)
                continue
            fn = getattr(module, attr)
            saved.append((setattr, module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, _COUNTS.get(name)))
        registry = harness.DESIGN_METHODS
        for method, fn in list(registry.items()):
            saved.append((dict.__setitem__, registry, method, fn))
            registry[method] = _wrap(tracer, f"baselines.{method}", fn, None)
        yield missing
    finally:
        for restore, owner, key, fn in reversed(saved):
            restore(owner, key, fn)


# ---------------------------------------------------------------------------
# aggregation

# fixed rather than read from DESIGN_METHODS, so the reported metric names
# stay those BENCHMARK.json lists
METHODS = ("optimized", "statistical", "iid_ris", "iid_bs", "random",
           "no_ris", "subgradient")

# per-layer metric name -> unit; every one is reported on every workload
# (zero when the workload never enters that layer)
LAYER_UNITS = {
    "channel_model.build_correlations.s": "s",
    "channel_model.build_correlations.calls": "count",
    "channel_model.simulate_probing.s": "s",
    "channel_model.simulate_probing.s_per_1k_rounds": "s",
    "problem_lift.build_lifted.s": "s",
    "problem_lift.build_lifted.calls": "count",
    "problem_lift.build_lifted.ms_p50": "ms",
    "problem_lift.objective_terms.s": "s",
    "problem_lift.objective_terms.calls": "count",
    "problem_lift.objective_terms.us_p50": "us",
    "bsum.optimize_design.s": "s",
    "bsum.optimize_design.calls": "count",
    "bsum.outer_iterations": "count/call",
    "bsum.inner_iterations": "count/call",
    "bsum.rejected_steps": "count/call",
    "bsum.moved_frac": "frac",
    "bsum.curvature_v.s": "s",
    "bsum.curvature_w.s": "s",
    "mirror_prox.mirror_prox_solve.s": "s",
    "mirror_prox.mirror_prox_solve.calls": "count",
    "mirror_prox.iterations_per_call": "count/call",
    "mirror_prox.converged_frac": "frac",
    **{f"baselines.{m}.{suffix}": unit
       for m in METHODS
       for suffix, unit in (("s", "s"), ("ms_p50", "ms"), ("ms_p90", "ms"))},
    "kgr_core.min_kgr_bits.s": "s",
    "harness.quantize_median_bits.s": "s",
    "harness.bit_disagreement.s": "s",
    "harness.frequency_test.s": "s",
    "harness.runs_test.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p90": "ms",
    "harness.bdr_mean": "frac",
    "trace.overhead_frac": "frac",
}

ROOT = "harness.run_experiment"


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_table(spans):
    """Per layer name: calls, inclusive seconds, self seconds, durations."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    table = {}
    for i, sp in enumerate(spans):
        entry = table.setdefault(
            sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                      "counts": []})
        dur = sp.end - sp.start
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - child_time[i]
        entry["durations"].append(dur)
        if sp.counts is not None:
            entry["counts"].append(sp.counts)
    return table


def trial_durations(spans):
    """Seconds per scenario draw: from one build_correlations span start to
    the next inside the same run_experiment span; the last draw of a run
    ends with the last layer span of that run."""
    out = []
    roots = [i for i, sp in enumerate(spans) if sp.name == ROOT]
    for r in roots:
        root = spans[r]
        inside = [sp for sp in spans
                  if sp.name != ROOT and root.start <= sp.start <= root.end]
        starts = [sp.start for sp in inside
                  if sp.name == "channel_model.build_correlations"]
        if not starts:
            continue
        last_end = max(sp.end for sp in inside)
        out.extend(np.diff(starts + [last_end]).tolist())
    return out


def layer_metrics(spans, reps, overhead_frac, bdr_mean):
    """Per-layer metrics from the spans of ``reps`` traced repetitions;
    times and call counts are per repetition."""
    table = layer_table(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
             "counts": []}

    def get(name):
        return table.get(name, empty)

    out = {}
    for layer in ("channel_model.build_correlations",
                  "channel_model.simulate_probing",
                  "problem_lift.build_lifted", "problem_lift.objective_terms",
                  "bsum.optimize_design", "bsum.curvature_v",
                  "bsum.curvature_w", "mirror_prox.mirror_prox_solve",
                  "kgr_core.min_kgr_bits", "harness.quantize_median_bits",
                  "harness.bit_disagreement", "harness.frequency_test",
                  "harness.runs_test"):
        out[f"{layer}.s"] = get(layer)["s"] / reps
        out[f"{layer}.calls"] = get(layer)["calls"] / reps

    probe = get("channel_model.simulate_probing")
    rounds = sum(c["rounds"] for c in probe["counts"])
    out["channel_model.simulate_probing.s_per_1k_rounds"] = (
        probe["s"] / (rounds / 1000.0) if rounds else 0.0)
    out["problem_lift.build_lifted.ms_p50"] = 1e3 * _pct(
        get("problem_lift.build_lifted")["durations"], 50)
    out["problem_lift.objective_terms.us_p50"] = 1e6 * _pct(
        get("problem_lift.objective_terms")["durations"], 50)

    solves = get("bsum.optimize_design")["counts"]
    n = max(len(solves), 1)
    out["bsum.outer_iterations"] = sum(c["outer"] for c in solves) / n
    out["bsum.inner_iterations"] = sum(c["inner"] for c in solves) / n
    out["bsum.rejected_steps"] = sum(c["rejected"] for c in solves) / n
    out["bsum.moved_frac"] = sum(c["moved"] for c in solves) / n

    inner = get("mirror_prox.mirror_prox_solve")["counts"]
    n = max(len(inner), 1)
    out["mirror_prox.iterations_per_call"] = sum(
        c["iterations"] for c in inner) / n
    out["mirror_prox.converged_frac"] = sum(c["converged"] for c in inner) / n

    for m in METHODS:
        entry = get(f"baselines.{m}")
        out[f"baselines.{m}.s"] = entry["s"] / reps
        out[f"baselines.{m}.ms_p50"] = 1e3 * _pct(entry["durations"], 50)
        out[f"baselines.{m}.ms_p90"] = 1e3 * _pct(entry["durations"], 90)

    out["harness.run_experiment.self_s"] = get(ROOT)["self_s"] / reps
    trials = trial_durations(spans)
    out["harness.trial_ms_p50"] = 1e3 * _pct(trials, 50)
    out["harness.trial_ms_p90"] = 1e3 * _pct(trials, 90)
    out["harness.bdr_mean"] = bdr_mean
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in LAYER_UNITS}
