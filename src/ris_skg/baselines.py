"""Reference designs the optimized scheme is compared against.

Each design method maps a correlation set (plus a random generator for the
stochastic ones) to a combiner/reflection pair.  The registry at the bottom
gives the harness a uniform way to run them side by side; its ``optimized``
entry is the closed-form max-min optimum, the correlation-only design.
"""

from __future__ import annotations

import numpy as np

from . import problem_lift as pl
from .bsum import statistical_design
# not called here: perfbench/tracer.py wraps this name on this module
from .bsum import optimize_design  # noqa: F401


def random_combiner(corr, rng):
    """Isotropic random combiner direction at exactly full power."""
    w = rng.standard_normal(corr.n_bs) + 1j * rng.standard_normal(corr.n_bs)
    return w * (np.sqrt(corr.power_alice) / np.linalg.norm(w))


def random_phases(corr, rng):
    return np.exp(2j * np.pi * rng.uniform(size=corr.n_ris))


def projected_subgradient(prob, vt0, wt0, step_scale=0.5, iters=500):
    """Joint normalized subgradient ascent on the worst-case gain.

    Follows the gradient of the currently-worst eavesdropper (smallest
    index on ties) with a step_scale/sqrt(t) step, projecting both blocks
    after each move; returns the best visited point since the iteration is
    not monotone.
    """
    vt = pl.project_discs(np.asarray(vt0, dtype=float))
    wt = pl.project_ball(np.asarray(wt0, dtype=float), prob.power_alice)
    best = (vt.copy(), wt.copy())
    best_val = pl.min_objective(prob, vt, wt)
    trace = [best_val]
    for t in range(1, iters + 1):
        terms = pl.objective_terms(prob, vt, wt)
        k = int(np.argmin(terms.f))
        g_v = pl.grad_v(prob, vt, wt, terms=terms)[k]
        g_w = pl.grad_w(prob, vt, wt, terms=terms)[k]
        norm = np.sqrt(g_v @ g_v + g_w @ g_w)
        if norm == 0:
            break
        step = step_scale / np.sqrt(t) / norm
        vt = pl.project_discs(vt + step * g_v)
        wt = pl.project_ball(wt + step * g_w, prob.power_alice)
        val = pl.min_objective(prob, vt, wt)
        trace.append(val)
        if val > best_val:
            best_val = val
            best = (vt.copy(), wt.copy())
    return best[0], best[1], best_val, np.asarray(trace)


# ---------------------------------------------------------------------------
# registry used by the experiment harness


def _design_statistical(corr, rng):
    """Correlation-only design; also the exact max-min optimum, so the
    ``optimized`` method returns it without running the solver (see
    ``bsum.statistical_design``)."""
    w, v = statistical_design(corr)
    return w, v, {"iterations": 0, "converged": True}


def _design_iid_ris(corr, rng):
    """Designer who models the surface as uncorrelated: phases carry no
    information for them, so random phases with the informed combiner."""
    w, _ = statistical_design(corr)
    return w, random_phases(corr, rng), {"iterations": 0, "converged": True}


def _design_iid_bs(corr, rng):
    """Designer who models the base-station array as uncorrelated: random
    full-power combiner with the phases that are optimal for it, which are
    all aligned whatever the combiner (see ``bsum.statistical_design``)."""
    return random_combiner(corr, rng), np.ones(corr.n_ris, dtype=complex), \
        {"iterations": 0, "converged": True}


def _design_random(corr, rng):
    return random_combiner(corr, rng), random_phases(corr, rng), \
        {"iterations": 0, "converged": True}


def _design_no_ris(corr, rng):
    w, _ = statistical_design(corr)
    return w, np.zeros(corr.n_ris, dtype=complex), \
        {"iterations": 0, "converged": True}


def _design_subgradient(corr, rng):
    prob = pl.build_lifted(corr)
    w0, v0 = statistical_design(corr)
    vt, wt, _, trace = projected_subgradient(
        prob, pl.lift_vector(v0), pl.lift_combiner(w0))
    return pl.combiner_from_lifted(wt), pl.unlift_vector(vt), \
        {"iterations": len(trace) - 1, "converged": True}


DESIGN_METHODS = {
    "optimized": _design_statistical,
    "statistical": _design_statistical,
    "iid_ris": _design_iid_ris,
    "iid_bs": _design_iid_bs,
    "random": _design_random,
    "no_ris": _design_no_ris,
    "subgradient": _design_subgradient,
}
