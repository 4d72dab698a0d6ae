"""Reference designs the optimized scheme is compared against.

Each design method maps a correlation set (plus a random generator for the
stochastic ones) to a combiner/reflection pair ``(w, v)``.  The registry at
the bottom gives the harness a uniform way to run them side by side; its
``optimized``, ``statistical`` and ``subgradient`` entries are one design,
the closed-form max-min optimum.
"""

from __future__ import annotations

import numpy as np

from .bsum import statistical_design
# not called here: perfbench/tracer.py wraps this name on this module
from .bsum import optimize_design  # noqa: F401


def random_combiner(corr, rng):
    """Isotropic random combiner direction at exactly full power."""
    w = rng.standard_normal(corr.n_bs) + 1j * rng.standard_normal(corr.n_bs)
    return w * (np.sqrt(corr.power_alice) / np.linalg.norm(w))


def random_phases(corr, rng):
    return np.exp(2j * np.pi * rng.uniform(size=corr.n_ris))


# ---------------------------------------------------------------------------
# registry used by the experiment harness


def _design_statistical(corr, rng):
    """Correlation-only design; also the exact max-min optimum (see
    ``bsum.statistical_design``).  So ``optimized`` returns it without
    running the solver, and so does ``subgradient``: a best-visited
    ascent started at the certified optimum returns that optimum."""
    return statistical_design(corr)


def _design_iid_ris(corr, rng):
    """Designer who models the surface as uncorrelated: phases carry no
    information for them, so random phases with the informed combiner."""
    w, _ = statistical_design(corr)
    return w, random_phases(corr, rng)


def _design_iid_bs(corr, rng):
    """Designer who models the base-station array as uncorrelated: random
    full-power combiner with the phases that are optimal for it, which are
    all aligned whatever the combiner (see ``bsum.statistical_design``)."""
    return random_combiner(corr, rng), np.ones(corr.n_ris, dtype=complex)


def _design_random(corr, rng):
    return random_combiner(corr, rng), random_phases(corr, rng)


def _design_no_ris(corr, rng):
    w, _ = statistical_design(corr)
    return w, np.zeros(corr.n_ris, dtype=complex)


DESIGN_METHODS = {
    "optimized": _design_statistical,
    "statistical": _design_statistical,
    "iid_ris": _design_iid_ris,
    "iid_bs": _design_iid_bs,
    "random": _design_random,
    "no_ris": _design_no_ris,
    # kept by name: perfbench lists it among the methods it runs
    "subgradient": _design_statistical,
}
