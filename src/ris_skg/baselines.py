"""Reference designs the optimized scheme is compared against.

Each design method maps a correlation set, seeds and a trial count to the
combiner/reflection pairs of a sweep point's trials: ``(w, v)`` with ``w``
of shape (trials, M) and ``v`` of shape (trials, N), one row per trial.
The harness passes the point's ``channel_model.point_statistics``: R_bs,
R_ris, the fixed links and the powers, with no eavesdropper (K = 0), so
no draw of Eve can change a design's rows.  The deterministic
methods compute one design and broadcast it to read-only rows; the
stochastic ones draw every row from one generator,
``np.random.default_rng(seeds)``, so ``seeds`` is anything that accepts: a
seed list, or a generator, which it returns as is.  The registry at the
bottom gives the harness a uniform way to run them side by side; its
``optimized``, ``statistical`` and ``subgradient`` entries are one design,
the closed-form max-min optimum.
"""

from __future__ import annotations

import numpy as np

from .bsum import statistical_design
# not called here: perfbench/tracer.py wraps this name on this module
from .bsum import optimize_design  # noqa: F401


def random_combiner(corr, rng, trials):
    """Isotropic random combiner directions at exactly full power, one row
    per trial."""
    shape = (trials, corr.n_bs)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return w * (np.sqrt(corr.power_alice)
                / np.linalg.norm(w, axis=-1, keepdims=True))


def random_phases(corr, rng, trials):
    return np.exp(2j * np.pi * rng.uniform(size=(trials, corr.n_ris)))


def _rows(x, trials):
    """One design as the read-only rows of ``trials`` trials."""
    return np.broadcast_to(x, (trials, x.size))


# ---------------------------------------------------------------------------
# registry used by the experiment harness


def _design_statistical(corr, seeds, trials):
    """Correlation-only design; also the exact max-min optimum (see
    ``bsum.statistical_design``).  So ``optimized`` returns it without
    running the solver, and so does ``subgradient``: a best-visited
    ascent started at the certified optimum returns that optimum."""
    w, v = statistical_design(corr)
    return _rows(w, trials), _rows(v, trials)


def _design_iid_ris(corr, seeds, trials):
    """Designer who models the surface as uncorrelated: phases carry no
    information for them, so random phases with the informed combiner."""
    w, _ = statistical_design(corr)
    return _rows(w, trials), random_phases(corr, np.random.default_rng(seeds),
                                           trials)


def _design_iid_bs(corr, seeds, trials):
    """Designer who models the base-station array as uncorrelated: random
    full-power combiner with the phases that are optimal for it, which are
    all aligned whatever the combiner (see ``bsum.statistical_design``)."""
    w = random_combiner(corr, np.random.default_rng(seeds), trials)
    return w, _rows(np.ones(corr.n_ris, dtype=complex), trials)


def _design_random(corr, seeds, trials):
    rng = np.random.default_rng(seeds)
    return random_combiner(corr, rng, trials), random_phases(corr, rng, trials)


def _design_no_ris(corr, seeds, trials):
    w, _ = statistical_design(corr)
    return _rows(w, trials), _rows(np.zeros(corr.n_ris, dtype=complex), trials)


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
