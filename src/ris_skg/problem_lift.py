"""The max-min effective-gain design problem in three quadratic forms.

The design variables are the complex reflection vector ``v`` (N,) and
combiner ``w`` (M,).  C^n is treated as R^2n under the inner product
Re(x^H y) (``real_inner``), so a gradient is a complex vector of its
variable's shape.  Under the scalar Eve cross model every surface-side
matrix is a weighted sum of H = R_ris o R_ris and the identity, and every
base-station-side one a multiple of R_bs, so each per-eavesdropper
effective gain depends on the design only through m = Re(w^H R_bs w),
h = Re(v^H H v) and s = ||v||^2:

    f_k = m q_u - u1_k^2 / (m r_k + sigma^2),
    q_u = beta_c h + (beta_ab / N) s,   r_k = beta_ce,k h + (beta_ae,k / N) s,
    u1_k = m (c_k h + e_k)

with the cross coefficients c_k = rho_k sqrt(beta_c beta_ce,k) and
e_k = rho_k sqrt(beta_ab beta_ae,k).  That is the sum of a quadratic and
a negated quadratic-over-linear composition - the structure both block
solvers exploit.  The unit-modulus constraint relaxes to per-element discs
(|v_i| <= 1) and the combiner power to a Euclidean ball.

The module name, ``build_lifted`` and ``objective_terms`` are the names
the benchmark's tracer (``perfbench/tracer.py``) wraps, which is why they
still speak of a lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def real_inner(x, y):
    """Re(x^H y), the real inner product of C^n; a stack of rows x gives
    one value per row."""
    return (np.conj(x) @ y).real


@dataclass
class LiftedProblem:
    """The two shared matrices of the max-min problem, their top
    eigenvalues and the per-eavesdropper coefficients of the gains.

    ``had`` is H (N, N) and ``r_s`` is R_bs (M, M).  ``legit_had`` and
    ``legit_eye`` weigh h and s in q_u; the (K,) ``eve_had``/``eve_eye``
    weigh them in r_k, and ``cross_had``/``cross_direct`` are c_k and e_k.
    """

    had: np.ndarray
    r_s: np.ndarray
    lam_had: float
    lam_r_s: float
    legit_had: float
    legit_eye: float
    eve_had: np.ndarray
    eve_eye: np.ndarray
    cross_had: np.ndarray
    cross_direct: np.ndarray
    noise_power: float
    power_alice: float

    @property
    def n_ris(self):
        return self.had.shape[0]

    @property
    def n_bs(self):
        return self.r_s.shape[0]

    @property
    def n_eve(self):
        return self.eve_had.shape[0]


def build_lifted(corr):
    """Assemble the problem from a correlation set.

    The direct-path variances are spread over the surface elements
    (beta/N on the identity) so they enter the same quadratic forms; on
    the unit-modulus set this is exact.  The matrices are the correlation
    set's own, and lam_max(R_bs) comes from its decomposition.
    """
    n = corr.n_ris
    return LiftedProblem(
        had=corr.ris_had,
        r_s=corr.bs_corr,
        lam_had=float(np.linalg.eigvalsh(corr.ris_had)[-1]),
        lam_r_s=float(corr.bs_eigh[0][-1]),
        legit_had=corr.beta_cascade,
        legit_eye=corr.beta_ab / n,
        eve_had=corr.beta_cascade_eve,
        eve_eye=corr.beta_ae / n,
        cross_had=corr.rho_eve * np.sqrt(corr.beta_cascade
                                         * corr.beta_cascade_eve),
        cross_direct=corr.rho_eve * np.sqrt(corr.beta_ab * corr.beta_ae),
        noise_power=corr.noise_power,
        power_alice=corr.power_alice,
    )


@dataclass
class ObjectiveTerms:
    """Intermediate scalars of the per-eavesdropper gains at one point."""

    m: float           # combiner quadratic form Re(w^H R_bs w)
    q_u: float         # legitimate form beta_c h + (beta_ab / N) s
    u1: np.ndarray     # (K,) cross gains m (q_v + e_k)
    d: np.ndarray      # (K,) denominators m * r_v + sigma^2
    r_v: np.ndarray    # (K,) beta_ce,k h + (beta_ae,k / N) s
    q_v: np.ndarray    # (K,) c_k h
    f: np.ndarray      # (K,) effective gains


def objective_terms(prob, v, w):
    m = float(real_inner(w, prob.r_s @ w))
    h = float(real_inner(v, prob.had @ v))
    s = float(real_inner(v, v))
    q_u = prob.legit_had * h + prob.legit_eye * s
    r_v = prob.eve_had * h + prob.eve_eye * s
    q_v = prob.cross_had * h
    u1 = m * (q_v + prob.cross_direct)
    d = m * r_v + prob.noise_power
    f = m * q_u - u1 ** 2 / d
    return ObjectiveTerms(m, q_u, u1, d, r_v, q_v, f)


def min_objective(prob, v, w):
    return float(np.min(objective_terms(prob, v, w).f))


def grad_v(prob, v, w, terms=None):
    """Gradients of every f_k in the surface block, shape (K, N): each a
    combination of H v and v."""
    t = objective_terms(prob, v, w) if terms is None else terms
    lead = t.u1 / t.d
    on_had = 2.0 * t.m * (prob.legit_had - 2.0 * lead * prob.cross_had
                          + lead ** 2 * prob.eve_had)
    on_eye = 2.0 * t.m * (prob.legit_eye + lead ** 2 * prob.eve_eye)
    return on_had[:, None] * (prob.had @ v) + on_eye[:, None] * v


def grad_w(prob, v, w, terms=None):
    """Gradients of every f_k in the combiner block, shape (K, M): each a
    multiple of R_bs w, the gradient of m."""
    t = objective_terms(prob, v, w) if terms is None else terms
    lead = t.u1 / t.d
    df_dm = (t.q_u - 2.0 * lead * (t.q_v + prob.cross_direct)
             + lead ** 2 * t.r_v)
    return (2.0 * df_dm)[:, None] * (prob.r_s @ w)


def project_discs(v):
    """Project each element of the surface vector onto the closed unit
    disc."""
    return v / np.maximum(np.abs(v), 1.0)


def project_ball(w, power):
    """Project the combiner onto the ball ||w||^2 <= power."""
    nrm = np.linalg.norm(w)
    r = np.sqrt(power)
    if nrm <= r:
        return w.copy()
    return w * (r / nrm)
