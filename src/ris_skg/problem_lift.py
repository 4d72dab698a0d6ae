"""Real-valued lift of the max-min effective-gain design problem.

The complex design variables are replaced by stacked real/imaginary parts:
``vt = [Re v; Im v]`` for the reflection vector and ``wt = [Re u; Im u]``
with ``u = conj(w)`` for the combiner, so every complex quadratic form
``x^H A x`` becomes a real symmetric form in the lifted vector.  Under the
scalar Eve cross model every surface-side matrix is a weighted sum of
H = lift(R_ris o R_ris) and the identity, and every base-station-side one
a multiple of Rs = lift(R_bs), so each per-eavesdropper effective gain
depends on the design only through m = wt'Rs wt, h = vt'H vt and
s = vt'vt:

    f_k = m q_u - u1_k^2 / (m r_k + sigma^2),
    q_u = beta_c h + (beta_ab / N) s,   r_k = beta_ce,k h + (beta_ae,k / N) s,
    u1_k = m (c_k h + e_k)

with the cross coefficients c_k = rho_k sqrt(beta_c beta_ce,k) and
e_k = rho_k sqrt(beta_ab beta_ae,k).  That is the sum of a quadratic and
a negated quadratic-over-linear composition - the structure both block
solvers exploit.  The unit-modulus constraint relaxes to per-element discs
(vt_i^2 + vt_{N+i}^2 <= 1) and the combiner power to a Euclidean ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def lift_hermitian(a):
    """Real symmetric lift [[Re A, -Im A], [Im A, Re A]] of Hermitian A,
    satisfying x^H A x = lift_vector(x)' lift_hermitian(A) lift_vector(x)."""
    a = np.asarray(a)
    re, im = np.real(a), np.imag(a)
    return np.block([[re, -im], [im, re]])


def lift_vector(x):
    x = np.asarray(x, dtype=complex)
    return np.concatenate([np.real(x), np.imag(x)])


def unlift_vector(xt):
    xt = np.asarray(xt, dtype=float)
    n = xt.shape[0] // 2
    return xt[:n] + 1j * xt[n:]


def lift_combiner(w):
    """Lifted coordinates of the combiner (conjugated before stacking so
    that combiner quadratic forms lift with the same convention)."""
    return lift_vector(np.conj(np.asarray(w, dtype=complex)))


def combiner_from_lifted(wt):
    return np.conj(unlift_vector(wt))


@dataclass
class LiftedProblem:
    """The two shared matrices of the lifted max-min problem, their top
    eigenvalues and the per-eavesdropper coefficients of the gains.

    ``had`` is H (2N, 2N) and ``r_s`` is Rs (2M, 2M).  ``legit_had`` and
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
        return self.had.shape[0] // 2

    @property
    def n_bs(self):
        return self.r_s.shape[0] // 2

    @property
    def n_eve(self):
        return self.eve_had.shape[0]


def build_lifted(corr):
    """Assemble the lifted problem from a correlation set.

    The direct-path variances are spread over the surface elements
    (beta/N on the identity) so they enter the same quadratic forms; on
    the unit-modulus set this is exact.  A Hermitian matrix and its lift
    share their eigenvalues, so the top ones come from the complex forms.
    """
    n = corr.n_ris
    return LiftedProblem(
        had=lift_hermitian(corr.ris_had),
        r_s=lift_hermitian(corr.bs_corr),
        lam_had=float(np.linalg.eigvalsh(corr.ris_had)[-1]),
        lam_r_s=float(np.linalg.eigvalsh(corr.bs_corr)[-1]),
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

    m: float           # combiner quadratic form wt'Rs wt
    q_u: float         # legitimate form beta_c h + (beta_ab / N) s
    u1: np.ndarray     # (K,) cross gains m (q_v + e_k)
    d: np.ndarray      # (K,) denominators m * r_v + sigma^2
    r_v: np.ndarray    # (K,) beta_ce,k h + (beta_ae,k / N) s
    q_v: np.ndarray    # (K,) c_k h
    f: np.ndarray      # (K,) effective gains


def objective_terms(prob, vt, wt):
    vt = np.asarray(vt, dtype=float)
    wt = np.asarray(wt, dtype=float)
    m = float(wt @ prob.r_s @ wt)
    h = float(vt @ prob.had @ vt)
    s = float(vt @ vt)
    q_u = prob.legit_had * h + prob.legit_eye * s
    r_v = prob.eve_had * h + prob.eve_eye * s
    q_v = prob.cross_had * h
    u1 = m * (q_v + prob.cross_direct)
    d = m * r_v + prob.noise_power
    f = m * q_u - u1 ** 2 / d
    return ObjectiveTerms(m, q_u, u1, d, r_v, q_v, f)


def objective(prob, vt, wt):
    """Per-eavesdropper effective gains f_k(vt, wt), shape (K,)."""
    return objective_terms(prob, vt, wt).f


def min_objective(prob, vt, wt):
    return float(np.min(objective_terms(prob, vt, wt).f))


def grad_v(prob, vt, wt, terms=None):
    """Gradients of every f_k in the surface block, shape (K, 2N): each a
    combination of H vt and vt."""
    t = objective_terms(prob, vt, wt) if terms is None else terms
    vt = np.asarray(vt, dtype=float)
    lead = t.u1 / t.d
    on_had = 2.0 * t.m * (prob.legit_had - 2.0 * lead * prob.cross_had
                          + lead ** 2 * prob.eve_had)
    on_eye = 2.0 * t.m * (prob.legit_eye + lead ** 2 * prob.eve_eye)
    return on_had[:, None] * (prob.had @ vt) + on_eye[:, None] * vt


def grad_w(prob, vt, wt, terms=None):
    """Gradients of every f_k in the combiner block, shape (K, 2M): each a
    multiple of Rs wt, the gradient of m."""
    t = objective_terms(prob, vt, wt) if terms is None else terms
    wt = np.asarray(wt, dtype=float)
    lead = t.u1 / t.d
    df_dm = (t.q_u - 2.0 * lead * (t.q_v + prob.cross_direct)
             + lead ** 2 * t.r_v)
    return (2.0 * df_dm)[:, None] * (prob.r_s @ wt)


def project_discs(vt):
    """Project each (Re, Im) pair of the lifted surface vector onto the
    closed unit disc."""
    vt = np.asarray(vt, dtype=float).copy()
    n = vt.shape[0] // 2
    mag = np.hypot(vt[:n], vt[n:])
    scale = np.divide(1.0, mag, out=np.ones_like(mag), where=mag > 1.0)
    vt[:n] *= scale
    vt[n:] *= scale
    return vt


def project_ball(wt, power):
    """Project the lifted combiner onto the ball ||wt||^2 <= power."""
    wt = np.asarray(wt, dtype=float)
    nrm = np.linalg.norm(wt)
    r = np.sqrt(power)
    if nrm <= r:
        return wt.copy()
    return wt * (r / nrm)
