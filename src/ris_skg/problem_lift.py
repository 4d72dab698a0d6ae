"""Real-valued lift of the max-min effective-gain design problem.

The complex design variables are replaced by stacked real/imaginary parts:
``vt = [Re v; Im v]`` for the reflection vector and ``wt = [Re u; Im u]``
with ``u = conj(w)`` for the combiner, so every complex quadratic form
``x^H A x`` becomes a real symmetric form in the lifted vector.  Each
per-eavesdropper effective gain turns into

    f_k(vt, wt) = m * vt'Ru vt - (u1^2 + u2^2) / (m * vt'Rk vt + sigma^2)

with m = wt'Rs wt, u1 = m * vt'Qr_k vt + wt'Qd_k wt and u2 the same with
the skew parts, which is the sum of a quadratic and a negated
quadratic-over-linear composition - the structure both block solvers
exploit.  The unit-modulus constraint relaxes to per-element discs
(vt_i^2 + vt_{N+i}^2 <= 1) and the combiner power to a Euclidean ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def lift_hermitian(a):
    """Real symmetric lift [[Re A, -Im A], [Im A, Re A]] of Hermitian A,
    satisfying x^H A x = lift_vector(x)' lift_hermitian(A) lift_vector(x)."""
    a = np.asarray(a)
    re, im = np.real(a), np.imag(a)
    return np.block([[re, -im], [im, re]])


def split_hermitian_parts(a):
    """Hermitian/skew decomposition A = H + 1j*S with H, S both Hermitian."""
    a = np.asarray(a, dtype=complex)
    h = (a + a.conj().T) / 2.0
    s = (a - a.conj().T) / 2.0j
    return h, s


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


def sym_eig_stats(mats):
    """Per-matrix (signed max eigenvalue, max squared eigenvalue)."""
    vals = np.linalg.eigvalsh(mats)
    return vals[..., -1], np.max(vals ** 2, axis=-1)


@dataclass
class LiftedProblem:
    """All matrices of the lifted max-min problem, with cached spectral
    quantities used by the block curvature bounds.

    Shapes: ``r_u`` and stacked ``r_e/q_ris/p_ris`` are (2N, 2N) /
    (K, 2N, 2N); ``r_s`` and stacked ``q_bs/p_bs`` are (2M, 2M) /
    (K, 2M, 2M).
    """

    r_u: np.ndarray
    r_e: np.ndarray
    q_ris: np.ndarray
    p_ris: np.ndarray
    r_s: np.ndarray
    q_bs: np.ndarray
    p_bs: np.ndarray
    noise_power: float
    power_alice: float
    lam_r_e: np.ndarray = field(default=None, repr=False)
    lam_q_ris: np.ndarray = field(default=None, repr=False)
    lam2_q_ris: np.ndarray = field(default=None, repr=False)
    lam_p_ris: np.ndarray = field(default=None, repr=False)
    lam2_p_ris: np.ndarray = field(default=None, repr=False)
    lam_r_s: float = field(default=None, repr=False)

    def __post_init__(self):
        if self.lam_r_e is None:
            self.lam_r_e, _ = sym_eig_stats(self.r_e)
        if self.lam_q_ris is None:
            self.lam_q_ris, self.lam2_q_ris = sym_eig_stats(self.q_ris)
        if self.lam_p_ris is None:
            self.lam_p_ris, self.lam2_p_ris = sym_eig_stats(self.p_ris)
        if self.lam_r_s is None:
            self.lam_r_s = float(np.linalg.eigvalsh(self.r_s)[-1])

    @property
    def n_ris(self):
        return self.r_u.shape[0] // 2

    @property
    def n_bs(self):
        return self.r_s.shape[0] // 2

    @property
    def n_eve(self):
        return self.r_e.shape[0]


def build_lifted(corr):
    """Assemble the lifted problem from a correlation set.

    The direct-path variances are spread over the surface elements
    (beta/N on the identity) so they enter the same quadratic forms; on
    the unit-modulus set this is exact.
    """
    n = corr.n_ris
    k = corr.n_eve
    eye = np.eye(n)

    r_u = lift_hermitian(corr.beta_cascade * corr.ris_had
                         + (corr.beta_ab / n) * eye)
    r_e = np.stack([
        lift_hermitian(corr.beta_cascade_eve[i] * corr.ris_had
                       + (corr.beta_ae[i] / n) * eye)
        for i in range(k)
    ])

    s_ris = np.sqrt(corr.beta_cascade * corr.beta_cascade_eve)
    s_bs = np.sqrt(corr.beta_ab * corr.beta_ae)
    q_ris, p_ris, q_bs, p_bs = [], [], [], []
    for i in range(k):
        h, s = split_hermitian_parts(corr.cross_ris[i])
        q_ris.append(s_ris[i] * lift_hermitian(h))
        p_ris.append(s_ris[i] * lift_hermitian(s))
        h, s = split_hermitian_parts(corr.cross_bs[i])
        q_bs.append(s_bs[i] * lift_hermitian(h))
        p_bs.append(s_bs[i] * lift_hermitian(s))

    return LiftedProblem(
        r_u=r_u,
        r_e=r_e,
        q_ris=np.stack(q_ris),
        p_ris=np.stack(p_ris),
        r_s=lift_hermitian(corr.bs_corr),
        q_bs=np.stack(q_bs),
        p_bs=np.stack(p_bs),
        noise_power=corr.noise_power,
        power_alice=corr.power_alice,
    )


@dataclass
class ObjectiveTerms:
    """Intermediate scalars of the per-eavesdropper gains at one point."""

    m: float           # combiner quadratic form wt'Rs wt
    q_u: float         # vt'Ru vt
    u1: np.ndarray     # (K,) real parts of the cross gains
    u2: np.ndarray     # (K,) imaginary parts
    d: np.ndarray      # (K,) denominators m * vt'Rk vt + sigma^2
    r_v: np.ndarray    # (K,) vt'Rk vt
    q_v: np.ndarray    # (K,) vt'Qr_k vt
    p_v: np.ndarray    # (K,) vt'Pr_k vt
    q_w: np.ndarray    # (K,) wt'Qd_k wt
    p_w: np.ndarray    # (K,) wt'Pd_k wt
    f: np.ndarray      # (K,) effective gains


def objective_terms(prob, vt, wt):
    vt = np.asarray(vt, dtype=float)
    wt = np.asarray(wt, dtype=float)
    m = float(wt @ prob.r_s @ wt)
    q_u = float(vt @ prob.r_u @ vt)
    r_v = np.einsum("i,kij,j->k", vt, prob.r_e, vt)
    q_v = np.einsum("i,kij,j->k", vt, prob.q_ris, vt)
    p_v = np.einsum("i,kij,j->k", vt, prob.p_ris, vt)
    q_w = np.einsum("i,kij,j->k", wt, prob.q_bs, wt)
    p_w = np.einsum("i,kij,j->k", wt, prob.p_bs, wt)
    u1 = m * q_v + q_w
    u2 = m * p_v + p_w
    d = m * r_v + prob.noise_power
    f = m * q_u - (u1 ** 2 + u2 ** 2) / d
    return ObjectiveTerms(m, q_u, u1, u2, d, r_v, q_v, p_v, q_w, p_w, f)


def objective(prob, vt, wt):
    """Per-eavesdropper effective gains f_k(vt, wt), shape (K,)."""
    return objective_terms(prob, vt, wt).f


def min_objective(prob, vt, wt):
    return float(np.min(objective_terms(prob, vt, wt).f))


def grad_v(prob, vt, wt, terms=None):
    """Gradients of every f_k in the surface block, shape (K, 2N)."""
    t = objective_terms(prob, vt, wt) if terms is None else terms
    vt = np.asarray(vt, dtype=float)
    ru_v = prob.r_u @ vt
    re_v = np.einsum("kij,j->ki", prob.r_e, vt)
    qr_v = np.einsum("kij,j->ki", prob.q_ris, vt)
    pr_v = np.einsum("kij,j->ki", prob.p_ris, vt)
    m = t.m
    lead = 2.0 * m * ru_v[None, :]
    mid = (4.0 * m) * (t.u1[:, None] * qr_v + t.u2[:, None] * pr_v) / t.d[:, None]
    tail = ((t.u1 ** 2 + t.u2 ** 2) / t.d ** 2)[:, None] * (2.0 * m) * re_v
    return lead - mid + tail


def grad_w(prob, vt, wt, terms=None):
    """Gradients of every f_k in the combiner block, shape (K, 2M)."""
    t = objective_terms(prob, vt, wt) if terms is None else terms
    wt = np.asarray(wt, dtype=float)
    rs_w = prob.r_s @ wt
    qd_w = np.einsum("kij,j->ki", prob.q_bs, wt)
    pd_w = np.einsum("kij,j->ki", prob.p_bs, wt)
    du1 = 2.0 * (t.q_v[:, None] * rs_w[None, :] + qd_w)
    du2 = 2.0 * (t.p_v[:, None] * rs_w[None, :] + pd_w)
    lead = 2.0 * t.q_u * rs_w[None, :]
    mid = (2.0 * t.u1[:, None] * du1 + 2.0 * t.u2[:, None] * du2) / t.d[:, None]
    tail = ((t.u1 ** 2 + t.u2 ** 2) / t.d ** 2)[:, None] \
        * 2.0 * t.r_v[:, None] * rs_w[None, :]
    return lead - mid + tail


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
