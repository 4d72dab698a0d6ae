"""Shared reference computations and instance builders for the tests.

Everything here is deliberately independent of the library's algorithmic
paths: brute-force grids with certified two-sided brackets, directly
indexed determinant formulas, finite differences, and hand-rolled random
scenario builders, so each test compares two separately derived answers.
"""

import itertools

import numpy as np

from ris_skg import bsum
from ris_skg import channel_model as cm
from ris_skg import mirror_prox as mp
from ris_skg import problem_lift as pl

# ---------------------------------------------------------------------------
# saddle-point bracket


def simplex_grid(k, resolution):
    """All probability vectors of length k on the resolution-step lattice."""
    pts = []
    for comb in itertools.combinations_with_replacement(range(k), resolution):
        counts = np.bincount(comb, minlength=k)
        pts.append(counts / resolution)
    return np.asarray(pts, dtype=float)


def certified_max_min(sp, x_candidates=(), coarse=30, rounds=14, fine=8,
                      shrink=2.5):
    """Two-sided bracket (lo, hi) of max over the domain of the worst
    minorant of ``sp``.

    The upper side comes from exhaustive grids on the weight simplex with
    the exact inner minimization at each grid point (every grid value is a
    valid bound regardless of resolution; zooming only tightens it).  The
    lower side is the best worst-minorant value over the supplied candidate
    points plus the inner argmins encountered, which are feasible by
    construction.
    """
    k = sp.n_funcs
    best_dual = -np.inf
    best_y = np.full(k, 1.0 / k)
    best_primal = -np.inf

    def visit(y):
        nonlocal best_dual, best_y, best_primal
        val, x_star = mp.weighted_inner_min(sp, y)
        if val > best_dual:
            best_dual, best_y = val, y
        best_primal = max(best_primal, mp.min_minorant(sp, x_star))

    for y in simplex_grid(k, coarse):
        visit(y)
    offsets = simplex_grid(k, fine)
    radius = 1.0
    for _ in range(rounds):
        center = best_y
        for off in offsets:
            y = center + radius * (off - 1.0 / k) * 2.0
            y = np.clip(y, 0.0, None)
            total = y.sum()
            if total <= 0:
                continue
            visit(y / total)
        radius /= shrink

    for x in x_candidates:
        best_primal = max(best_primal, mp.min_minorant(sp, x))
    return best_primal, -best_dual


# ---------------------------------------------------------------------------
# direct key-rate formula, indexed by hand


def naive_kgr_bits(blocks):
    """Per-eavesdropper key rates from explicitly assembled covariance
    matrices and plain determinants."""
    rates = []
    for k in range(blocks.ee.shape[0]):
        s_full = np.array([
            [blocks.aa, blocks.ab, blocks.ae[k]],
            [np.conj(blocks.ab), blocks.bb, blocks.be[k]],
            [np.conj(blocks.ae[k]), np.conj(blocks.be[k]), blocks.ee[k]],
        ])
        det = np.linalg.det
        s_ae = det(s_full[np.ix_([0, 2], [0, 2])]).real
        s_be = det(s_full[np.ix_([1, 2], [1, 2])]).real
        s_abe = det(s_full).real
        s_e = blocks.ee[k].real
        rates.append(np.log2(s_ae * s_be / (s_abe * s_e)))
    return np.asarray(rates)


def fd_grad(fun, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# dense per-eavesdropper lift


def _top_eigs(mats):
    """Per-matrix (signed max eigenvalue, max squared eigenvalue)."""
    vals = np.linalg.eigvalsh(mats)
    return vals[..., -1], np.max(vals ** 2, axis=-1)


def dense_reference(corr, vt, wt):
    """Gains, block gradients and curvature bounds at (vt, wt) from dense
    per-eavesdropper matrices, each lifted on its own, with spectra from
    eigvalsh.

    The cross matrices rho_k (R_ris o R_ris) and rho_k R_bs are Hermitian,
    so the skew parts of a general cross model vanish and are left out.
    Returns a dict with ``f`` (K,), ``grad_v`` (K, 2N), ``grad_w`` (K, 2M),
    ``curvature_v`` and ``curvature_w`` (K,).
    """
    vt = np.asarray(vt, dtype=float)
    wt = np.asarray(wt, dtype=float)
    n, k = corr.n_ris, corr.n_eve
    eye = np.eye(n)
    lift = pl.lift_hermitian
    r_u = lift(corr.beta_cascade * corr.ris_had + (corr.beta_ab / n) * eye)
    r_e = np.stack([lift(corr.beta_cascade_eve[i] * corr.ris_had
                         + (corr.beta_ae[i] / n) * eye) for i in range(k)])
    s_ris = np.sqrt(corr.beta_cascade * corr.beta_cascade_eve)
    s_bs = np.sqrt(corr.beta_ab * corr.beta_ae)
    q_ris = np.stack([s_ris[i] * lift(corr.rho_eve[i] * corr.ris_had)
                      for i in range(k)])
    q_bs = np.stack([s_bs[i] * lift(corr.rho_eve[i] * corr.bs_corr)
                     for i in range(k)])
    r_s = lift(corr.bs_corr)
    sig2, pa = corr.noise_power, corr.power_alice

    m = wt @ r_s @ wt
    q_u = vt @ r_u @ vt
    r_v = np.einsum("i,kij,j->k", vt, r_e, vt)
    q_v = np.einsum("i,kij,j->k", vt, q_ris, vt)
    q_w = np.einsum("i,kij,j->k", wt, q_bs, wt)
    u1 = m * q_v + q_w
    d = m * r_v + sig2
    ratio = (u1 ** 2 / d ** 2)[:, None]

    rs_w = r_s @ wt
    grad_v = (2.0 * m * (r_u @ vt)[None, :]
              - 4.0 * m * u1[:, None] * (q_ris @ vt) / d[:, None]
              + ratio * 2.0 * m * (r_e @ vt))
    du1 = 2.0 * (q_v[:, None] * rs_w[None, :] + q_bs @ wt)
    grad_w = (2.0 * q_u * rs_w[None, :]
              - 2.0 * u1[:, None] * du1 / d[:, None]
              + ratio * 2.0 * r_v[:, None] * rs_w[None, :])

    lam_q, lam2_q = _top_eigs(q_ris)
    lam_r_e = np.linalg.eigvalsh(r_e)[:, -1]
    lam_qhat = m * lam_q
    top_q = q_w + n * lam_qhat
    curv_v = (n / sig2) * (
        4.0 * top_q ** 2 / sig2 ** 2 * m ** 2 * n * lam_r_e ** 2
        + 2.0 * n * (2.0 * m ** 2 * lam2_q)
        + top_q * 2.0 * lam_qhat)

    lam_qbar, lam2_qbar = _top_eigs(q_v[:, None, None] * r_s[None] + q_bs)
    lam_r_s = np.linalg.eigvalsh(r_s)[-1]
    curv_w = (2.0 * pa / sig2) * (
        4.0 * lam2_qbar
        + lam_qbar * 2.0 * lam_qbar
        + r_v ** 2 * (4.0 * pa ** 3 / sig2 ** 2) * lam_r_s ** 2 * lam_qbar ** 2
        + 4.0 * lam2_qbar)

    return {
        "f": m * q_u - u1 ** 2 / d,
        "grad_v": grad_v,
        "grad_w": grad_w,
        "curvature_v": np.maximum(curv_v, bsum.CURVATURE_FLOOR),
        "curvature_w": np.maximum(curv_w, bsum.CURVATURE_FLOOR),
    }


# ---------------------------------------------------------------------------
# random scenario builders


def random_corr(rng, n_bs=3, n_ris=4, n_eve=2, rho_eve_max=0.95):
    """Correlation set at order-one scales with exponential correlation on
    both arrays and the scalar eavesdropper cross model."""
    return cm.CorrelationSet(
        bs_corr=cm.exp_corr_matrix(n_bs, rng.uniform(0.0, 0.8)),
        ris_corr=cm.exp_corr_matrix(n_ris, rng.uniform(0.0, 0.8)),
        beta_ab=rng.uniform(0.3, 1.5),
        beta_ar=rng.uniform(0.3, 1.5),
        beta_rb=rng.uniform(0.3, 1.5),
        beta_ae=rng.uniform(0.3, 1.5, n_eve),
        beta_re=rng.uniform(0.3, 1.5, n_eve),
        rho_eve=rng.uniform(0.0, rho_eve_max, n_eve),
        power_alice=rng.uniform(0.5, 2.0),
        power_bob=rng.uniform(0.5, 2.0),
        noise_power=rng.uniform(0.1, 0.5),
    )


def recovery_corr(rng, n_bs=4, n_ris=6, n_eve=3):
    """Independent-eavesdropper instance whose optimum is known in closed
    form (top-eigenvector combiner, aligned phases)."""
    return cm.CorrelationSet(
        bs_corr=cm.exp_corr_matrix(n_bs, rng.uniform(0.2, 0.7)),
        ris_corr=cm.exp_corr_matrix(n_ris, rng.uniform(0.2, 0.7)),
        beta_ab=rng.uniform(0.3, 1.5),
        beta_ar=rng.uniform(0.3, 1.5),
        beta_rb=rng.uniform(0.3, 1.5),
        beta_ae=rng.uniform(0.3, 1.5, n_eve),
        beta_re=rng.uniform(0.3, 1.5, n_eve),
        rho_eve=np.zeros(n_eve),
        power_alice=rng.uniform(0.5, 2.0),
        power_bob=rng.uniform(0.5, 2.0),
        noise_power=rng.uniform(0.1, 0.5),
    )


def random_combiner(rng, corr, full_power=False):
    w = rng.standard_normal(corr.n_bs) + 1j * rng.standard_normal(corr.n_bs)
    nrm = np.linalg.norm(w)
    scale = 1.0 if full_power else rng.uniform(0.3, 1.0)
    return w / nrm * np.sqrt(corr.power_alice) * scale


def random_reflect(rng, corr, unit_modulus=False):
    phases = np.exp(2j * np.pi * rng.uniform(size=corr.n_ris))
    if unit_modulus:
        return phases
    return phases * rng.uniform(0.2, 1.0, corr.n_ris)


def random_saddle(rng, max_funcs=4, max_pairs=3):
    """Random small saddle problem on either domain."""
    k = int(rng.integers(1, max_funcs + 1))
    if rng.uniform() < 0.5:
        domain, dim, power = "discs", 2 * int(rng.integers(1, max_pairs + 1)), 1.0
    else:
        domain, dim, power = "ball", int(rng.integers(1, 2 * max_pairs + 1)), \
            float(rng.uniform(0.5, 4.0))
    return mp.SaddleProblem(
        quad=rng.uniform(0.0, 3.0, k),
        lin=rng.standard_normal((k, dim)),
        const=rng.uniform(-1.0, 1.0, k),
        domain=domain,
        power=power,
    )
