"""Shared reference computations and instance builders for the tests.

Everything here is deliberately independent of the library's algorithmic
paths: brute-force grids with certified two-sided brackets, directly
indexed determinant formulas, full channel draws, closed forms of the
correlation-only design, finite differences, dense matrices in the stacked
[Re; Im] real layout (the package works on complex vectors), and
hand-rolled random scenario builders, so each test compares two
separately derived answers.
Nothing in the package calls this module.
"""

import itertools
from collections import namedtuple

import numpy as np

from ris_skg import bsum
from ris_skg import channel_model as cm
from ris_skg import kgr_core as kc
from ris_skg import mirror_prox as mp
from ris_skg import problem_lift as pl

# ---------------------------------------------------------------------------
# the real lift: C^n as R^2n, stacked [Re; Im]


def lift_hermitian(a):
    """Real symmetric lift [[Re A, -Im A], [Im A, Re A]] of Hermitian A,
    satisfying x^H A x = lift_vector(x)' lift_hermitian(A) lift_vector(x)."""
    a = np.asarray(a)
    re, im = np.real(a), np.imag(a)
    return np.block([[re, -im], [im, re]])


def lift_vector(x):
    """Stacked [Re x; Im x] along the last axis, so each row of a stack is
    lifted on its own."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([np.real(x), np.imag(x)], axis=-1)


def complex_normal(rng, *shape):
    """Complex array whose [Re; Im] lift along the last axis is a
    standard-normal draw of twice that length."""
    *lead, n = shape
    x = rng.standard_normal((*lead, 2 * n))
    return x[..., :n] + 1j * x[..., n:]


def random_point(rng, sp, scale=1.0):
    """A point in the space of ``sp`` (before projection): a complex
    normal draw for the discs, a real one for the ball problems of
    ``random_saddle``, whose coefficients are real."""
    if sp.domain == "discs":
        return scale * complex_normal(rng, sp.dim)
    return scale * rng.standard_normal(sp.dim)


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
        val, x_star = weighted_inner_min(sp, y)
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


def weighted_inner_min(sp, y):
    """Exact inner minimum over the x-domain of y' phi(x) and its argmin.

    The weighted objective has isotropic curvature, so the constrained
    minimizer is the Euclidean projection of the unconstrained one; with
    zero curvature it is the support point of the negated gradient.
    """
    y = mp.project_simplex(y)
    t = float(sp.quad @ y)
    lin = sp.lin.T @ y
    if t > 0:
        x_star = mp.project_domain(sp, -lin / (2.0 * t))
    elif sp.domain == "discs":
        mag = np.abs(lin)
        x_star = np.where(mag > 0, -lin / np.where(mag > 0, mag, 1.0), 0.0)
    else:
        nrm = np.linalg.norm(lin)
        x_star = (-lin / nrm * np.sqrt(sp.power) if nrm > 0
                  else np.zeros_like(lin))
    val = (t * np.vdot(x_star, x_star).real + np.vdot(lin, x_star).real
           + float(sp.const @ y))
    return float(val), x_star


def grid_search_phases(prob, w, n_grid=32):
    """Exhaustive unit-modulus phase search for very small surfaces.

    The objective is invariant to a common phase, so the first element is
    pinned to phase zero and the remaining N-1 phases are swept on a
    uniform grid.  Only practical for N <= 3.
    """
    n = prob.n_ris
    if n > 3:
        raise ValueError("phase grid search is only supported for N <= 3")
    grid = 2.0 * np.pi * np.arange(n_grid) / n_grid
    best_val, best_v = -np.inf, None
    for row in itertools.product(grid, repeat=n - 1):
        v = np.exp(1j * np.array([0.0, *row]))
        val = pl.min_objective(prob, v, w)
        if val > best_val:
            best_val, best_v = val, v
    return best_v, best_val


def projected_subgradient(prob, v0, w0, step_scale=0.5, iters=500):
    """Joint normalized subgradient ascent on the worst-case gain.

    Follows the gradient of the currently-worst eavesdropper (smallest
    index on ties) with a step_scale/sqrt(t) step, projecting both blocks
    after each move; returns the best visited point since the iteration is
    not monotone.  An independent check for any solver of the design
    problem.
    """
    v = pl.project_discs(np.asarray(v0, dtype=complex))
    w = pl.project_ball(np.asarray(w0, dtype=complex), prob.power_alice)
    best = (v.copy(), w.copy())
    best_val = pl.min_objective(prob, v, w)
    trace = [best_val]
    for t in range(1, iters + 1):
        terms = pl.objective_terms(prob, v, w)
        k = int(np.argmin(terms.f))
        g_v = pl.grad_v(prob, v, w, terms=terms)[k]
        g_w = pl.grad_w(prob, v, w, terms=terms)[k]
        norm = np.linalg.norm(np.concatenate([g_v, g_w]))
        if norm == 0:
            break
        step = step_scale / np.sqrt(t) / norm
        v = pl.project_discs(v + step * g_v)
        w = pl.project_ball(w + step * g_w, prob.power_alice)
        val = pl.min_objective(prob, v, w)
        trace.append(val)
        if val > best_val:
            best_val = val
            best = (v.copy(), w.copy())
    return best[0], best[1], best_val, np.asarray(trace)


# ---------------------------------------------------------------------------
# key-rate references: covariance entries, determinants, expanded form

# entries of the per-eavesdropper 3x3 observation covariance
CovarianceBlocks = namedtuple(
    "CovarianceBlocks", "aa bb ab ee be ae noise_power combiner_sq")


def covariance_blocks(corr, w, v):
    g = kc.effective_gains(corr, w, v)
    wsq = float(np.real(np.vdot(w, w)))
    pb, sig2 = corr.power_bob, corr.noise_power
    return CovarianceBlocks(
        aa=pb * g.legit + wsq * sig2, bb=g.legit + sig2,
        ab=np.sqrt(pb) * g.legit, ee=g.eve + sig2, be=g.cross.copy(),
        ae=np.sqrt(pb) * g.cross, noise_power=sig2, combiner_sq=wsq)


def empirical_covariance_blocks(alice, bob, eve, noise_power, combiner_sq):
    """Sample covariance entries from simulated probing sequences.

    ``alice`` and ``bob`` are (rounds,) complex arrays, ``eve`` is
    (rounds, K).  E{x conj(y)} averages, no mean subtraction (the
    observations are zero-mean by construction).
    """
    alice, bob = np.asarray(alice), np.asarray(bob)
    eve = np.atleast_2d(np.asarray(eve))
    n = alice.shape[0]
    return CovarianceBlocks(
        aa=float(np.real(np.vdot(alice, alice)) / n),
        bb=float(np.real(np.vdot(bob, bob)) / n),
        ab=complex(alice @ np.conj(bob) / n),
        ee=np.real(np.einsum("nk,nk->k", eve, np.conj(eve))) / n,
        be=np.einsum("n,nk->k", bob, np.conj(eve)) / n,
        ae=np.einsum("n,nk->k", alice, np.conj(eve)) / n,
        noise_power=noise_power, combiner_sq=combiner_sq)


def kgr_closed_form(gains, power_bob, combiner_sq, noise_power):
    """Key rate as an explicit scalar expression in the effective gains."""
    gu = gains.legit
    ge = np.asarray(gains.eve, dtype=float)
    a2 = np.abs(np.asarray(gains.cross)) ** 2
    pb, wsq, sig2 = power_bob, combiner_sq, noise_power
    d = ge + sig2
    num = (((pb * gu + wsq * sig2) * d - pb * a2)
           * ((gu + sig2) * d - a2))
    den = sig2 * d * ((wsq + pb) * (gu * d - a2) + wsq * sig2 * d)
    return np.log2(num / den)


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
    """Central finite-difference gradient of a scalar function.  For a
    complex x it is the gradient under Re(x^H y): the real and imaginary
    parts are stepped one at a time and their slopes recombined."""
    if np.iscomplexobj(x):
        n = np.shape(x)[0]
        g = fd_grad(lambda z: fun(z[:n] + 1j * z[n:]), lift_vector(x), eps)
        return g[:n] + 1j * g[n:]
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# full channel draws


# one small-scale fading draw: g_ar (M, N) Alice->surface two-hop factor,
# h_rb (N,) surface->Bob, h_ab (M,) Alice->Bob, h_re (K, N) surface->Eve,
# h_ae (K, M) Alice->Eve
ChannelRealization = namedtuple("ChannelRealization",
                                "g_ar h_rb h_ab h_re h_ae")


def sample_channels(corr, rng):
    """Draw one ChannelRealization consistent with the correlation set.

    Eve's normalized channels are generated from Bob's so that
    E{conj(h~_re,k) h~_rb^T} = rho_k I and E{h~_ab conj(h~_ae,k)^T} = rho_k I.
    """
    m, n, k = corr.n_bs, corr.n_ris, corr.n_eve

    h_mat = cm._cn(rng, m, n)
    g_ar = np.sqrt(corr.beta_ar) * corr.bs_corr_sqrt @ h_mat @ corr.ris_corr_sqrt

    tilde_rb = cm._cn(rng, n)
    tilde_ab = cm._cn(rng, m)
    h_rb = np.sqrt(corr.beta_rb) * corr.ris_corr_sqrt @ tilde_rb
    h_ab = np.sqrt(corr.beta_ab) * corr.bs_corr_sqrt @ tilde_ab

    rho = corr.rho_eve[:, None]
    mix = np.sqrt(np.clip(1.0 - rho ** 2, 0.0, None))
    tilde_re = np.conj(rho * np.conj(tilde_rb)[None, :]
                       + mix * cm._cn(rng, k, n))
    tilde_ae = rho * tilde_ab[None, :] + mix * cm._cn(rng, k, m)
    h_re = np.sqrt(corr.beta_re)[:, None] * tilde_re @ corr.ris_corr_sqrt
    h_ae = np.sqrt(corr.beta_ae)[:, None] * tilde_ae @ corr.bs_corr_sqrt
    return ChannelRealization(g_ar, h_rb, h_ab, h_re, h_ae)


# ---------------------------------------------------------------------------
# closed forms of the correlation-only design


def _factor_lower(n, rho):
    """Rayleigh-quotient lower bound on the top eigenvalue of one
    exponential-correlation factor (the all-ones direction)."""
    if rho == 0.0:
        return 1.0
    return (n * (1.0 - rho ** 2) - 2.0 * rho * (1.0 - rho ** n)) \
        / (n * (1.0 - rho) ** 2)


def _factor_upper(n, rho):
    """Row-sum (Gershgorin) upper bound on the same top eigenvalue."""
    if rho == 0.0:
        return 1.0
    return (1.0 + rho) * (1.0 - rho ** n) / (1.0 - rho)


def bs_gain_bounds(shape, rho, power):
    """Closed-form bracket (lower, upper) for the full-power combiner gain
    power * lam_max of the planar-array correlation.

    Both bounds factor over the horizontal/vertical dimensions and are
    exact at rho = 0; at rho = 1 the correlation is all-ones and both
    collapse to the exact value power * M.
    """
    n_h, n_v = int(shape[0]), int(shape[1])
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rho == 1.0:
        exact = power * n_h * n_v
        return exact, exact
    lower = power * _factor_lower(n_h, rho) * _factor_lower(n_v, rho)
    upper = power * _factor_upper(n_h, rho) * _factor_upper(n_v, rho)
    return lower, upper


def bs_gain_asymptote(rho, power):
    """Large-array limit of the combiner gain, power ((1+rho)/(1-rho))^2."""
    return power * ((1.0 + rho) / (1.0 - rho)) ** 2


def eigen_bs_gain(shape, rho, power):
    """Exact combiner gain power * lam_max via the Kronecker factors."""
    lam_h = np.linalg.eigvalsh(cm.exp_corr_matrix(int(shape[0]), rho))[-1]
    lam_v = np.linalg.eigvalsh(cm.exp_corr_matrix(int(shape[1]), rho))[-1]
    return power * lam_h * lam_v


def _stat_design_scalars(corr):
    x = corr.power_alice * float(np.linalg.eigvalsh(corr.bs_corr)[-1])
    q = float(np.sum(corr.ris_corr ** 2))   # ||R||_F^2 = all-ones form of RoR
    return x, q


def legit_channel_gain(corr):
    """Legitimate effective gain achieved by the correlation-only design."""
    x, q = _stat_design_scalars(corr)
    return x * (corr.beta_cascade * q + corr.beta_ab)


def worst_case_leakage(corr):
    """Per-eavesdropper leakage term of the correlation-only design,
    |cross gain|^2 / (eve gain + noise), as an explicit expression."""
    x, q = _stat_design_scalars(corr)
    num = (corr.rho_eve ** 2) * x ** 2 * (
        q * np.sqrt(corr.beta_cascade * corr.beta_cascade_eve)
        + np.sqrt(corr.beta_ab * corr.beta_ae)) ** 2
    den = x * (corr.beta_cascade_eve * q + corr.beta_ae) + corr.noise_power
    return num / den


def statistical_design_rate(corr):
    """Per-eavesdropper key rates of the correlation-only design from the
    closed forms alone (no sampling, no solver)."""
    f = legit_channel_gain(corr) - worst_case_leakage(corr)
    return kc.kgr_from_summary(f, corr.power_bob, corr.power_alice,
                               corr.noise_power)


# ---------------------------------------------------------------------------
# dense per-eavesdropper lift


def _top_eigs(mats):
    """Per-matrix (signed max eigenvalue, max squared eigenvalue)."""
    vals = np.linalg.eigvalsh(mats)
    return vals[..., -1], np.max(vals ** 2, axis=-1)


def dense_reference(corr, v, w):
    """Gains, block gradients and curvature bounds at the complex design
    (v, w) from dense per-eavesdropper matrices, each lifted on its own to
    the stacked [Re; Im] layout, with spectra from eigvalsh.

    The cross matrices rho_k (R_ris o R_ris) and rho_k R_bs are Hermitian,
    so the skew parts of a general cross model vanish and are left out.
    Returns a dict with ``f`` (K,), the stacked gradients ``grad_v``
    (K, 2N) and ``grad_w`` (K, 2M), ``curvature_v`` and ``curvature_w``
    (K,).
    """
    vt = lift_vector(v)
    wt = lift_vector(w)
    n, k = corr.n_ris, corr.n_eve
    eye = np.eye(n)
    lift = lift_hermitian
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
# gains as functions of the three design forms


def _surface_terms(prob, h, s):
    """(q_u, r_k, u_k) of the gains, from the LiftedProblem coefficients."""
    return (prob.legit_had * h + prob.legit_eye * s,
            prob.eve_had * h + prob.eve_eye * s,
            prob.cross_had * h + prob.cross_direct)


def gains_from_forms(prob, m, h, s):
    """Per-eavesdropper gains f_k, shape (K,), as functions of the three
    forms m = Re(w^H R_bs w), h = Re(v^H H v) and s = ||v||^2 alone:
    f_k = m q_u - (m u_k)^2 / (m r_k + sigma^2)."""
    q_u, r_k, u_k = _surface_terms(prob, h, s)
    return m * q_u - (m * u_k) ** 2 / (m * r_k + prob.noise_power)


def form_partials(prob, m, h, s):
    """(df/dm, df/dh, df/ds), each (K,), in the certificate's form with
    t = m u_k / d_k; each is returned with the sum of the magnitudes of
    its terms, the scale its rounding error is relative to."""
    q_u, r_k, u_k = _surface_terms(prob, h, s)
    t = m * u_k / (m * r_k + prob.noise_power)
    d_m = (q_u - 2.0 * u_k * t + r_k * t ** 2,
           q_u + 2.0 * np.abs(u_k * t) + r_k * t ** 2)
    d_h = (m * (prob.legit_had - 2.0 * prob.cross_had * t
                + prob.eve_had * t ** 2),
           m * (prob.legit_had + 2.0 * np.abs(prob.cross_had * t)
                + prob.eve_had * t ** 2))
    d_s = (m * (prob.legit_eye + prob.eve_eye * t ** 2),) * 2
    return d_m, d_h, d_s


def random_feasible_point(rng, prob, unit_modulus=False, full_power=False):
    """(v, w) with phases uniform, magnitudes uniform in [0, 1] (or 1), and
    an isotropic combiner of radius up to (or at) full power."""
    n, mb = prob.n_ris, prob.n_bs
    mag = 1.0 if unit_modulus else rng.uniform(size=n)
    v = mag * np.exp(2j * np.pi * rng.uniform(size=n))
    w = complex_normal(rng, mb)
    radius = 1.0 if full_power else rng.uniform()
    return v, w / np.linalg.norm(w) * np.sqrt(prob.power_alice) * radius


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
    """Random small saddle problem: up to ``max_pairs`` complex discs, or a
    ball of up to 2 ``max_pairs`` real dimensions (real coefficients, so its
    saddle point is real)."""
    k = int(rng.integers(1, max_funcs + 1))
    if rng.uniform() < 0.5:
        domain, dim, power = "discs", int(rng.integers(1, max_pairs + 1)), 1.0
    else:
        domain, dim, power = "ball", int(rng.integers(1, 2 * max_pairs + 1)), \
            float(rng.uniform(0.5, 4.0))
    quad = rng.uniform(0.0, 3.0, k)
    lin = (complex_normal(rng, k, dim) if domain == "discs"
           else rng.standard_normal((k, dim)))
    return mp.SaddleProblem(
        quad=quad,
        lin=lin,
        const=rng.uniform(-1.0, 1.0, k),
        domain=domain,
        power=power,
    )
