"""Alternating block maximization of the worst-case effective gain.

Each outer iteration replaces every per-eavesdropper gain f_k by a
quadratic minorant that is tangent at the current point - the curvature
constant is a closed-form upper bound on the block Hessian over the
feasible set - and solves the resulting max-min subproblem exactly-enough
with the mirror-prox inner solver, first in the reflection block, then in
the combiner block.  Because the surrogates are tangent minorants and the
inner solver never returns a point worse than its warm start, the true
worst-case gain is non-decreasing across iterations; a guard re-checks
that on the actual objective and keeps the previous block value if
floating-point noise ever breaks the chain.

This is the paper's design method, kept as a tested reference.  Under the
scalar Eve cross model ``statistical_design`` is its exact optimum in
closed form (the proof is in that docstring), so no experiment runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problem_lift as pl
from .mirror_prox import from_minorants, mirror_prox_solve

CURVATURE_FLOOR = 1e-12


def curvature_v(prob, w):
    """Per-eavesdropper curvature bounds for the reflection block.

    Polynomial in the combiner form m = Re(w^H R_bs w) and the spectra of
    the surface-side matrices, which are closed-form in lam_max(H) since
    every one is a non-negative combination of H and the identity; floored
    at a tiny positive value so the surrogates stay strongly concave even
    when every cross term vanishes.
    """
    n = float(prob.n_ris)
    sig2 = prob.noise_power
    m_w = float(pl.real_inner(w, prob.r_s @ w))
    lam_r_e = prob.eve_had * prob.lam_had + prob.eve_eye
    lam_qhat = m_w * prob.cross_had * prob.lam_had
    top_q = prob.cross_direct * m_w + n * lam_qhat

    bound = (n / sig2) * (
        4.0 * top_q ** 2 / sig2 ** 2 * m_w ** 2 * n * lam_r_e ** 2
        + 4.0 * n * lam_qhat ** 2     # 2n lam_max(Qh (Qh + Qh'))
        + top_q * 2.0 * lam_qhat
    )
    return np.maximum(bound, CURVATURE_FLOOR)


def curvature_w(prob, v):
    """Per-eavesdropper curvature bounds for the combiner block.

    Built from the spectrum of the aggregated matrix
    Qbar_k = (c_k h + e_k) R_bs, a non-negative multiple of R_bs that
    depends on the current reflection vector through h = Re(v^H H v); same
    floor as the other block.
    """
    pa = prob.power_alice
    sig2 = prob.noise_power
    h = float(pl.real_inner(v, prob.had @ v))
    r_v = prob.eve_had * h + prob.eve_eye * float(pl.real_inner(v, v))
    lam_qbar = (prob.cross_had * h + prob.cross_direct) * prob.lam_r_s

    bound = (2.0 * pa / sig2) * (
        10.0 * lam_qbar ** 2          # 2 lam_max(4 Qbar^2) + 2 lam_max(Qbar)^2
        + r_v ** 2 * (4.0 * pa ** 3 / sig2 ** 2) * prob.lam_r_s ** 2
        * lam_qbar ** 2
    )
    return np.maximum(bound, CURVATURE_FLOOR)


def build_surrogate(prob, v, w, block):
    """Saddle problem of the minorants tangent at (v, w) in one block:
    "v" over the reflection discs, "w" over the combiner's power ball."""
    t = pl.objective_terms(prob, v, w)
    if block == "v":
        return from_minorants(curvature_v(prob, w),
                              pl.grad_v(prob, v, w, terms=t), t.f, v, "discs")
    return from_minorants(curvature_w(prob, v),
                          pl.grad_w(prob, v, w, terms=t), t.f, w, "ball",
                          power=prob.power_alice)


def statistical_design(corr):
    """Correlation-only design: combiner along the top base-station
    eigenvector at full power, all reflection phases aligned at zero.

    It is the exact maximizer of every per-eavesdropper gain f_k at once,
    over the relaxed set (discs x ball) and hence over unit-modulus
    phases, so it is also the exact max-min optimum that ``bsum_solve``
    approaches.  Proof, in the notation of ``problem_lift``: f_k depends
    on the design only through m = Re(w^H R_bs w), h = Re(v^H H v) and
    s = ||v||^2.
    With u_k = c_k h + e_k, d_k = m r_k + sigma^2 and t = m u_k / d_k,

    * df/ds = (m / N)(beta_ab + beta_ae,k t^2) >= 0;
    * df/dh = m (beta_c - 2 c_k t + beta_ce,k t^2) >= 0, a quadratic in t
      with discriminant 4 beta_c beta_ce,k (rho_k^2 - 1) <= 0;
    * at s = N, df/dm = q_u - 2 u_k t + r_k t^2 >= 0, since
      Cauchy-Schwarz gives u_k^2 <= rho_k^2 q_u r_k <= q_u r_k there.

    R_bs and R_ris are real (``CorrelationSet`` rejects complex ones), so
    R_ris o R_ris is entrywise non-negative and every disc point has
    h <= 1'(R_ris o R_ris) 1 = h* and s <= N; v = 1 reaches both.  The top
    eigenvector at full power reaches the largest m = P lam_max(R_bs) = m*.
    Hence f_k(m, h, s) <= f_k(m, h*, N) <= f_k(m*, h*, N) for every k.
    For a fixed combiner (the ``iid_bs`` baseline) the first step alone
    makes v = 1 optimal.
    """
    _, vecs = corr.bs_eigh
    w = np.sqrt(corr.power_alice) * vecs[:, -1].astype(complex)
    v = np.ones(corr.n_ris, dtype=complex)
    return w, v


@dataclass
class BsumResult:
    v: np.ndarray
    w: np.ndarray
    objective: float
    trace: np.ndarray            # worst-case gain after each outer iteration
    iterations: int
    converged: bool
    inner_iterations: int = 0
    rejected_steps: int = 0


def bsum_solve(prob, v0, w0, blocks="vw", tol=1e-4, max_iters=200,
               inner_tol=1e-6, inner_max_iters=2000):
    """Alternating surrogate maximization from a feasible start.

    Each outer iteration runs one block step per letter of ``blocks``
    ("vw", "v" or "w"), in order; a step keeps its inner solution only if
    the worst-case gain does not drop.  Stops when one outer iteration
    improves the worst-case gain by at most ``tol``.
    """
    if blocks not in ("vw", "v", "w"):
        raise ValueError(f"blocks must be 'vw', 'v' or 'w', got {blocks!r}")
    v = pl.project_discs(np.asarray(v0, dtype=complex))
    w = pl.project_ball(np.asarray(w0, dtype=complex), prob.power_alice)

    current = pl.min_objective(prob, v, w)
    trace = [current]
    inner_total = 0
    rejected = 0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        for block in blocks:
            sp = build_surrogate(prob, v, w, block)
            res = mirror_prox_solve(sp, v if block == "v" else w,
                                    tol=inner_tol, max_iters=inner_max_iters)
            inner_total += res.iterations
            cand_v, cand_w = (res.x, w) if block == "v" else (v, res.x)
            cand = pl.min_objective(prob, cand_v, cand_w)
            if cand >= current:
                v, w, current = cand_v, cand_w, cand
            else:
                rejected += 1
        trace.append(current)
        if trace[-1] - trace[-2] <= tol:
            converged = True
            break

    return BsumResult(
        v=v,
        w=w,
        objective=current,
        trace=np.asarray(trace),
        iterations=it,
        converged=converged,
        inner_iterations=inner_total,
        rejected_steps=rejected,
    )


def optimize_design(corr, tol=1e-4, max_iters=200, inner_tol=1e-6,
                    inner_max_iters=2000):
    """Optimize the design for a correlation set from the correlation-only
    design and return (w, v, result); ``bsum_solve`` takes other starts.

    The complex (w, v) pass to the solver and back as they are: R_bs is
    real (``CorrelationSet`` rejects complex correlations), so the
    solver's m = Re(w^H R_bs w) is the key rate's w^T R_bs w*.
    """
    prob = pl.build_lifted(corr)
    w0, v0 = statistical_design(corr)
    res = bsum_solve(prob, v0, w0, tol=tol, max_iters=max_iters,
                     inner_tol=inner_tol, inner_max_iters=inner_max_iters)
    return res.w, res.v, res
