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


def curvature_v(prob, wt):
    """Per-eavesdropper curvature bounds for the reflection block.

    Polynomial in the combiner form m = wt'Rs wt and the spectra of the
    surface-side matrices, which are closed-form in lam_max(H) since every
    one is a non-negative combination of H and the identity; floored at a
    tiny positive value so the surrogates stay strongly concave even when
    every cross term vanishes.
    """
    wt = np.asarray(wt, dtype=float)
    n = float(prob.n_ris)
    sig2 = prob.noise_power
    m_w = float(wt @ prob.r_s @ wt)
    lam_r_e = prob.eve_had * prob.lam_had + prob.eve_eye
    lam_qhat = m_w * prob.cross_had * prob.lam_had
    top_q = prob.cross_direct * m_w + n * lam_qhat

    bound = (n / sig2) * (
        4.0 * top_q ** 2 / sig2 ** 2 * m_w ** 2 * n * lam_r_e ** 2
        + 4.0 * n * lam_qhat ** 2     # 2n lam_max(Qh (Qh + Qh'))
        + top_q * 2.0 * lam_qhat
    )
    return np.maximum(bound, CURVATURE_FLOOR)


def curvature_w(prob, vt):
    """Per-eavesdropper curvature bounds for the combiner block.

    Built from the spectrum of the aggregated matrix
    Qbar_k = (c_k h + e_k) Rs, a non-negative multiple of Rs that depends
    on the current reflection vector through h = vt'H vt; same floor as
    the other block.
    """
    vt = np.asarray(vt, dtype=float)
    pa = prob.power_alice
    sig2 = prob.noise_power
    h = float(vt @ prob.had @ vt)
    r_v = prob.eve_had * h + prob.eve_eye * float(vt @ vt)
    lam_qbar = (prob.cross_had * h + prob.cross_direct) * prob.lam_r_s

    bound = (2.0 * pa / sig2) * (
        10.0 * lam_qbar ** 2          # 2 lam_max(4 Qbar^2) + 2 lam_max(Qbar)^2
        + r_v ** 2 * (4.0 * pa ** 3 / sig2 ** 2) * prob.lam_r_s ** 2
        * lam_qbar ** 2
    )
    return np.maximum(bound, CURVATURE_FLOOR)


def build_surrogate_v(prob, vt, wt):
    t = pl.objective_terms(prob, vt, wt)
    return from_minorants(
        curvature=curvature_v(prob, wt),
        grads=pl.grad_v(prob, vt, wt, terms=t),
        values=t.f,
        x0=vt,
        domain="discs",
    )


def build_surrogate_w(prob, vt, wt):
    t = pl.objective_terms(prob, vt, wt)
    return from_minorants(
        curvature=curvature_w(prob, vt),
        grads=pl.grad_w(prob, vt, wt, terms=t),
        values=t.f,
        x0=wt,
        domain="ball",
        power=prob.power_alice,
    )


def statistical_design(corr):
    """Correlation-only design: combiner along the top base-station
    eigenvector at full power, all reflection phases aligned at zero.

    It is the exact maximizer of every per-eavesdropper gain f_k at once,
    over the relaxed set (discs x ball) and hence over unit-modulus
    phases, so it is also the exact max-min optimum that ``bsum_solve``
    approaches.  Proof, in the notation of ``problem_lift``: f_k depends
    on the design only through m = wt'Rs wt, h = vt'H vt and s = vt'vt.
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
    vt: np.ndarray
    wt: np.ndarray
    objective: float
    trace: np.ndarray            # worst-case gain after each outer iteration
    iterations: int
    converged: bool
    inner_iterations: int = 0
    rejected_steps: int = 0
    iterates: list = None       # (block, vt, wt) expansion points if recorded

    @property
    def v(self):
        return pl.unlift_vector(self.vt)

    @property
    def w(self):
        return pl.combiner_from_lifted(self.wt)


def bsum_solve(prob, vt0, wt0, blocks="vw", tol=1e-4, max_iters=200,
               inner_tol=1e-6, inner_max_iters=2000, keep_iterates=False):
    """Alternating surrogate maximization from a feasible start.

    ``blocks`` selects which variables move: "vw" (reflection then
    combiner each outer iteration), "v", or "w".  Stops when one outer
    iteration improves the worst-case gain by at most ``tol``.
    ``keep_iterates`` records every surrogate expansion point as
    (block, vt, wt) tuples for diagnostics.
    """
    if blocks not in ("vw", "v", "w"):
        raise ValueError(f"blocks must be 'vw', 'v' or 'w', got {blocks!r}")
    vt = pl.project_discs(np.asarray(vt0, dtype=float))
    wt = pl.project_ball(np.asarray(wt0, dtype=float), prob.power_alice)

    current = pl.min_objective(prob, vt, wt)
    trace = [current]
    iterates = [] if keep_iterates else None
    inner_total = 0
    rejected = 0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if "v" in blocks:
            if keep_iterates:
                iterates.append(("v", vt.copy(), wt.copy()))
            sp = build_surrogate_v(prob, vt, wt)
            res = mirror_prox_solve(sp, vt, tol=inner_tol,
                                    max_iters=inner_max_iters)
            inner_total += res.iterations
            cand = pl.min_objective(prob, res.x, wt)
            if cand >= current:
                vt, current = res.x, cand
            else:
                rejected += 1
        if "w" in blocks:
            if keep_iterates:
                iterates.append(("w", vt.copy(), wt.copy()))
            sp = build_surrogate_w(prob, vt, wt)
            res = mirror_prox_solve(sp, wt, tol=inner_tol,
                                    max_iters=inner_max_iters)
            inner_total += res.iterations
            cand = pl.min_objective(prob, vt, res.x)
            if cand >= current:
                wt, current = res.x, cand
            else:
                rejected += 1
        trace.append(current)
        if trace[-1] - trace[-2] <= tol:
            converged = True
            break

    return BsumResult(
        vt=vt,
        wt=wt,
        objective=current,
        trace=np.asarray(trace),
        iterations=it,
        converged=converged,
        inner_iterations=inner_total,
        rejected_steps=rejected,
        iterates=iterates,
    )


def optimize_design(corr, tol=1e-4, max_iters=200, inner_tol=1e-6,
                    inner_max_iters=2000, init=None):
    """Optimize the design for a correlation set and return (w, v, result).

    ``init`` may supply a complex (w, v) warm start; the default is the
    correlation-only design.
    """
    prob = pl.build_lifted(corr)
    w0, v0 = statistical_design(corr) if init is None else init
    res = bsum_solve(prob, pl.lift_vector(v0), pl.lift_combiner(w0), tol=tol,
                     max_iters=max_iters, inner_tol=inner_tol,
                     inner_max_iters=inner_max_iters)
    return res.w, res.v, res
