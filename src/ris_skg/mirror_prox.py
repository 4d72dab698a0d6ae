"""Extragradient (mirror-prox) solver for the per-block max-min step.

Each block update maximizes the worst of K concave quadratic minorants
s_k(x) = -tau_k ||x||^2 + Re(p_k^H x) + q_k over a simple convex set
(per-element discs for the reflection block, a power ball for the combiner
block) in C^D, treated as R^2D under Re(x^H y).  Internally the problem is
negated into min_x max_{y in simplex} y'phi(x) with
phi_k = tau_k ||x||^2 - Re(p_k^H x) - q_k and solved with a mirror-prox
scheme: Euclidean geometry on x, entropy geometry on y, ergodic averaging,
and a Bregman-distance stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem_lift import project_ball, project_discs, real_inner

_ENTROPY_FLOOR = 1e-300
_DIVERGENCE_LOOKBACK = 100


class DivergenceError(RuntimeError):
    """Raised when the extragradient iteration grows instead of settling."""


@dataclass
class SaddleProblem:
    """min over the x-domain, max over the K-simplex of y' phi(x) with
    phi_k(x) = quad_k ||x||^2 + Re(lin_k^H x) + const_k (quad_k >= 0)."""

    quad: np.ndarray    # (K,)
    lin: np.ndarray     # (K, D) complex
    const: np.ndarray   # (K,)
    domain: str         # "discs" or "ball"
    power: float = 1.0  # ball radius squared (ignored for discs)

    def __post_init__(self):
        self.quad = np.atleast_1d(np.asarray(self.quad, dtype=float))
        self.lin = np.atleast_2d(np.asarray(self.lin, dtype=complex))
        self.const = np.atleast_1d(np.asarray(self.const, dtype=float))
        if self.domain not in ("discs", "ball"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if np.any(self.quad < 0):
            raise ValueError("quadratic coefficients must be non-negative")

    @property
    def n_funcs(self):
        return self.quad.shape[0]

    @property
    def dim(self):
        return self.lin.shape[1]

    @property
    def radius(self):
        """Largest Euclidean norm attainable in the x-domain."""
        if self.domain == "discs":
            return np.sqrt(self.dim)
        return np.sqrt(self.power)


def from_minorants(curvature, grads, values, x0, domain, power=1.0):
    """Negated saddle problem for the quadratic minorants tangent at x0.

    Each minorant s_k(x) = values_k + Re(grads_k^H (x - x0))
    - curvature_k/2 ||x - x0||^2 agrees with the modelled function and its
    gradient at x0 by construction.
    """
    x0 = np.asarray(x0, dtype=complex)
    curvature = np.atleast_1d(np.asarray(curvature, dtype=float))
    grads = np.atleast_2d(np.asarray(grads, dtype=complex))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    p = grads + curvature[:, None] * x0[None, :]
    q = (values - real_inner(grads, x0)
         - 0.5 * curvature * real_inner(x0, x0))
    return SaddleProblem(
        quad=curvature / 2.0,
        lin=-p,
        const=-q,
        domain=domain,
        power=power,
    )


def phi_values(sp, x):
    return sp.quad * real_inner(x, x) + real_inner(sp.lin, x) + sp.const


def minorant_values(sp, x):
    """Values of the original (un-negated) concave minorants at x."""
    return -phi_values(sp, x)


def min_minorant(sp, x):
    return float(np.min(minorant_values(sp, x)))


def project_domain(sp, x):
    if sp.domain == "discs":
        return project_discs(x)
    return project_ball(x, sp.power)


def project_simplex(y):
    y = np.clip(np.asarray(y, dtype=float), _ENTROPY_FLOOR, None)
    return y / y.sum()


def operator(sp, x, y):
    """Monotone saddle operator (grad_x, -grad_y) of y' phi(x)."""
    gx = 2.0 * float(sp.quad @ y) * x + sp.lin.T @ y
    gy = -phi_values(sp, x)
    return gx, gy


def lipschitz_bound(sp):
    """Step-size constant: 2 max(1, r) ||quad||_2 + max_k ||lin_k||_2 with r
    the domain radius."""
    r = sp.radius
    return (2.0 * max(1.0, r) * np.linalg.norm(sp.quad)
            + np.max(np.linalg.norm(sp.lin, axis=1)))


def bregman(x_new, y_new, x_old, y_old):
    """Joint Bregman distance: squared-Euclidean on x, KL on y."""
    dx = x_new - x_old
    y_new = np.clip(y_new, _ENTROPY_FLOOR, None)
    y_old = np.clip(y_old, _ENTROPY_FLOOR, None)
    kl = float(np.sum(y_new * np.log(y_new / y_old)) - np.sum(y_new - y_old))
    return 0.5 * float(real_inner(dx, dx)) + kl


def _prox_step(sp, x, y, gx, gy, alpha):
    x_new = project_domain(sp, x - alpha * gx)
    logits = np.log(np.clip(y, _ENTROPY_FLOOR, None)) - alpha * gy
    logits -= logits.max()
    return x_new, project_simplex(np.exp(logits))


@dataclass
class MirrorProxResult:
    x: np.ndarray        # best candidate by worst-minorant value
    y: np.ndarray
    iterations: int
    converged: bool
    value: float         # min_k s_k at x


def mirror_prox_solve(sp, x0, tol=1e-6, max_iters=2000):
    """Run mirror-prox from the feasible warm start x0.

    The returned ``x`` is whichever of {ergodic average, last iterate,
    warm start} attains the largest worst-case minorant value, so the block
    objective never degrades below the warm start.  Raises DivergenceError
    when the Bregman step distance grows by 10x over a 100-iteration window
    while staying above an absolute floor.
    """
    start = project_domain(sp, np.asarray(x0, dtype=complex))
    x = start
    y = np.full(sp.n_funcs, 1.0 / sp.n_funcs)
    alpha = 1.0 / (2.0 * lipschitz_bound(sp))

    x_sum = np.zeros_like(x)
    y_sum = np.zeros_like(y)
    steps = np.empty(max_iters)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        gx, gy = operator(sp, x, y)
        x_mid, y_mid = _prox_step(sp, x, y, gx, gy, alpha)
        gx, gy = operator(sp, x_mid, y_mid)
        x_next, y_next = _prox_step(sp, x, y, gx, gy, alpha)

        x_sum += x_mid
        y_sum += y_mid
        dist = bregman(x_next, y_next, x, y)
        steps[it - 1] = dist
        x, y = x_next, y_next
        if dist <= tol:
            converged = True
            break
        if (it > _DIVERGENCE_LOOKBACK
                and dist > 10.0 * steps[it - 1 - _DIVERGENCE_LOOKBACK]
                and dist > max(100.0 * np.finfo(float).eps, 1e-9)):
            raise DivergenceError(
                f"extragradient step distance grew to {dist:.3e} "
                f"after {it} iterations")

    x_avg = project_domain(sp, x_sum / max(it, 1))
    candidates = [x_avg, x, start]
    vals = [min_minorant(sp, c) for c in candidates]
    best = int(np.argmax(vals))
    return MirrorProxResult(
        x=candidates[best].copy(),
        y=project_simplex(y_sum / max(it, 1)),
        iterations=it,
        converged=converged,
        value=vals[best],
    )

