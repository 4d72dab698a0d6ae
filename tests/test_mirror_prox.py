"""Extragradient saddle solver: geometry, step constants, optimality."""

import numpy as np
import pytest
from scipy.special import rel_entr

from ris_skg import mirror_prox as mp

import oracles


# ---------------------------------------------------------------------------
# problem container and geometry


def test_saddle_problem_validation():
    with pytest.raises(ValueError):
        mp.SaddleProblem(np.array([-0.1]), np.zeros((1, 2)), np.zeros(1),
                         "discs")
    with pytest.raises(ValueError):
        mp.SaddleProblem(np.array([0.1]), np.zeros((1, 2)), np.zeros(1),
                         "cube")
    sp = mp.SaddleProblem(np.array([0.5]), np.zeros((1, 3), complex),
                          np.zeros(1), "discs")
    assert sp.radius == pytest.approx(np.sqrt(3.0))
    sp = mp.SaddleProblem(np.array([0.5]), np.zeros((1, 6)), np.zeros(1),
                          "ball", power=2.25)
    assert sp.radius == pytest.approx(1.5)


def test_from_minorants_tangency_and_gradient():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, d = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        curv = rng.uniform(0.0, 2.0, k)
        grads = oracles.complex_normal(rng, k, d)
        values = rng.standard_normal(k)
        x0 = oracles.complex_normal(rng, d)
        sp = mp.from_minorants(curv, grads, values, x0, "ball", power=4.0)
        # touches the modelled values at the expansion point
        assert np.allclose(mp.minorant_values(sp, x0), values)
        # with the modelled slope: d/dx of -phi at x0
        slope = -(2.0 * sp.quad[:, None] * x0[None, :] + sp.lin)
        assert np.allclose(slope, grads)
        # curvature pulls the surrogate down away from the expansion point
        x1 = x0 + oracles.complex_normal(rng, d)
        linear_model = values + (np.conj(grads) @ (x1 - x0)).real
        drop = linear_model - mp.minorant_values(sp, x1)
        assert np.allclose(drop, 0.5 * curv * np.sum(np.abs(x1 - x0) ** 2))


def test_project_simplex():
    y = mp.project_simplex(np.array([3.0, 1.0]))
    assert np.allclose(y, [0.75, 0.25])
    y = mp.project_simplex(np.array([0.0, 0.0]))
    assert np.isclose(y.sum(), 1.0)
    assert np.all(y >= 0)


def test_operator_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sp = oracles.random_saddle(rng)
        x = oracles.random_point(rng, sp)
        y = rng.dirichlet(np.ones(sp.n_funcs))
        gx, gy = mp.operator(sp, x, y)
        fd = oracles.fd_grad(lambda z: float(y @ mp.phi_values(sp, z)), x)
        assert np.allclose(gx, fd, atol=1e-5)
        assert np.allclose(gy, -mp.phi_values(sp, x))


def test_step_constant_bounds_operator_differences():
    rng = np.random.default_rng(2)
    for _ in range(30):
        sp = oracles.random_saddle(rng)
        if sp.n_funcs < 2:
            continue
        lim = mp.lipschitz_bound(sp)
        for _ in range(40):
            x1 = mp.project_domain(sp, oracles.random_point(rng, sp, 2))
            x2 = mp.project_domain(sp, oracles.random_point(rng, sp, 2))
            y1 = rng.dirichlet(np.ones(sp.n_funcs))
            y2 = rng.dirichlet(np.ones(sp.n_funcs))
            gx11, gy11 = mp.operator(sp, x1, y1)
            gx21, gy21 = mp.operator(sp, x2, y1)
            gx12, gy12 = mp.operator(sp, x1, y2)
            dx = np.linalg.norm(x1 - x2)
            dy = np.sum(np.abs(y1 - y2))
            slack = 1e-12 * max(lim, 1.0)
            assert np.linalg.norm(gx11 - gx21) <= lim * dx + slack
            assert np.max(np.abs(gy11 - gy21)) <= lim * dx + slack
            assert np.linalg.norm(gx11 - gx12) <= lim * dy + slack
            assert np.max(np.abs(gy11 - gy12)) <= slack  # independent of y


def test_bregman_distance_properties():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x1, x2 = oracles.complex_normal(rng, d), oracles.complex_normal(rng, d)
        y1 = rng.dirichlet(np.ones(k))
        y2 = rng.dirichlet(np.ones(k))
        dist = mp.bregman(x1, y1, x2, y2)
        expected = (0.5 * np.sum(np.abs(x1 - x2) ** 2)
                    + np.sum(rel_entr(y1, y2)))
        assert dist == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert dist >= -1e-15
    assert mp.bregman(x1, y1, x1, y1) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# inner exact minimization


def test_weighted_inner_min_is_unbeatable():
    rng = np.random.default_rng(4)
    for _ in range(30):
        sp = oracles.random_saddle(rng)
        y = rng.dirichlet(np.ones(sp.n_funcs))
        val, x_star = oracles.weighted_inner_min(sp, y)
        assert np.allclose(mp.project_domain(sp, x_star), x_star, atol=1e-12)
        assert val == pytest.approx(float(y @ mp.phi_values(sp, x_star)))
        for _ in range(200):
            cand = mp.project_domain(sp, oracles.random_point(rng, sp, 3))
            assert float(y @ mp.phi_values(sp, cand)) >= val - 1e-9


def test_weighted_inner_min_zero_curvature_support_point():
    lin = np.array([[3.0, -4.0]])
    sp = mp.SaddleProblem(np.zeros(1), lin, np.zeros(1), "ball", power=4.0)
    val, x_star = oracles.weighted_inner_min(sp, np.ones(1))
    assert np.allclose(x_star, -lin[0] / 5.0 * 2.0)
    assert val == pytest.approx(-10.0)


# ---------------------------------------------------------------------------
# solver behaviour


def test_solver_matches_exact_answer_single_function():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        sp = oracles.random_saddle(rng, max_funcs=1)
        exact_val, _ = oracles.weighted_inner_min(sp, np.ones(1))
        x0 = mp.project_domain(sp, oracles.random_point(rng, sp))
        res = mp.mirror_prox_solve(sp, x0, tol=1e-12, max_iters=20000)
        worst = max(worst, abs(res.value - (-exact_val))
                    / max(abs(exact_val), 1.0))
    assert worst <= 1e-6


def test_solver_reaches_bracketed_optimum():
    rng = np.random.default_rng(6)
    for _ in range(8):
        sp = oracles.random_saddle(rng, max_funcs=3, max_pairs=3)
        x0 = mp.project_domain(sp, oracles.random_point(rng, sp))
        res = mp.mirror_prox_solve(sp, x0, tol=1e-12, max_iters=50000)
        lo, hi = oracles.certified_max_min(sp, [res.x])
        assert hi - lo <= 1e-5  # the bracket itself is tight
        assert res.value <= hi + 1e-9
        assert res.value >= hi - 1e-4


def test_solver_never_degrades_warm_start():
    rng = np.random.default_rng(7)
    for budget in (1, 3, 10, 200):
        for _ in range(10):
            sp = oracles.random_saddle(rng)
            x0 = mp.project_domain(sp, oracles.random_point(rng, sp, 2))
            res = mp.mirror_prox_solve(sp, x0, tol=1e-9, max_iters=budget)
            assert res.value >= mp.min_minorant(sp, x0) - 1e-12
            assert res.iterations <= budget


def test_solver_result_fields():
    rng = np.random.default_rng(8)
    sp = oracles.random_saddle(rng, max_funcs=2)
    x0 = mp.project_domain(sp, oracles.random_point(rng, sp))
    res = mp.mirror_prox_solve(sp, x0, tol=1e-10, max_iters=5000)
    assert res.converged
    assert np.isclose(res.y.sum(), 1.0)
    assert res.value == pytest.approx(mp.min_minorant(sp, res.x))
    assert np.allclose(mp.project_domain(sp, res.x), res.x, atol=1e-12)


def test_solver_raises_on_growing_steps(monkeypatch):
    rng = np.random.default_rng(9)
    sp = oracles.random_saddle(rng, max_funcs=2)
    calls = [0]

    def inflating_distance(x_new, y_new, x_old, y_old):
        calls[0] += 1
        return 1e-6 * 1.5 ** calls[0]

    monkeypatch.setattr(mp, "bregman", inflating_distance)
    with pytest.raises(mp.DivergenceError):
        mp.mirror_prox_solve(sp, np.zeros(sp.dim), tol=0.0, max_iters=5000)
