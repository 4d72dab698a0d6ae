"""Reference designs and the method registry."""

import numpy as np
import pytest

from ris_skg import baselines as bl
from ris_skg import problem_lift as pl
from ris_skg.bsum import statistical_design
from ris_skg.kgr_core import min_kgr_bits

import oracles


def test_eigen_combiner_alignment_and_power():
    rng = np.random.default_rng(0)
    corr = oracles.random_corr(rng)
    w, _ = statistical_design(corr)
    assert np.vdot(w, w).real == pytest.approx(corr.power_alice)
    vals, vecs = np.linalg.eigh(corr.bs_corr)
    assert abs(np.vdot(vecs[:, -1], w)) == pytest.approx(np.linalg.norm(w))
    # no feasible combiner harvests more of the array correlation
    quad = np.real(np.conj(w) @ corr.bs_corr @ w)
    for _ in range(50):
        other = oracles.random_combiner(rng, corr, full_power=True)
        assert np.real(np.conj(other) @ corr.bs_corr @ other) <= quad + 1e-9


def test_random_designs_hit_their_constraints():
    rng = np.random.default_rng(1)
    corr = oracles.random_corr(rng)
    w = bl.random_combiner(corr, rng)
    assert np.vdot(w, w).real == pytest.approx(corr.power_alice)
    v = bl.random_phases(corr, rng)
    assert np.allclose(np.abs(v), 1.0)
    assert np.allclose(statistical_design(corr)[1], 1.0)
    # seeded draws are reproducible
    w2 = bl.random_combiner(corr, np.random.default_rng(1))
    v2 = bl.random_phases(corr, np.random.default_rng(1))
    assert np.allclose(bl.random_combiner(corr, np.random.default_rng(1)), w2)
    assert np.allclose(bl.random_phases(corr, np.random.default_rng(1)), v2)


def test_projected_subgradient_improves_feasibly():
    rng = np.random.default_rng(2)
    corr = oracles.random_corr(rng)
    prob = pl.build_lifted(corr)
    v0 = pl.project_discs(oracles.complex_normal(rng, corr.n_ris))
    w0 = pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                         prob.power_alice)
    v, w, best, trace = oracles.projected_subgradient(prob, v0, w0,
                                                      iters=200)
    assert best == pytest.approx(pl.min_objective(prob, v, w))
    assert best >= trace[0] - 1e-12
    assert best == pytest.approx(np.max(trace))
    assert np.all(np.abs(v) <= 1 + 1e-9)
    assert np.vdot(w, w).real <= prob.power_alice + 1e-9


def test_grid_search_is_exhaustive_on_tiny_surfaces():
    rng = np.random.default_rng(3)
    corr = oracles.random_corr(rng, n_ris=2, n_eve=2)
    prob = pl.build_lifted(corr)
    w = statistical_design(corr)[0]
    n_grid = 16
    v_best, val_best = oracles.grid_search_phases(prob, w, n_grid=n_grid)
    # re-enumerate the same grid by hand
    phases = 2.0 * np.pi * np.arange(n_grid) / n_grid
    manual = max(
        pl.min_objective(prob, np.exp(1j * np.array([0.0, p])), w)
        for p in phases)
    assert val_best == pytest.approx(manual)
    assert val_best == pytest.approx(pl.min_objective(prob, v_best, w))
    with pytest.raises(ValueError):
        oracles.grid_search_phases(pl.build_lifted(
            oracles.random_corr(rng, n_ris=4)), w)


def test_grid_search_common_phase_invariance():
    rng = np.random.default_rng(4)
    corr = oracles.random_corr(rng, n_ris=3, n_eve=2)
    prob = pl.build_lifted(corr)
    w = statistical_design(corr)[0]
    v = oracles.random_reflect(rng, corr, unit_modulus=True)
    base = pl.min_objective(prob, v, w)
    for phi in (0.4, 1.3, 2.9):
        rotated = pl.min_objective(prob, v * np.exp(1j * phi), w)
        assert rotated == pytest.approx(base, rel=1e-9)


def test_solver_refines_grid_maximizer():
    rng = np.random.default_rng(5)
    corr = oracles.random_corr(rng, n_ris=2, n_eve=2)
    prob = pl.build_lifted(corr)
    w, _ = statistical_design(corr)
    v_grid, grid_val = oracles.grid_search_phases(prob, w, n_grid=64)
    from ris_skg.bsum import bsum_solve
    res = bsum_solve(prob, v_grid, w, blocks="v", tol=1e-10, max_iters=300)
    # warm-started at the exhaustive-grid winner, the monotone solver can
    # only move further up (it may also use the disc interior)
    assert res.objective >= grid_val - 1e-12


def test_registry_contract():
    assert set(bl.DESIGN_METHODS) == {
        "optimized", "statistical", "iid_ris", "iid_bs", "random", "no_ris",
        "subgradient"}
    rng = np.random.default_rng(6)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    for name, method in bl.DESIGN_METHODS.items():
        w, v = method(corr, np.random.default_rng(7))
        assert w.shape == (corr.n_bs,)
        assert v.shape == (corr.n_ris,)
        assert np.vdot(w, w).real <= corr.power_alice + 1e-9
        assert np.all(np.abs(v) <= 1 + 1e-9)
        rate = min_kgr_bits(corr, w, v)
        assert np.isfinite(rate) and rate >= -1e-12
    # the correlation-only design is the exact max-min optimum, so the
    # optimized and subgradient methods return it as is, and iid_bs
    # aligns every phase
    w_stat, v_stat = statistical_design(corr)
    for name in ("optimized", "subgradient"):
        w, v = bl.DESIGN_METHODS[name](corr, np.random.default_rng(7))
        assert np.array_equal(w, w_stat) and np.array_equal(v, v_stat)
    w, v = bl.DESIGN_METHODS["iid_bs"](corr, np.random.default_rng(7))
    assert np.array_equal(v, np.ones(corr.n_ris))
    assert np.array_equal(w, bl.random_combiner(corr,
                                                np.random.default_rng(7)))


def test_no_ris_design_zeroes_the_surface():
    rng = np.random.default_rng(8)
    corr = oracles.random_corr(rng)
    w, v = bl.DESIGN_METHODS["no_ris"](corr, rng)
    assert np.all(v == 0)
