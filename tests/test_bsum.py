"""Alternating surrogate maximization: curvature, minorants, monotonicity."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from ris_skg import bsum
from ris_skg import channel_model as cm
from ris_skg import mirror_prox as mp
from ris_skg import problem_lift as pl
from ris_skg.harness import build_config
from ris_skg.kgr_core import min_kgr_bits

import oracles


def _normalized_problem(seed, n_bs=3, n_ris=4, n_eve=3):
    rng = np.random.default_rng(seed)
    corr = oracles.random_corr(rng, n_bs=n_bs, n_ris=n_ris, n_eve=n_eve)
    prob = pl.build_lifted(corr)
    v = pl.project_discs(oracles.complex_normal(rng, n_ris))
    w = pl.project_ball(oracles.complex_normal(rng, n_bs), prob.power_alice)
    return rng, corr, prob, v, w


# ---------------------------------------------------------------------------
# curvature constants


def test_curvature_constants_positive():
    for seed in range(10):
        _, _, prob, v, w = _normalized_problem(seed)
        assert np.all(bsum.curvature_v(prob, w) >= bsum.CURVATURE_FLOOR)
        assert np.all(bsum.curvature_w(prob, v) >= bsum.CURVATURE_FLOOR)


def test_curvature_floor_kicks_in_without_cross_terms():
    rng = np.random.default_rng(0)
    corr = oracles.recovery_corr(rng)
    prob = pl.build_lifted(corr)
    w = pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                        prob.power_alice)
    # with an independent eavesdropper the bound collapses to the floor
    assert np.all(bsum.curvature_v(prob, w) == bsum.CURVATURE_FLOOR)


# ---------------------------------------------------------------------------
# surrogates


def _reconstruction_scale(sp, x0):
    """Size of the terms the surrogate evaluation adds and cancels; the
    curvature constants dwarf the objective, so tangency can only be exact
    relative to this scale."""
    return (1.0 + sp.quad * pl.real_inner(x0, x0)
            + np.abs(pl.real_inner(sp.lin, x0)) + np.abs(sp.const))


def test_surrogate_v_touches_and_minorizes():
    for seed in range(15):
        rng, corr, prob, v, w = _normalized_problem(seed)
        sp = bsum.build_surrogate(prob, v, w, "v")
        truth = pl.objective_terms(prob, v, w).f
        scale = _reconstruction_scale(sp, v)
        assert np.all(np.abs(mp.minorant_values(sp, v) - truth)
                      <= 1e-9 * scale)
        slope = -(2.0 * sp.quad[:, None] * v[None, :] + sp.lin)
        miss = oracles.lift_vector(slope - pl.grad_v(prob, v, w))
        assert np.all(np.abs(miss) <= 1e-9 * (1.0 + sp.quad[:, None]))
        for _ in range(20):
            x = pl.project_discs(oracles.complex_normal(rng, v.shape[0]) * 1.5)
            gap = pl.objective_terms(prob, x, w).f - mp.minorant_values(sp, x)
            assert np.all(gap >= -1e-9 * _reconstruction_scale(sp, x))


def test_surrogate_w_touches_and_minorizes():
    for seed in range(15):
        rng, corr, prob, v, w = _normalized_problem(seed)
        sp = bsum.build_surrogate(prob, v, w, "w")
        truth = pl.objective_terms(prob, v, w).f
        scale = _reconstruction_scale(sp, w)
        assert np.all(np.abs(mp.minorant_values(sp, w) - truth)
                      <= 1e-9 * scale)
        slope = -(2.0 * sp.quad[:, None] * w[None, :] + sp.lin)
        miss = oracles.lift_vector(slope - pl.grad_w(prob, v, w))
        assert np.all(np.abs(miss) <= 1e-9 * (1.0 + sp.quad[:, None]))
        assert sp.domain == "ball" and sp.power == prob.power_alice
        for _ in range(20):
            x = pl.project_ball(oracles.complex_normal(rng, w.shape[0]) * 1.5,
                                prob.power_alice)
            gap = pl.objective_terms(prob, v, x).f - mp.minorant_values(sp, x)
            assert np.all(gap >= -1e-9 * _reconstruction_scale(sp, x))


# ---------------------------------------------------------------------------
# outer loop


def test_solver_trace_is_monotone_from_any_start():
    for seed in range(12):
        _, _, prob, v, w = _normalized_problem(seed)
        res = bsum.bsum_solve(prob, v, w, tol=1e-4, max_iters=60)
        assert np.all(np.diff(res.trace) >= -1e-8)
        assert res.objective == pytest.approx(res.trace[-1])
        assert res.objective >= res.trace[0] - 1e-12
        assert np.vdot(res.w, res.w).real <= prob.power_alice + 1e-9


def test_deployed_pipeline_converges_quickly():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng)
        _, _, res = bsum.optimize_design(corr, tol=1e-4, max_iters=200)
        assert res.converged and res.iterations <= 200
        assert np.all(np.diff(res.trace) >= -1e-8)


def test_single_block_modes_leave_other_block_fixed():
    _, _, prob, v, w = _normalized_problem(3)
    res_v = bsum.bsum_solve(prob, v, w, blocks="v", tol=1e-8)
    assert np.allclose(res_v.w, pl.project_ball(w, prob.power_alice))
    res_w = bsum.bsum_solve(prob, v, w, blocks="w", tol=1e-8)
    assert np.allclose(res_w.v, pl.project_discs(v))
    with pytest.raises(ValueError):
        bsum.bsum_solve(prob, v, w, blocks="x")


def test_recorded_iterates_are_expansion_points():
    _, _, prob, v, w = _normalized_problem(5)
    res, points = oracles.bsum_solve_recorded(prob, v, w, tol=1e-6,
                                              max_iters=50)
    assert len(points) == 2 * res.iterations
    assert [b for b, _, _ in points[:2]] == ["v", "w"]
    b0, v0, w0 = points[0]
    assert np.allclose(v0, pl.project_discs(v))
    # every recorded point stays feasible
    for _, vi, wi in points:
        assert np.all(np.abs(vi) <= 1 + 1e-9)
        assert np.vdot(wi, wi).real <= prob.power_alice + 1e-9


def test_result_exposes_complex_design():
    _, corr, prob, v, w = _normalized_problem(6)
    res = bsum.bsum_solve(prob, v, w, tol=1e-6)
    assert res.v.shape == (corr.n_ris,)
    assert res.w.shape == (corr.n_bs,)
    assert res.v.dtype.kind == "c" and res.w.dtype.kind == "c"
    assert pl.min_objective(prob, res.v, res.w) == res.objective


def test_independent_eavesdropper_recovery_small():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        corr = oracles.recovery_corr(rng)
        prob = pl.build_lifted(corr)
        w_opt, v_opt = bsum.statistical_design(corr)
        target = pl.min_objective(prob, v_opt, w_opt)
        w0 = oracles.random_combiner(rng, corr)
        v0 = oracles.random_reflect(rng, corr)
        res = bsum.bsum_solve(prob, v0, w0, tol=1e-13, max_iters=1000)
        worst = max(worst, (target - res.objective) / abs(target))
    assert worst <= 1e-3


def test_statistical_design_structure():
    rng = np.random.default_rng(1)
    corr = oracles.random_corr(rng)
    w, v = bsum.statistical_design(corr)
    assert np.allclose(v, 1.0)
    assert np.vdot(w, w).real == pytest.approx(corr.power_alice)
    vals, vecs = np.linalg.eigh(corr.bs_corr)
    overlap = abs(np.vdot(vecs[:, -1], w)) / np.linalg.norm(w)
    assert overlap == pytest.approx(1.0)


def test_optimize_design_returns_feasible_pair():
    rng = np.random.default_rng(2)
    corr = oracles.random_corr(rng)
    w, v, res = bsum.optimize_design(corr)
    assert np.vdot(w, w).real <= corr.power_alice + 1e-9
    assert np.all(np.abs(v) <= 1 + 1e-9)
    assert res.objective >= res.trace[0] - 1e-12


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_optimize_design_calls_every_traced_name(monkeypatch):
    # the benchmark's tracer wraps these module attributes; a call that
    # bypassed one would drop out of its per-layer report
    traced = ((bsum, "curvature_v"), (bsum, "curvature_w"),
              (bsum, "mirror_prox_solve"), (pl, "build_lifted"),
              (pl, "objective_terms"))
    calls = {name: 0 for _, name in traced}
    for module, name in traced:
        monkeypatch.setattr(module, name,
                            _counted(calls, name, getattr(module, name)))
    bsum.optimize_design(oracles.random_corr(np.random.default_rng(3)))
    assert all(calls.values()), calls


# ---------------------------------------------------------------------------
# certificate: the statistical design maximizes every f_k


def _top_forms(corr, prob):
    """(m*, h*, N): the largest combiner form and the all-ones surface
    forms over the feasible set."""
    m_top = corr.power_alice * np.linalg.eigvalsh(corr.bs_corr)[-1]
    return m_top, float(np.sum(corr.ris_had)), float(prob.n_ris)


def _random_instances(count, seed):
    """Order-one instances with rho_k up to 1; the first has an antenna
    exactly on Bob (rho = 1), where df/dh touches zero."""
    rng = np.random.default_rng(seed)
    out = [oracles.random_corr(rng, n_eve=3, rho_eve_max=1.0)
           for _ in range(count)]
    out[0].rho_eve[0] = 1.0
    return out


def _paper_draws(spacing, ris_shape, count, seed):
    cfg = cm.ScenarioConfig(ris_spacing_wavelengths=spacing,
                            ris_shape=ris_shape)
    rng = np.random.default_rng(seed)
    return [cm.build_correlations(cfg, rng) for _ in range(count)]


def test_form_oracle_matches_lifted_objective_and_partials():
    rng = np.random.default_rng(40)
    for corr in _random_instances(10, 41):
        prob = pl.build_lifted(corr)
        for _ in range(10):
            v, w = oracles.random_feasible_point(rng, prob)
            m, h, s = (np.vdot(w, prob.r_s @ w).real,
                       np.vdot(v, prob.had @ v).real, np.vdot(v, v).real)
            assert np.allclose(oracles.gains_from_forms(prob, m, h, s),
                               pl.objective_terms(prob, v, w).f,
                               rtol=1e-12, atol=0.0)
            x = np.array([m, h, s])
            partials = oracles.form_partials(prob, m, h, s)
            for i, (value, scale) in enumerate(partials):
                for k in range(corr.n_eve):
                    fd = oracles.fd_grad(
                        lambda y: oracles.gains_from_forms(prob, *y)[k],
                        x, eps=1e-6)[i]
                    assert fd == pytest.approx(value[k], rel=1e-5,
                                               abs=1e-7 * scale[k])


@pytest.mark.parametrize("source", ["random", "paper"])
def test_certificate_partials_are_nonnegative_on_a_grid(source):
    if source == "random":
        corrs = _random_instances(20, 42)
    else:
        corrs = [c for spacing in (0.1, 0.25, 0.5)
                 for c in _paper_draws(spacing, (5, 4), 2, 43)]
    for corr in corrs:
        prob = pl.build_lifted(corr)
        m_top, h_top, n = _top_forms(corr, prob)
        for m in np.linspace(0.0, m_top, 9):
            for h in np.linspace(0.0, h_top, 9):
                for s in np.linspace(0.0, n, 9):
                    (d_m, m_scale), (d_h, h_scale), (d_s, s_scale) = \
                        oracles.form_partials(prob, m, h, s)
                    assert np.all(d_s >= -1e-12 * s_scale)
                    assert np.all(d_h >= -1e-12 * h_scale)
                d_m, m_scale = oracles.form_partials(prob, m, h, n)[0]
                assert np.all(d_m >= -1e-12 * m_scale)


def _assert_dominated(corr, rng, points=60):
    """No feasible point beats the statistical design on any f_k, at
    random points and at small perturbations of the design itself."""
    prob = pl.build_lifted(corr)
    w_star, v_star = bsum.statistical_design(corr)
    best = pl.objective_terms(prob, v_star, w_star).f
    assert np.allclose(best, oracles.gains_from_forms(
        prob, *_top_forms(corr, prob)), rtol=1e-12, atol=0.0)
    slack = 1e-12 * np.abs(best)
    for i in range(points):
        v, w = oracles.random_feasible_point(
            rng, prob, unit_modulus=i % 3 == 0, full_power=i % 2 == 0)
        assert np.all(pl.objective_terms(prob, v, w).f <= best + slack)
        eps = 10.0 ** -rng.uniform(1, 6)
        v = pl.project_discs(
            v_star + eps * oracles.complex_normal(rng, v.size))
        w = pl.project_ball(w_star + eps * oracles.complex_normal(rng, w.size),
                            prob.power_alice)
        assert np.all(pl.objective_terms(prob, v, w).f <= best + slack)


def test_statistical_design_dominates_feasible_points():
    rng = np.random.default_rng(44)
    for corr in _random_instances(40, 45):
        _assert_dominated(corr, rng)


@pytest.mark.parametrize("spacing", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("ris_shape", [(5, 4), (5, 12)])
def test_statistical_design_dominates_at_paper_scale(spacing, ris_shape):
    rng = np.random.default_rng(46)
    for corr in _paper_draws(spacing, ris_shape, 3, 47):
        _assert_dominated(corr, rng)


def test_bsum_never_ends_above_the_certified_value():
    rng = np.random.default_rng(48)
    for corr in _random_instances(5, 49):
        prob = pl.build_lifted(corr)
        w, v = bsum.statistical_design(corr)
        certified = pl.min_objective(prob, v, w)
        for _ in range(2):
            v0, w0 = oracles.random_feasible_point(rng, prob)
            res = bsum.bsum_solve(prob, v0, w0, tol=1e-6, max_iters=20,
                                  inner_max_iters=300)
            assert res.objective <= certified + 1e-12 * abs(certified)
        # started at the certified design, the solver has nowhere to go
        res = bsum.bsum_solve(prob, v, w)
        assert res.objective == pytest.approx(certified, rel=1e-12)


# ---------------------------------------------------------------------------
# the benchmark's one BSUM run


def _perfbench_checks(monkeypatch):
    """``perfbench/checks.py``, loaded from its file (it imports only the
    package) and registered for the test's duration, as its dataclasses
    need."""
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bsum_run_keeps_the_statistical_rate(monkeypatch):
    """``checks.optimized_rate_mean`` gives ``kgr_bits_mean`` on the
    ``paper_probing`` workload.  At the paper preset each of its draws
    stops after one outer iteration at the statistical design's rate."""
    checks = _perfbench_checks(monkeypatch)
    cfg = build_config("paper", "sweep_power_dbm = 10, 25, 40", trials=3)
    runs = []

    def recorded(corr, **solver_keys):
        assert solver_keys == {
            "tol": cfg.bsum_tol, "max_iters": cfg.bsum_max_iters,
            "inner_tol": cfg.inner_tol,
            "inner_max_iters": cfg.inner_max_iters}
        out = bsum.optimize_design(corr, **solver_keys)
        runs.append((corr, *out))
        return out

    monkeypatch.setattr(checks, "optimize_design", recorded)
    mean = checks.optimized_rate_mean("bdr_vs_power", cfg)
    assert len(runs) == 9
    stat_rates = []
    for corr, w, v, res in runs:
        assert res.iterations == 1
        stat = min_kgr_bits(corr, *bsum.statistical_design(corr))
        assert min_kgr_bits(corr, w, v) == pytest.approx(stat, rel=1e-12,
                                                         abs=0.0)
        stat_rates.append(stat)
    assert mean == pytest.approx(np.mean(stat_rates), rel=1e-12, abs=0.0)
