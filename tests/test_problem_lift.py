"""The design problem in three quadratic forms: the oracles' real lift it
is checked against, objective identities, gradients, projections."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_skg import bsum
from ris_skg import channel_model as cm
from ris_skg import kgr_core as kc
from ris_skg import problem_lift as pl
from ris_skg.harness import build_config

import oracles


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# lift algebra of the oracles' stacked [Re; Im] layout


def test_lift_respects_matrix_vector_products():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _rand_complex(rng, 4, 4)
        x = _rand_complex(rng, 4)
        lhs = oracles.lift_hermitian(a) @ oracles.lift_vector(x)
        rhs = oracles.lift_vector(a @ x)
        assert np.allclose(lhs, rhs)


def test_lift_of_hermitian_is_symmetric_with_same_quadratic_form():
    rng = np.random.default_rng(1)
    a = _rand_complex(rng, 5, 5)
    herm = (a + a.conj().T) / 2
    lifted = oracles.lift_hermitian(herm)
    assert np.allclose(lifted, lifted.T)
    for _ in range(10):
        x = _rand_complex(rng, 5)
        xt = oracles.lift_vector(x)
        assert np.isclose(xt @ lifted @ xt,
                          np.real(x.conj() @ herm @ x))


def test_vector_round_trips():
    rng = np.random.default_rng(3)
    x = _rand_complex(rng, 6)
    xt = oracles.lift_vector(x)
    assert np.allclose(xt[:6] + 1j * xt[6:], x)
    # the lift carries Re(x^H y) to the real dot product
    y = _rand_complex(rng, 6)
    assert np.isclose(pl.real_inner(x, y), xt @ oracles.lift_vector(y))


# ---------------------------------------------------------------------------
# objective equivalence


def test_lifted_objective_matches_complex_at_unit_modulus():
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_bs=3, n_ris=5, n_eve=3)
        w = oracles.random_combiner(rng, corr)
        v = oracles.random_reflect(rng, corr, unit_modulus=True)
        prob = pl.build_lifted(corr)
        forms = pl.min_objective(prob, v, w)
        direct = float(np.min(kc.eve_resolved_gain(
            kc.effective_gains(corr, w, v), corr.noise_power)))
        worst = max(worst, abs(forms - direct) / max(abs(direct), 1e-12))
    assert worst <= 1e-10


def test_objective_terms_consistency():
    rng = np.random.default_rng(5)
    corr = oracles.random_corr(rng, n_eve=2)
    prob = pl.build_lifted(corr)
    v = pl.project_discs(oracles.complex_normal(rng, corr.n_ris))
    w = pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                        prob.power_alice)
    terms = pl.objective_terms(prob, v, w)
    assert np.allclose(
        terms.f,
        terms.m * terms.q_u - terms.u1 ** 2 / terms.d)
    assert pl.min_objective(prob, v, w) == pytest.approx(np.min(terms.f))
    m, h, s = (np.vdot(w, prob.r_s @ w).real,
               np.vdot(v, prob.had @ v).real, np.vdot(v, v).real)
    assert np.allclose(terms.f, oracles.gains_from_forms(prob, m, h, s),
                       rtol=1e-12, atol=0.0)


def _assert_rows_close(got, ref, rtol=1e-9):
    """Each eavesdropper's value or vector within rtol of its largest entry."""
    k = ref.shape[0]
    got, ref = got.reshape(k, -1), ref.reshape(k, -1)
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(got - ref), axis=1) <= rtol * scale)


def _assert_matches_dense(corr, v, w):
    """The complex gradients are compared in the reference's stacked
    [Re; Im] layout."""
    prob = pl.build_lifted(corr)
    ref = oracles.dense_reference(corr, v, w)
    _assert_rows_close(pl.objective_terms(prob, v, w).f, ref["f"])
    _assert_rows_close(oracles.lift_vector(pl.grad_v(prob, v, w)),
                       ref["grad_v"])
    _assert_rows_close(oracles.lift_vector(pl.grad_w(prob, v, w)),
                       ref["grad_w"])
    _assert_rows_close(bsum.curvature_v(prob, w), ref["curvature_v"])
    _assert_rows_close(bsum.curvature_w(prob, v), ref["curvature_w"])


def test_factored_lift_matches_dense_reference():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_bs=3, n_ris=5, n_eve=3)
        v = pl.project_discs(oracles.complex_normal(rng, corr.n_ris))
        w = pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                            corr.power_alice)
        _assert_matches_dense(corr, v, w)


@pytest.mark.parametrize("ris_shape", [(5, 4), (5, 12)])
def test_factored_lift_matches_dense_reference_at_paper_scale(ris_shape):
    cfg = replace(build_config("paper"), ris_shape=ris_shape)
    rng = np.random.default_rng(7)
    corr = cm.build_correlations(cfg, rng)
    w, v = bsum.statistical_design(corr)
    _assert_matches_dense(corr, v, w)
    v = pl.project_discs(oracles.complex_normal(rng, corr.n_ris))
    w = pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                        corr.power_alice)
    _assert_matches_dense(corr, v, w)


# ---------------------------------------------------------------------------
# gradients


def test_gradients_match_finite_differences():
    worst_v = worst_w = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
        prob = pl.build_lifted(corr)
        # interior points so the objective is smooth along every axis
        v = 0.7 * pl.project_discs(oracles.complex_normal(rng, corr.n_ris))
        w = 0.7 * pl.project_ball(oracles.complex_normal(rng, corr.n_bs),
                                  prob.power_alice)
        k = int(rng.integers(0, corr.n_eve))

        # compared in the stacked [Re; Im] layout, component by component
        gv = oracles.lift_vector(pl.grad_v(prob, v, w)[k])
        fd_v = oracles.lift_vector(oracles.fd_grad(
            lambda x: pl.objective_terms(prob, x, w).f[k], v, eps=1e-6))
        worst_v = max(worst_v, np.max(np.abs(gv - fd_v))
                      / max(np.linalg.norm(fd_v), 1e-9))

        gw = oracles.lift_vector(pl.grad_w(prob, v, w)[k])
        fd_w = oracles.lift_vector(oracles.fd_grad(
            lambda x: pl.objective_terms(prob, v, x).f[k], w, eps=1e-6))
        worst_w = max(worst_w, np.max(np.abs(gw - fd_w))
                      / max(np.linalg.norm(fd_w), 1e-9))
    assert worst_v <= 1e-5
    assert worst_w <= 1e-5


# ---------------------------------------------------------------------------
# projections


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_project_discs_properties(data):
    n = data.draw(st.integers(1, 6))
    parts = np.asarray(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=2 * n, max_size=2 * n)))
    raw = parts[:n] + 1j * parts[n:]
    out = pl.project_discs(raw)
    mags = np.abs(out)
    assert np.all(mags <= 1.0 + 1e-12)
    assert np.allclose(pl.project_discs(out), out)
    # feasible inputs pass through untouched
    inside = raw / np.maximum(np.abs(raw).max(), 1.0) * 0.9
    assert np.allclose(pl.project_discs(inside), inside)


def test_project_discs_subnormal_input():
    # a subnormal element passes through unchanged, with no overflow on the
    # way (tier-1 turns RuntimeWarning into an error)
    raw = np.array([5e-324 + 0j])
    assert np.array_equal(pl.project_discs(raw), raw)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_project_ball_properties(data):
    n = data.draw(st.integers(1, 8))
    power = data.draw(st.floats(0.1, 9.0))
    parts = np.asarray(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=2 * n, max_size=2 * n)))
    raw = parts[:n] + 1j * parts[n:]
    out = pl.project_ball(raw, power)
    assert np.linalg.norm(out) <= np.sqrt(power) + 1e-12
    assert np.allclose(pl.project_ball(out, power), out)
    if np.linalg.norm(raw) > np.sqrt(power):
        assert np.isclose(np.linalg.norm(out), np.sqrt(power))


def test_projections_are_nearest_points():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        x = oracles.complex_normal(rng, n) * 2
        proj = pl.project_discs(x)
        d0 = np.linalg.norm(x - proj)
        for _ in range(20):
            other = pl.project_discs(oracles.complex_normal(rng, n) * 2)
            assert np.linalg.norm(x - other) >= d0 - 1e-9

        y = oracles.complex_normal(rng, n) * 3
        power = float(rng.uniform(0.2, 2.0))
        proj_b = pl.project_ball(y, power)
        d0 = np.linalg.norm(y - proj_b)
        for _ in range(20):
            other = pl.project_ball(oracles.complex_normal(rng, n) * 3, power)
            assert np.linalg.norm(y - other) >= d0 - 1e-9
