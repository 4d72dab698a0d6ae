"""Real lift of the complex design problem: identities, gradients,
projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_skg import kgr_core as kc
from ris_skg import problem_lift as pl

import oracles


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# lift algebra


def test_lift_respects_matrix_vector_products():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _rand_complex(rng, 4, 4)
        x = _rand_complex(rng, 4)
        lhs = pl.lift_hermitian(a) @ pl.lift_vector(x)
        rhs = pl.lift_vector(a @ x)
        assert np.allclose(lhs, rhs)


def test_lift_of_hermitian_is_symmetric_with_same_quadratic_form():
    rng = np.random.default_rng(1)
    a = _rand_complex(rng, 5, 5)
    herm = (a + a.conj().T) / 2
    lifted = pl.lift_hermitian(herm)
    assert np.allclose(lifted, lifted.T)
    for _ in range(10):
        x = _rand_complex(rng, 5)
        xt = pl.lift_vector(x)
        assert np.isclose(xt @ lifted @ xt,
                          np.real(x.conj() @ herm @ x))


def test_split_hermitian_parts_reassemble():
    rng = np.random.default_rng(2)
    a = _rand_complex(rng, 4, 4)
    h, s = pl.split_hermitian_parts(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(s, s.conj().T)
    assert np.allclose(h + 1j * s, a)


def test_vector_round_trips():
    rng = np.random.default_rng(3)
    x = _rand_complex(rng, 6)
    assert np.allclose(pl.unlift_vector(pl.lift_vector(x)), x)
    w = _rand_complex(rng, 4)
    assert np.allclose(pl.combiner_from_lifted(pl.lift_combiner(w)), w)


def test_sym_eig_stats_match_dense_spectra():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((3, 5, 5))
    mats = (mats + mats.transpose(0, 2, 1)) / 2
    top, top_sq = pl.sym_eig_stats(mats)
    vals = np.linalg.eigvalsh(mats)
    assert np.allclose(top, vals[:, -1])
    assert np.allclose(top_sq, np.max(vals ** 2, axis=1))


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
        lifted = pl.min_objective(prob, pl.lift_vector(v), pl.lift_combiner(w))
        direct = kc.design_objective_complex(corr, w, v)
        worst = max(worst, abs(lifted - direct) / max(abs(direct), 1e-12))
    assert worst <= 1e-10


def test_objective_terms_consistency():
    rng = np.random.default_rng(5)
    corr = oracles.random_corr(rng, n_eve=2)
    prob = pl.build_lifted(corr)
    vt = pl.project_discs(rng.standard_normal(2 * corr.n_ris))
    wt = pl.project_ball(rng.standard_normal(2 * corr.n_bs),
                         prob.power_alice)
    terms = pl.objective_terms(prob, vt, wt)
    assert np.allclose(
        terms.f,
        terms.m * terms.q_u - (terms.u1 ** 2 + terms.u2 ** 2) / terms.d)
    assert pl.min_objective(prob, vt, wt) == pytest.approx(np.min(terms.f))
    assert np.allclose(pl.objective(prob, vt, wt), terms.f)


# ---------------------------------------------------------------------------
# gradients


def test_gradients_match_finite_differences():
    worst_v = worst_w = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
        prob = pl.build_lifted(corr)
        # interior points so the objective is smooth along every axis
        vt = 0.7 * pl.project_discs(rng.standard_normal(2 * corr.n_ris))
        wt = 0.7 * pl.project_ball(rng.standard_normal(2 * corr.n_bs),
                                   prob.power_alice)
        k = int(rng.integers(0, corr.n_eve))

        gv = pl.grad_v(prob, vt, wt)[k]
        fd_v = oracles.fd_grad(
            lambda x: pl.objective(prob, x, wt)[k], vt, eps=1e-6)
        worst_v = max(worst_v, np.max(np.abs(gv - fd_v))
                      / max(np.linalg.norm(fd_v), 1e-9))

        gw = pl.grad_w(prob, vt, wt)[k]
        fd_w = oracles.fd_grad(
            lambda x: pl.objective(prob, vt, x)[k], wt, eps=1e-6)
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
    raw = np.asarray(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=2 * n, max_size=2 * n)))
    out = pl.project_discs(raw)
    mags = np.hypot(out[:n], out[n:])
    assert np.all(mags <= 1.0 + 1e-12)
    assert np.allclose(pl.project_discs(out), out)
    # feasible inputs pass through untouched
    inside = raw / np.maximum(np.hypot(raw[:n], raw[n:]).max(), 1.0) * 0.9
    assert np.allclose(pl.project_discs(inside), inside)


def test_project_discs_subnormal_input():
    # only magnitudes above one are divided, so a subnormal pair must not
    # overflow in the reciprocal and must pass through unchanged
    raw = np.array([5e-324, 0.0])
    assert np.array_equal(pl.project_discs(raw), raw)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_project_ball_properties(data):
    n = data.draw(st.integers(1, 8))
    power = data.draw(st.floats(0.1, 9.0))
    raw = np.asarray(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)))
    out = pl.project_ball(raw, power)
    assert np.linalg.norm(out) <= np.sqrt(power) + 1e-12
    assert np.allclose(pl.project_ball(out, power), out)
    if np.linalg.norm(raw) > np.sqrt(power):
        assert np.isclose(np.linalg.norm(out), np.sqrt(power))


def test_projections_are_nearest_points():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal(2 * n) * 2
        proj = pl.project_discs(x)
        d0 = np.linalg.norm(x - proj)
        for _ in range(20):
            other = pl.project_discs(rng.standard_normal(2 * n) * 2)
            assert np.linalg.norm(x - other) >= d0 - 1e-9

        y = rng.standard_normal(n) * 3
        power = float(rng.uniform(0.2, 2.0))
        proj_b = pl.project_ball(y, power)
        d0 = np.linalg.norm(y - proj_b)
        for _ in range(20):
            other = pl.project_ball(rng.standard_normal(n) * 3, power)
            assert np.linalg.norm(y - other) >= d0 - 1e-9
