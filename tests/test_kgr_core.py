"""Key-rate formulas: determinant form, closed form, and the scalar summary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_skg import kgr_core as kc

import oracles


def _instance(seed, **kw):
    rng = np.random.default_rng(seed)
    corr = oracles.random_corr(rng, **kw)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    return corr, w, v


def test_effective_gains_are_physical():
    for seed in range(30):
        corr, w, v = _instance(seed)
        gains = kc.effective_gains(corr, w, v)
        assert gains.legit >= 0.0
        assert np.all(gains.eve >= 0.0)
        # the 2x2 moment matrix [[legit, cross], [cross*, eve]] must be PSD
        assert np.all(np.abs(gains.cross) ** 2
                      <= gains.legit * gains.eve * (1 + 1e-12) + 1e-15)


def test_closed_form_matches_determinant():
    worst = 0.0
    for seed in range(60):
        corr, w, v = _instance(seed, n_eve=3)
        blocks = oracles.covariance_blocks(corr, w, v)
        gains = kc.effective_gains(corr, w, v)
        via_det = oracles.naive_kgr_bits(blocks)
        via_closed = oracles.kgr_closed_form(
            gains, corr.power_bob, float(np.vdot(w, w).real),
            corr.noise_power)
        worst = max(worst, np.max(np.abs(via_det - via_closed)
                                  / np.maximum(np.abs(via_det), 1e-12)))
    assert worst <= 1e-9


def test_summary_form_matches_closed_form():
    for seed in range(30):
        corr, w, v = _instance(seed)
        gains = kc.effective_gains(corr, w, v)
        wsq = float(np.vdot(w, w).real)
        f = kc.eve_resolved_gain(gains, corr.noise_power)
        assert np.all(f >= -1e-12)
        assert np.allclose(
            oracles.kgr_closed_form(gains, corr.power_bob, wsq,
                                    corr.noise_power),
            kc.kgr_from_summary(f, corr.power_bob, wsq, corr.noise_power),
            rtol=1e-10)


@given(
    f1=st.floats(0.0, 1e3),
    f2=st.floats(0.0, 1e3),
    pb=st.floats(1e-3, 10.0),
    wsq=st.floats(1e-3, 10.0),
    noise=st.floats(1e-4, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_rate_is_monotone_in_resolved_gain(f1, f2, pb, wsq, noise):
    """At fixed combiner power, ranking candidate designs by the resolved
    gain is the same as ranking them by rate."""
    r1 = kc.kgr_from_summary(f1, pb, wsq, noise)
    r2 = kc.kgr_from_summary(f2, pb, wsq, noise)
    if f1 <= f2:
        assert r1 <= r2 + 1e-12
    else:
        assert r2 <= r1 + 1e-12


def test_rate_vanishes_without_shared_signal():
    assert kc.kgr_from_summary(0.0, 1.0, 1.0, 1e-3) == pytest.approx(0.0)


def test_rate_nonnegative_and_min_selects_worst():
    for seed in range(20):
        corr, w, v = _instance(seed, n_eve=4)
        rates = kc.kgr_bits(corr, w, v)
        assert rates.shape == (4,)
        assert np.all(rates >= -1e-12)
        assert kc.min_kgr_bits(corr, w, v) == pytest.approx(np.min(rates))


def test_empirical_covariance_recovers_known_moments():
    rng = np.random.default_rng(0)
    n = 400_000
    # synthetic observations with hand-picked second moments
    za = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    zb = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    alice = 2.0 * za
    bob = za + 0.5 * zb
    eve = np.stack([0.7 * za + 0.1 * zb], axis=1)
    blocks = oracles.empirical_covariance_blocks(alice, bob, eve, 1e-3, 4.0)
    assert blocks.aa == pytest.approx(4.0, rel=0.02)
    assert blocks.bb == pytest.approx(1.25, rel=0.02)
    assert blocks.ab == pytest.approx(2.0, rel=0.02, abs=0.02)
    assert blocks.ee[0] == pytest.approx(0.5, rel=0.02)
    assert blocks.ae[0] == pytest.approx(1.4, rel=0.02, abs=0.02)
    assert blocks.be[0] == pytest.approx(0.75, rel=0.02, abs=0.02)
    assert blocks.noise_power == 1e-3 and blocks.combiner_sq == 4.0
