"""Closed-form gain bounds and rates for the correlation-only design
(``tests/oracles.py``), against eigensolvers and the library's rates."""

import numpy as np
import pytest

from ris_skg import kgr_core as kc
from ris_skg.bsum import statistical_design

import oracles


def test_gain_bracket_holds_on_grid():
    for rho in np.arange(0.0, 0.95, 0.1):
        for n_h in range(2, 9):
            for n_v in range(1, 6):
                lower, upper = oracles.bs_gain_bounds((n_h, n_v), rho, 2.0)
                exact = oracles.eigen_bs_gain((n_h, n_v), rho, 2.0)
                assert lower <= exact * (1 + 1e-12)
                assert exact <= upper * (1 + 1e-12)


def test_gain_bracket_exact_at_endpoints():
    lower, upper = oracles.bs_gain_bounds((4, 3), 0.0, 1.7)
    assert lower == pytest.approx(1.7)
    assert upper == pytest.approx(1.7)
    lower, upper = oracles.bs_gain_bounds((4, 3), 1.0, 1.7)
    assert lower == pytest.approx(1.7 * 12)
    assert upper == pytest.approx(1.7 * 12)
    with pytest.raises(ValueError):
        oracles.bs_gain_bounds((4, 3), -0.05, 1.0)
    with pytest.raises(ValueError):
        oracles.bs_gain_bounds((4, 3), 1.2, 1.0)


def test_gain_bracket_tightens_at_large_arrays():
    exact = oracles.eigen_bs_gain((50, 50), 0.3, 1.0)
    lower, upper = oracles.bs_gain_bounds((50, 50), 0.3, 1.0)
    assert (exact - lower) / exact <= 0.03
    assert (upper - exact) / exact <= 0.02
    exact80 = oracles.eigen_bs_gain((80, 80), 0.3, 1.0)
    lower80, _ = oracles.bs_gain_bounds((80, 80), 0.3, 1.0)
    assert (exact80 - lower80) / exact80 <= 0.02


def test_gain_approaches_asymptote_from_below():
    limit = oracles.bs_gain_asymptote(0.3, 1.0)
    gains = [oracles.eigen_bs_gain((n, n), 0.3, 1.0)
             for n in (5, 10, 25, 50, 100)]
    assert np.all(np.diff(gains) > 0)
    assert np.all(np.asarray(gains) < limit)
    assert (limit - gains[-2]) / limit <= 0.02   # within 2% by 50x50
    assert limit == pytest.approx(((1.3 / 0.7) ** 2))


def test_closed_forms_match_gain_triple():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_eve=3, rho_eve_max=0.9)
        w, v = statistical_design(corr)
        gains = kc.effective_gains(corr, w, v)
        assert oracles.legit_channel_gain(corr) == pytest.approx(
            gains.legit, rel=1e-10)
        leak = np.abs(gains.cross) ** 2 / (gains.eve + corr.noise_power)
        assert np.allclose(oracles.worst_case_leakage(corr), leak, rtol=1e-9)


def test_statistical_design_rate_matches_simulation_path():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        corr = oracles.random_corr(rng, n_eve=3, rho_eve_max=0.9)
        w, v = statistical_design(corr)
        rates = kc.kgr_bits(corr, w, v)
        assert np.allclose(oracles.statistical_design_rate(corr), rates,
                           rtol=1e-6, atol=1e-9)


def test_leakage_vanishes_for_independent_eavesdropper():
    rng = np.random.default_rng(0)
    corr = oracles.recovery_corr(rng)
    assert np.allclose(oracles.worst_case_leakage(corr), 0.0)
    assert np.allclose(
        oracles.statistical_design_rate(corr),
        kc.kgr_from_summary(oracles.legit_channel_gain(corr), corr.power_bob,
                            corr.power_alice, corr.noise_power))
