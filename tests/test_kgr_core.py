"""Key-rate formulas: closed form and the scalar summary (acceptance test 1
compares the closed form with the determinant)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_skg import harness as hn
from ris_skg import kgr_core as kc
from ris_skg.baselines import DESIGN_METHODS
from ris_skg.channel_model import build_correlations, point_statistics

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


def test_min_rate_of_a_set_without_eavesdropper_is_an_error():
    # a point's statistics hold no antennas (K = 0), so there is no worst
    # antenna to rate against: a ValueError that says so, not NumPy's
    # empty-reduction message
    stats = point_statistics(hn.build_config("paper"))
    w, v = DESIGN_METHODS["statistical"](stats, [0], 1)
    with pytest.raises(ValueError, match="no eavesdropper"):
        kc.min_kgr_bits(stats, w[0], v[0])
    with pytest.raises(ValueError, match="no eavesdropper"):
        kc.min_kgr_bits(stats, w, v)


@pytest.mark.parametrize("preset", ["paper", "desk"])
def test_stacked_design_gains_equal_the_loop(preset):
    # at the preset's shapes and every shape its M and N sweeps reach, each
    # scalar of a (trial, method) stack of designs has the bits the
    # per-design loop gives, and so does a single design's call
    cfg = hn.build_config(preset)
    rng = np.random.default_rng(11)
    for bs in sorted({cfg.bs_shape, *cfg.sweep_bs_shapes}):
        for ris in sorted({cfg.ris_shape, *cfg.sweep_ris_shapes}):
            corr = build_correlations(
                replace(cfg, bs_shape=bs, ris_shape=ris),
                np.random.default_rng(0))
            w = oracles.complex_normal(rng, 6, 5, corr.n_bs)
            v = np.exp(2j * np.pi * rng.uniform(size=(6, 5, corr.n_ris)))
            v[:, 4] = 0.0   # the no-surface design
            stacked = kc.design_gains(corr, w, v)
            loop = oracles.design_gains_loop(corr, w, v)
            for got, want in zip(stacked, loop):
                assert got.shape == (6, 5)
                assert np.array_equal(got, want), (bs, ris)
            alone = kc.design_gains(corr, w[2, 3], v[2, 3])
            assert all(np.ndim(x) == 0 for x in alone)
            assert alone == tuple(x[2, 3] for x in stacked), (bs, ris)
    # a (trial, method) stack laid out as harness._rates builds it, the
    # preset methods' read-only rows stacked along axis 1 (not
    # C-contiguous), gives each design the bits it gets alone
    sub = replace(cfg, trials=20)
    corr = build_correlations(sub, np.random.default_rng(0))
    designs = hn._designs(sub, 0)
    w = np.stack([rows for rows, _, _ in designs], axis=1)
    v = np.stack([rows for _, rows, _ in designs], axis=1)
    assert not w.flags.c_contiguous
    stacked = kc.design_gains(corr, w, v)
    for t in range(sub.trials):
        for m in range(len(designs)):
            alone = kc.design_gains(corr, w[t, m], v[t, m])
            assert alone == tuple(x[t, m] for x in stacked), (t, m)


class _CountingHad(np.ndarray):
    """R_ris o R_ris that records the rows of every product it enters."""

    rows = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingHad.rows.append(np.shape(inputs[0])[0])
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def test_q_v_product_is_made_once_per_run_of_equal_rows():
    # a row byte-equal to the row one step up the first axis (a method's
    # row one trial earlier) shares its N x N product: a (trial, method)
    # stack of 40 rows whose two methods each repeat one v makes 2, and a
    # 1-D stack makes one per run of equal rows.  Every row keeps the bits
    # of the per-design loop
    rng = np.random.default_rng(3)
    corr = oracles.random_corr(rng, n_bs=3, n_ris=8, n_eve=2)
    counted = corr.with_values(ris_had=corr.ris_had.view(_CountingHad))
    a, b = (oracles.random_reflect(rng, corr) for _ in range(2))
    for v, products in ((np.broadcast_to([a, b], (20, 2, corr.n_ris)), 2),
                        (np.stack([a, a, b, b, b, a]), 3)):
        w = oracles.complex_normal(rng, *v.shape[:-1], corr.n_bs)
        _CountingHad.rows.clear()
        stacked = kc.design_gains(counted, w, v)
        assert _CountingHad.rows == [products]
        assert all(np.array_equal(got, want) for got, want in
                   zip(stacked, oracles.design_gains_loop(corr, w, v)))


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
