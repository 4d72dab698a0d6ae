"""Configuration parsing and second-order channel statistics."""

import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.special import j0
from scipy.stats import ks_2samp

from ris_skg import channel_model as cm
from ris_skg import harness as hn
from ris_skg.harness import (bit_disagreement, build_config,
                             quantize_median_bits)

import oracles


# ---------------------------------------------------------------------------
# config parsing


def test_parse_round_trip():
    text = """
    # scenario under test
    bs_shape = 5x3
    ris_shape = 4x4
    bs_corr = 0.25          # correlation coefficient
    power_alice_dbm = 20
    noise_dbm = -80
    eve_count = 4
    methods = optimized, no_ris
    sweep_power_dbm = 10, 20, 30
    sweep_ris_shapes = 5x2, 5x4
    alice_pos = 1, 2, 3
    """
    cfg = cm.ScenarioConfig(**cm.parse_config_values(text))
    assert cfg.bs_shape == (5, 3)
    assert cfg.ris_shape == (4, 4)
    assert np.prod(cfg.bs_shape) == 15 and np.prod(cfg.ris_shape) == 16
    assert cfg.bs_corr == 0.25
    assert np.isclose(cfg.power_alice_w, 0.1)
    assert np.isclose(cfg.noise_power_w, 1e-11)
    assert cfg.eve_count == 4
    assert cfg.methods == ("optimized", "no_ris")
    assert cfg.sweep_power_dbm == (10.0, 20.0, 30.0)
    assert cfg.sweep_ris_shapes == ((5, 2), (5, 4))
    assert cfg.alice_pos == (1.0, 2.0, 3.0)


# one non-default sample per annotation; a field of any other kind fails
_SAMPLES = {
    int: 7,
    float: 0.375,
    str: "no_ris",
    tuple[float, float, float]: (1.5, -2.0, 3.25),
    tuple[int, int]: (3, 2),
    tuple[tuple[int, int], ...]: ((2, 3), (4, 1)),
    tuple[float, ...]: (12.5, -3.0),
    tuple[str, ...]: ("no_ris", "iid_ris"),
}


def _render(value, kind):
    args = get_args(kind)
    if args == (int, int):
        return "{}x{}".format(*value)
    if args and args[-1] is Ellipsis:
        return ", ".join(_render(x, args[0]) for x in value)
    if args:
        return ", ".join(map(_render, value, args))
    return str(value)


@pytest.mark.parametrize("field", fields(cm.ScenarioConfig), ids=lambda f: f.name)
def test_every_field_round_trips_through_config_text(field):
    kind = get_type_hints(cm.ScenarioConfig)[field.name]
    sample = _SAMPLES[kind]
    assert sample != field.default
    values = cm.parse_config_values(f"{field.name} = {_render(sample, kind)}")
    assert repr(values) == repr({field.name: sample})


def test_parse_base_overrides():
    # the file's value wins over the preset's, and the preset fills the rest
    cfg = build_config("desk", "trials = 7\nseed = 9")
    assert cfg.trials == 7 and cfg.seed == 9 and cfg.ris_shape == (6, 4)


@pytest.mark.parametrize("bad", [
    "unknown_key = 1",
    "bs_corr 0.3",
    "bs_shape = 5",
    "bs_shape = axb",
    "eve_count = 1.5",
    "alice_pos = 1, 2",
    "amplitude_pathloss = false",
    "trials = many",
])
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(cm.ConfigError):
        cm.parse_config_values(bad)


@pytest.mark.parametrize("field, value", [
    ("bs_corr", -0.1),
    ("bs_corr", 1.0),
    ("eve_count", 0),
    ("eve_radius_m", -1.0),
    ("power_alice_w", 0.0),
    ("noise_power_w", -1e-9),
    ("trials", 0),
    ("probe_rounds", 1),
    ("bs_shape", (0, 3)),
    ("bsum_tol", 0.0),
    ("trials", 2.5),
    ("alice_pos", (1.0, 2.0)),
    pytest.param("trials", "2.5", id="trials-str-2.5"),
    # bytes would convert byte by byte, and a bool is not a count
    pytest.param("methods", b"no_ris", id="methods-bytes"),
    pytest.param("trials", True, id="trials-bool"),
    pytest.param("bs_corr", np.False_, id="bs_corr-numpy-bool"),
])
def test_validate_rejects_bad_fields(field, value):
    # checked when built: no invalid config exists to be run
    with pytest.raises(cm.ConfigError):
        cm.ScenarioConfig(**{field: value})


def test_a_string_is_read_as_a_config_file_writes_it():
    # a bare string for a list field is one entry, not its characters
    assert cm.ScenarioConfig(methods="no_ris").methods == ("no_ris",)
    cfg = cm.ScenarioConfig(ris_shape="6x4", bs_corr=" 0.25 ",
                            sweep_bs_shapes="5x1, 5x2,")
    assert cfg == cm.ScenarioConfig(ris_shape=(6, 4), bs_corr=0.25,
                                    sweep_bs_shapes=((5, 1), (5, 2)))


def test_config_hash_tracks_content():
    a = cm.ScenarioConfig()
    b = cm.ScenarioConfig(bs_corr=0.31)
    assert len(cm.config_hash(a)) == 16
    assert cm.config_hash(a) == cm.config_hash(cm.ScenarioConfig())
    assert cm.config_hash(a) != cm.config_hash(b)


def test_unit_conversions():
    assert np.isclose(cm.dbm_to_watts(30.0), 1.0)
    assert np.isclose(cm.dbm_to_watts(0.0), 1e-3)
    assert np.isclose(cm.db_to_linear(-3.0), 10 ** (-0.3))


# ---------------------------------------------------------------------------
# correlation matrices


@given(n=st.integers(1, 8), rho=st.floats(0.0, 0.95))
@settings(max_examples=40, deadline=None)
def test_exp_corr_matrix_structure(n, rho):
    r = cm.exp_corr_matrix(n, rho)
    idx = np.arange(n)
    assert np.allclose(r, rho ** np.abs(idx[:, None] - idx[None, :]))
    assert np.linalg.eigvalsh(r).min() > -1e-10


@pytest.mark.parametrize("rho", [0, 0.2, 0.3, 0.95])
def test_exp_corr_matrix_equals_toeplitz(rho):
    # the powers indexed by |i - j| are the Toeplitz matrix of the powers
    for n in range(1, 30):
        r = cm.exp_corr_matrix(n, rho)
        assert r.dtype == float
        assert np.array_equal(r, toeplitz(rho ** np.arange(n)))


def test_bs_correlation_is_separable():
    r = cm.bs_correlation((3, 2), 0.4)
    expected = np.kron(cm.exp_corr_matrix(3, 0.4), cm.exp_corr_matrix(2, 0.4))
    assert np.allclose(r, expected)
    assert r.shape == (6, 6)


def test_ris_correlation_matches_pairwise_distances():
    shape, spacing, lam = (3, 2), 0.031, 0.125
    pos = cm.ris_element_positions(shape, spacing)
    r = cm.ris_correlation(shape, spacing, lam)
    n = pos.shape[0]
    assert r.shape == (n, n)
    assert np.allclose(np.diag(r), 1.0)
    for i in range(n):
        for j in range(n):
            d = np.linalg.norm(pos[i] - pos[j])
            assert np.isclose(r[i, j], np.sinc(2.0 * d / lam))
    # the isotropic-scattering kernel must admit a real square root
    oracles.psd_sqrt(*cm._checked_eigh(r, "ris_corr"))


def _sinc_loop(shape, spacing, lam):
    pos = cm.ris_element_positions(shape, spacing)
    n = pos.shape[0]
    return np.array([[np.sinc(2.0 * np.linalg.norm(pos[i] - pos[j]) / lam)
                      for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field, value", [
    ("bs_shape", (4, 2)),
    ("bs_corr", 0.6),
    ("ris_shape", (3, 3)),
    ("ris_spacing_wavelengths", 0.4),
    ("wavelength_m", 0.3),
    ("alice_pos", (5.0, 10.0, 20.0)),
    ("pl_exp_alice_ris", 3.0),
    ("power_alice_w", 0.5),
])
def test_memoized_correlations_match_fresh_ones(field, value):
    # configs A, B, A: a memo keyed on too little would hand B's matrices,
    # gains or powers to A or A's to B
    cfg_a = cm.ScenarioConfig(eve_count=2)
    cfg_b = replace(cfg_a, **{field: value})
    for cfg in (cfg_a, cfg_b, cfg_a):
        corr = cm.build_correlations(cfg, np.random.default_rng(0))
        rho = cfg.bs_corr
        assert np.array_equal(corr.bs_corr, np.kron(
            cm.exp_corr_matrix(cfg.bs_shape[0], rho),
            cm.exp_corr_matrix(cfg.bs_shape[1], rho)))
        assert np.allclose(corr.ris_corr, _sinc_loop(
            cfg.ris_shape, cfg.ris_spacing_wavelengths * cfg.wavelength_m,
            cfg.wavelength_m), rtol=0.0, atol=1e-15)
        alice, ris = np.asarray(cfg.alice_pos), np.asarray(cfg.ris_pos)
        eve = cm.draw_eve_positions(cfg, np.random.default_rng(0))
        assert corr.beta_ar == cm.path_loss_gain(
            np.linalg.norm(alice - ris), cfg.pl_exp_alice_ris, cfg.ref_gain)
        assert np.array_equal(corr.beta_ae, cm.path_loss_gain(
            np.linalg.norm(eve - alice, axis=1), cfg.pl_exp_alice_eve,
            cfg.ref_gain))
        assert corr.power_alice == cfg.power_alice_w


def test_memo_hit_still_rejects_an_invalid_config():
    # the memo is keyed on the config, which is checked when built and
    # cannot change afterwards, so no invalid config reaches it, even one
    # with the geometry of a config already memoized
    cfg = cm.ScenarioConfig(eve_count=2)
    cm.build_correlations(cfg, np.random.default_rng(0))
    for field, value in (("trials", 0), ("seed", -1), ("bs_corr", 1.0),
                         ("bob_pos", cfg.alice_pos)):
        with pytest.raises(cm.ConfigError):
            replace(cfg, **{field: value})
    with pytest.raises(FrozenInstanceError):
        cfg.eve_radius_m = -1.0


def test_memoized_correlations_are_read_only():
    # two draws of one config share the memo's arrays: the same objects,
    # which no draw can edit under the others
    cfg = cm.ScenarioConfig(eve_count=2)
    one, two = (cm.build_correlations(cfg, np.random.default_rng(seed))
                for seed in (0, 1))
    assert not np.array_equal(one.rho_eve, two.rho_eve)
    names = ("bs_corr", "ris_corr", "ris_had")
    shared = [(getattr(one, name), getattr(two, name)) for name in names]
    shared += [*zip(one.bs_eigh, two.bs_eigh), *zip(one.ris_eigh, two.ris_eigh)]
    for arr, again in shared:
        assert arr is again
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0
    # list shapes and numpy scalars pass the checks and assembly as before
    cfg = cm.ScenarioConfig(ris_shape=[5, 4], bs_shape=(np.int64(5), 3),
                            bs_corr=np.float64(0.3), trials=np.int64(3),
                            alice_pos=[5.0, 0.0, 20.0])
    corr = cm.build_correlations(cfg, np.random.default_rng(0))
    assert corr.n_ris == 20 and corr.n_bs == 15


def test_non_psd_matrix_rejected_every_time():
    # each new set decomposes its matrices and checks them again
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    corr = oracles.random_corr(np.random.default_rng(4), n_bs=2, n_ris=3,
                               n_eve=1)
    for _ in range(2):
        with pytest.raises(ValueError, match="positive semidefinite"):
            replace(corr, bs_corr=bad)


def test_eve_cross_correlation_values():
    lam = 0.125
    assert np.isclose(cm.eve_cross_correlation(0.0, lam), 1.0)
    d = 0.4
    assert np.isclose(cm.eve_cross_correlation(d, lam),
                      j0(2 * np.pi * d / lam) ** 2)
    far = cm.eve_cross_correlation(50.0, lam)
    assert 0.0 <= far < 1e-2


@pytest.mark.parametrize("x", [
    np.linspace(0.0, 20.0, 20001),              # the trapezoid rule
    np.linspace(20.0, 1e4, 50001),              # the Hankel expansion
    np.linspace(19.0, 21.0, 4001).reshape(1, -1, 1),
    np.nextafter(20.0, [0.0, np.inf]),
    np.float64(7.5),
], ids=["near", "far", "split", "split-neighbours", "scalar"])
def test_bessel_j0_matches_scipy(x):
    got = cm.bessel_j0(x)
    assert got.shape == np.shape(x)
    assert np.abs(got - j0(x)).max() <= 1e-15
    assert np.array_equal(cm.bessel_j0(-x), got)


def test_bessel_j0_is_zero_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cm.bessel_j0(np.inf) == 0.0
        assert np.array_equal(cm.bessel_j0([np.inf, 0.0, -np.inf]),
                              [0.0, 1.0, 0.0])


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    mat = a @ a.conj().T
    root = oracles.psd_sqrt(*cm._checked_eigh(mat, "mat"))
    assert np.allclose(root @ root.conj().T, mat)
    with pytest.raises(ValueError):
        oracles.psd_sqrt(*cm._checked_eigh(np.diag([1.0, -1.0]), "mat"))


# ---------------------------------------------------------------------------
# scenario assembly


def test_draw_eve_positions_inside_disc():
    cfg = cm.ScenarioConfig(eve_count=200, eve_radius_m=5.0)
    pos = cm.draw_eve_positions(cfg, np.random.default_rng(0))
    assert pos.shape == (200, 3)
    assert np.all(pos[:, 2] == cfg.bob_pos[2])
    dist = np.linalg.norm(pos[:, :2] - np.asarray(cfg.bob_pos)[:2], axis=1)
    assert dist.max() <= cfg.eve_radius_m + 1e-12
    assert dist.min() < cfg.eve_radius_m  # not all on the rim
    # the same positions as from rng.uniform's draws
    rng = np.random.default_rng(0)
    r = cfg.eve_radius_m * np.sqrt(rng.uniform(size=cfg.eve_count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=cfg.eve_count)
    assert np.array_equal(pos, np.tile(cfg.bob_pos, (cfg.eve_count, 1))
                          + np.column_stack([r * np.cos(theta),
                                             r * np.sin(theta),
                                             np.zeros(cfg.eve_count)]))


def test_build_correlations_matches_geometry():
    cfg = cm.ScenarioConfig(eve_count=2)
    rng = np.random.default_rng(7)
    corr = cm.build_correlations(cfg, np.random.default_rng(7))
    pos = cm.draw_eve_positions(cfg, rng)

    n_bs, n_ris = np.prod(cfg.bs_shape), np.prod(cfg.ris_shape)
    assert corr.bs_corr.shape == (n_bs, n_bs)
    assert corr.ris_corr.shape == (n_ris, n_ris)
    alice = np.asarray(cfg.alice_pos)
    bob = np.asarray(cfg.bob_pos)
    ris = np.asarray(cfg.ris_pos)
    assert np.isclose(
        corr.beta_ab,
        cm.path_loss_gain(np.linalg.norm(alice - bob), cfg.pl_exp_alice_bob,
                          cfg.ref_gain))
    assert np.isclose(
        corr.beta_ar,
        cm.path_loss_gain(np.linalg.norm(alice - ris), cfg.pl_exp_alice_ris,
                          cfg.ref_gain))
    d_eve_bob = np.linalg.norm(pos - bob, axis=1)
    assert np.allclose(
        corr.rho_eve,
        cm.eve_cross_correlation(d_eve_bob, cfg.wavelength_m))
    assert np.allclose(
        corr.beta_re,
        cm.path_loss_gain(np.linalg.norm(pos - ris, axis=1),
                          cfg.pl_exp_ris_eve, cfg.ref_gain))
    assert np.isclose(corr.beta_cascade, corr.beta_ar * corr.beta_rb)


# ---------------------------------------------------------------------------
# sampling


def test_sample_channels_shapes_and_scale():
    rng = np.random.default_rng(11)
    corr = oracles.random_corr(rng, n_bs=3, n_ris=4, n_eve=2)
    draws = 4000
    acc_rb = 0.0
    acc_g = 0.0
    acc_ab = 0.0
    samp_rng = np.random.default_rng(5)
    for _ in range(draws):
        ch = oracles.sample_channels(corr, samp_rng)
        assert ch.g_ar.shape == (3, 4)
        assert ch.h_rb.shape == (4,)
        assert ch.h_re.shape == (2, 4)
        assert ch.h_ab.shape == (3,)
        acc_rb += np.sum(np.abs(ch.h_rb) ** 2)
        acc_g += np.sum(np.abs(ch.g_ar) ** 2)
        acc_ab += np.sum(np.abs(ch.h_ab) ** 2)
    n, m = corr.n_ris, corr.n_bs
    assert np.isclose(acc_rb / draws, corr.beta_rb * n, rtol=0.1)
    assert np.isclose(acc_g / draws, corr.beta_ar * n * m, rtol=0.1)
    assert np.isclose(acc_ab / draws, corr.beta_ab * m, rtol=0.1)


def test_sample_channels_colocated_eve_sees_bobs_channel():
    """A fully co-located eavesdropper antenna (rho = 1) observes exactly
    the user's normalized channels, draw by draw."""
    rng = np.random.default_rng(2)
    corr = oracles.random_corr(rng, n_eve=1)
    corr.rho_eve[:] = 1.0
    samp_rng = np.random.default_rng(8)
    for _ in range(5):
        ch = oracles.sample_channels(corr, samp_rng)
        assert np.allclose(ch.h_re[0] / np.sqrt(corr.beta_re[0]),
                           ch.h_rb / np.sqrt(corr.beta_rb))
        assert np.allclose(ch.h_ae[0] / np.sqrt(corr.beta_ae[0]),
                           ch.h_ab / np.sqrt(corr.beta_ab))


@pytest.mark.parametrize("rho", [-0.1, 1.5, np.nan])
def test_correlation_set_rejects_rho_outside_unit_interval(rho):
    corr = oracles.random_corr(np.random.default_rng(4), n_eve=2)
    with pytest.raises(ValueError, match="rho_eve"):
        cm.CorrelationSet(
            bs_corr=corr.bs_corr, ris_corr=corr.ris_corr,
            beta_ab=corr.beta_ab, beta_ar=corr.beta_ar, beta_rb=corr.beta_rb,
            beta_ae=corr.beta_ae, beta_re=corr.beta_re,
            rho_eve=np.array([0.5, rho]),
            power_alice=corr.power_alice, power_bob=corr.power_bob,
            noise_power=corr.noise_power)


def _rephased(mat, rng):
    """D R D^H with a random diagonal phase D: Hermitian, positive
    semidefinite and complex, with the same magnitudes as R."""
    d = np.exp(2j * np.pi * rng.uniform(size=mat.shape[0]))
    return d[:, None] * mat * np.conj(d)[None, :]


@pytest.mark.parametrize("name", ["bs_corr", "ris_corr"])
def test_correlation_set_rejects_complex_correlation(name):
    rng = np.random.default_rng(5)
    corr = oracles.random_corr(rng, n_eve=2)
    mat = getattr(corr, name)
    with pytest.raises(ValueError, match=name):
        replace(corr, **{name: _rephased(mat, rng)})
    # a complex dtype with zero imaginary parts is the real matrix
    real = getattr(replace(corr, **{name: mat.astype(complex)}), name)
    assert real.dtype == float and np.array_equal(real, mat)


@pytest.mark.parametrize("name", ["bs_corr", "ris_corr"])
def test_correlation_set_rejects_non_psd_correlation(name):
    corr = oracles.random_corr(np.random.default_rng(6), n_eve=2)
    mat = getattr(corr, name).copy()
    mat[0, 0] = -1.0    # symmetric and real, with a negative eigenvalue
    with pytest.raises(ValueError, match=f"{name} is not positive semidef"):
        replace(corr, **{name: mat})


def test_simulate_probing_matches_analytic_covariance():
    rng = np.random.default_rng(21)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=1)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    obs_a, obs_b, obs_e = cm.simulate_probing(
        corr, w, v, np.random.default_rng(99), rounds=200_000)
    assert obs_a.shape == (200_000,)
    assert obs_e.shape == (200_000, 1)
    emp = oracles.empirical_covariance_blocks(
        obs_a, obs_b, obs_e, corr.noise_power, float(np.vdot(w, w).real))
    ana = oracles.covariance_blocks(corr, w, v)
    for name in ("aa", "bb", "ab", "ee", "be", "ae"):
        got = np.atleast_1d(getattr(emp, name)).astype(complex)
        want = np.atleast_1d(getattr(ana, name)).astype(complex)
        assert np.allclose(got, want, rtol=0.03, atol=0.03 * abs(ana.bb))


def test_simulate_probing_deterministic_and_chunk_invariant(monkeypatch):
    rng = np.random.default_rng(33)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    ref = cm.simulate_probing(corr, w, v, np.random.default_rng(5), 300)
    for block in (64, 7, 300, 1000):
        monkeypatch.setattr(cm, "_PROBE_BLOCK", block)
        got = cm.simulate_probing(corr, w, v, np.random.default_rng(5), 300)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


def test_simulate_probing_without_eve_keeps_alice_and_bob(monkeypatch):
    rng = np.random.default_rng(34)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    # several blocks, so Eve's draws would shift later ones if they shared
    # the legitimate stream
    monkeypatch.setattr(cm, "_PROBE_BLOCK", 64)
    a1, b1, e1 = cm.simulate_probing(corr, w, v, np.random.default_rng(6), 500)
    a2, b2, e2 = cm.simulate_probing(corr, w, v, np.random.default_rng(6), 500,
                                     eve=False)
    assert e1.shape == (500, 2)
    assert e2 is None
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_simulate_probing_with_the_surface_off_is_the_direct_link_alone(
        monkeypatch):
    # v = 0 zeroes the cascade, so its exponential stream (the first
    # spawned one) is not drawn; the legitimate pair still comes from the
    # second, two scalars per round, and both outputs are the direct-only
    # closed form with the shared variance g = beta_ab D^2
    rng = np.random.default_rng(35)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    w = oracles.random_combiner(rng, corr)
    v = np.zeros(corr.n_ris, dtype=complex)
    rounds = 500
    monkeypatch.setattr(cm, "_PROBE_BLOCK", 64)
    alice, bob, _ = cm.simulate_probing(corr, w, v, np.random.default_rng(7),
                                        rounds)
    _, leg_rng, _ = np.random.default_rng(7).spawn(3)
    z_1, z_2 = cm._cn(leg_rng, rounds, 2).T
    sig2, pb = corr.noise_power, corr.power_bob
    x_d = np.sqrt(corr.beta_ab) * np.sqrt(np.vdot(w, corr.bs_corr @ w).real)
    g = x_d * x_d
    root_tot = np.sqrt(g + sig2)
    assert np.array_equal(bob, root_tot * z_1)
    assert np.array_equal(
        alice, (np.sqrt(pb) * g / root_tot * z_1
                + np.sqrt(sig2 * np.vdot(w, w).real + pb * g * sig2
                          / (g + sig2)) * z_2))


def test_simulate_probing_rejects_a_zero_combiner():
    corr = oracles.random_corr(np.random.default_rng(36), n_eve=2)
    v = np.ones(corr.n_ris, dtype=complex)
    with pytest.raises(ValueError, match="w must be nonzero"):
        cm.simulate_probing(corr, np.zeros(corr.n_bs), v,
                            np.random.default_rng(0), 10)


def test_simulate_probing_matches_eve_cross_antenna_covariance():
    """Eve's antennas are coupled only through the parts of their channels
    correlated with Bob's; the per-antenna gate above sees the diagonal."""
    rng = np.random.default_rng(22)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=3,
                               rho_eve_max=0.99)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    _, _, eve = cm.simulate_probing(corr, w, v, np.random.default_rng(98),
                                    rounds=200_000)
    emp = eve.T @ eve.conj() / eve.shape[0]
    ana = oracles.eve_covariance(corr, w, v)
    assert np.all(ana[~np.eye(corr.n_eve, dtype=bool)] > 0)
    assert np.allclose(emp, ana, rtol=0.03, atol=0.03 * np.diag(ana).min())


def _probing_from_channel_draws(corr, w, v, rng, rounds):
    """Observation sequences assembled round by round from full channel
    draws: shared = w^T G diag(v) h_rb + h_ab^T w, Alice sees
    sqrt(P_b) shared + sigma n^T w, Bob shared + sigma n, Eve antenna k
    w^T G diag(v) h_re,k + h_ae,k^T w + sigma n."""
    sig = np.sqrt(corr.noise_power)
    alice = np.empty(rounds, dtype=complex)
    bob = np.empty(rounds, dtype=complex)
    eve = np.empty((rounds, corr.n_eve), dtype=complex)
    for r in range(rounds):
        ch = oracles.sample_channels(corr, rng)
        wg = w @ ch.g_ar
        shared = wg @ (v * ch.h_rb) + ch.h_ab @ w
        alice[r] = (np.sqrt(corr.power_bob) * shared
                    + sig * (cm._cn(rng, corr.n_bs) @ w))
        bob[r] = shared + sig * cm._cn(rng, 1)[0]
        eve[r] = (ch.h_re * v) @ wg + ch.h_ae @ w + sig * cm._cn(rng, corr.n_eve)
    return alice, bob, eve


def test_simulate_probing_matches_channel_draws_in_law():
    """The sufficient-statistic sampler against full channel draws, beyond
    second moments: a Gaussian with the right covariance fails the KS
    tests here, because the reflected path dominates and its magnitude is
    a product of a generalized chi and a Rayleigh factor."""
    rng = np.random.default_rng(41)
    corr = oracles.random_corr(rng, n_bs=3, n_ris=4, n_eve=2)
    corr.beta_ab = 0.02
    corr.noise_power = 0.02
    w = oracles.random_combiner(rng, corr, full_power=True)
    v = oracles.random_reflect(rng, corr, unit_modulus=True)
    rounds = 5000
    ref = _probing_from_channel_draws(corr, w, v, np.random.default_rng(42),
                                      rounds)
    got = cm.simulate_probing(corr, w, v, np.random.default_rng(43), rounds)

    def laws(alice, bob, eve):
        """Marginal magnitudes, then the joint laws the marginals miss:
        products of magnitudes and Bob's phase against Eve's."""
        return (np.abs(alice), np.abs(bob), np.abs(eve[:, 0]),
                np.abs(alice) * np.abs(bob), np.abs(bob) * np.abs(eve[:, 0]),
                np.angle(bob * np.conj(eve[:, 0])))

    for want, have in zip(laws(*ref), laws(*got)):
        assert ks_2samp(want, have).pvalue > 1e-3

    def bdr(alice, bob):
        return bit_disagreement(quantize_median_bits(np.abs(alice)),
                                quantize_median_bits(np.abs(bob)))

    want, have = bdr(ref[0], ref[1]), bdr(got[0], got[1])
    se = np.sqrt(want * (1.0 - want) * 2.0 / rounds)
    assert abs(have - want) <= 4.0 * se


def _power_points(corr, w, scales):
    """The set and combiner of ``corr`` and ``w`` at each power scale:
    both ends' powers times the scale, and w times its square root."""
    return ([replace(corr, power_alice=c * corr.power_alice,
                     power_bob=c * corr.power_bob) for c in scales],
            np.stack([np.sqrt(c) * w for c in scales]))


@pytest.mark.parametrize("eve", [False, True])
def test_stacked_probe_equals_its_single_design_probes(eve, monkeypatch):
    # point p of a stacked call is the call on its own design and set, bit
    # for bit, whatever the block; the third point has the surface off, so
    # it reads none of the exponentials the others share
    rng = np.random.default_rng(37)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    w = oracles.random_combiner(rng, corr)
    corrs, ws = _power_points(corr, w, (1.0, 10.0, 0.1))
    vs = np.stack([oracles.random_reflect(rng, corr),
                   oracles.random_reflect(rng, corr),
                   np.zeros(corr.n_ris, dtype=complex)])
    for points in (2, 3):
        for block in (64, 7, 300, 1000):
            monkeypatch.setattr(cm, "_PROBE_BLOCK", block)
            got = cm.simulate_probing(corrs[:points], ws[:points],
                                      vs[:points], np.random.default_rng(5),
                                      300, eve=eve)
            assert got[0].shape == got[1].shape == (points, 300)
            for p in range(points):
                alone = cm.simulate_probing(corrs[p], ws[p], vs[p],
                                            np.random.default_rng(5), 300,
                                            eve=eve)
                assert np.array_equal(got[0][p], alone[0])
                assert np.array_equal(got[1][p], alone[1])
                if eve:
                    assert got[2].shape == (points, 300, corr.n_eve)
                    assert np.array_equal(got[2][p], alone[2])
                else:
                    assert got[2] is None and alone[2] is None


def _paper_trial_stack():
    """The 21 (power, method) designs of one paper-preset ``bdr_vs_power``
    trial (N = 20, K = 10, ``no_ris`` among the methods), each on its
    power's draw, as the harness stacks them for one probe."""
    cfg = build_config("paper", trials=1)
    corrs, ws, vs = [], [], []
    for si, (_, sub) in enumerate(hn._sweep_configs(cfg, "bdr_vs_power")):
        draw = hn._draw(sub, 0)
        for w, v, _ in hn._designs(sub, si, draw):
            corrs.append(draw)
            ws.append(w[0])
            vs.append(v[0])
    return corrs, np.stack(ws), np.stack(vs)


@pytest.mark.parametrize("eve", [False, True])
def test_stacked_probe_equals_its_single_design_probes_at_paper_size(eve):
    # at N = 20 the product E @ lambda can give a round other bits in a
    # block of another length, so the block lengths here (two full, one
    # of 3 rounds) are checked at the size the experiments run
    corrs, ws, vs = _paper_trial_stack()
    assert len(corrs) == 21 and corrs[0].n_ris == 20 and corrs[0].n_eve == 10
    assert np.count_nonzero(~vs.any(axis=1)) == 7      # no_ris at each power
    rounds = 2 * cm._PROBE_BLOCK + 3
    got = cm.simulate_probing(corrs, ws, vs, np.random.default_rng(5),
                              rounds, eve=eve)
    for p in range(len(corrs)):
        alone = cm.simulate_probing(corrs[p], ws[p], vs[p],
                                    np.random.default_rng(5), rounds,
                                    eve=eve)
        assert np.array_equal(got[0][p], alone[0]), p
        assert np.array_equal(got[1][p], alone[1]), p
        if eve:
            assert np.array_equal(got[2][p], alone[2]), p
        else:
            assert got[2] is None and alone[2] is None


@pytest.mark.parametrize("blocks", [3, 12])
def test_probe_memory_beyond_its_outputs_is_under_one_block(blocks):
    # N = 60: the paper's largest surface; three designs, one with the
    # surface off.  Past the outputs and the ||u||^2 rows, the call holds
    # one block of exponentials at most, whatever the number of rounds
    cfg = build_config("paper", "ris_shape = 5x12", trials=1)
    corr = cm.build_correlations(cfg, np.random.default_rng(0))
    designs = hn._designs(cfg, 0, corr)
    ws = np.stack([w[0] for w, _, _ in designs])
    vs = np.stack([v[0] for _, v, _ in designs])
    rounds = blocks * cm._PROBE_BLOCK + 1
    tracemalloc.start()
    try:
        alice, bob, _ = cm.simulate_probing(
            [corr] * len(designs), ws, vs, np.random.default_rng(1), rounds,
            eve=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    u_rows = np.count_nonzero(vs.any(axis=1)) * rounds * 8
    assert peak - alice.nbytes - bob.nbytes - u_rows < (
        cm._PROBE_BLOCK * corr.n_ris * 8)


def test_stacked_probe_rejects_points_that_cannot_share_draws():
    rng = np.random.default_rng(38)
    corr = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=2)
    w = oracles.random_combiner(rng, corr)
    v = oracles.random_reflect(rng, corr)
    more_eve = oracles.random_corr(rng, n_bs=2, n_ris=3, n_eve=3)
    with pytest.raises(ValueError, match="share N and K"):
        cm.simulate_probing([corr, more_eve], [w, w], [v, v],
                            np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="same number of points"):
        cm.simulate_probing([corr], [w, w], [v, v],
                            np.random.default_rng(0), 10)


def test_stacked_probe_matches_channel_draws_in_law_at_two_powers():
    """Each point of a stacked call keeps the law of full channel draws at
    its own power, although the points share their draws."""
    rng = np.random.default_rng(44)
    corr = oracles.random_corr(rng, n_bs=3, n_ris=4, n_eve=2)
    corr.beta_ab = 0.02
    corr.noise_power = 0.2
    w = oracles.random_combiner(rng, corr, full_power=True)
    v = oracles.random_reflect(rng, corr, unit_modulus=True)
    corrs, ws = _power_points(corr, w, (1.0, 10.0))
    rounds = 4000
    got = cm.simulate_probing(corrs, ws, np.stack([v, v]),
                              np.random.default_rng(45), rounds)
    for p, (corr_p, w_p) in enumerate(zip(corrs, ws)):
        ref = _probing_from_channel_draws(corr_p, w_p, v,
                                          np.random.default_rng(46 + p),
                                          rounds)
        have = [x[p] for x in got]
        for want_law, have_law in zip(
                (np.abs(ref[0]), np.abs(ref[1]), np.abs(ref[2][:, 0]),
                 np.abs(ref[0]) * np.abs(ref[1])),
                (np.abs(have[0]), np.abs(have[1]), np.abs(have[2][:, 0]),
                 np.abs(have[0]) * np.abs(have[1]))):
            assert ks_2samp(want_law, have_law).pvalue > 1e-3, p
        want = bit_disagreement(quantize_median_bits(np.abs(ref[0])),
                                quantize_median_bits(np.abs(ref[1])))
        bdr = bit_disagreement(quantize_median_bits(np.abs(have[0])),
                               quantize_median_bits(np.abs(have[1])))
        se = np.sqrt(want * (1.0 - want) * 2.0 / rounds)
        assert abs(bdr - want) <= 4.0 * se, p
