"""Spatially correlated channel model for a RIS-assisted key-generation link.

Geometry: a multi-antenna base station (Alice), a single-antenna user (Bob),
a reflecting surface with N passive elements, and a K-antenna eavesdropper
(Eve) near Bob.  Every channel is correlated Rayleigh with a Kronecker
structure: exponential Toeplitz correlation across the base-station planar
array, sinc (isotropic-scattering) correlation across the surface, and a
Bessel-J0^2 cross-correlation between Bob's channel and each Eve antenna
depending on their separation in wavelengths.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import get_args, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """Raised when a scenario config file or object fails validation."""


def db_to_linear(x_db):
    """Linear from dB; a value too large for a float comes out inf, without
    an overflow warning, for the config's finiteness check to reject."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watts(x_dbm):
    """Watts from dBm, by ``db_to_linear``'s overflow rule."""
    return db_to_linear(np.asarray(x_dbm, dtype=float) - 30.0)


def _finite(value):
    """Whether a number, or every number in nested tuples, is finite."""
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return math.isfinite(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation scenario: an immutable value,
    checked when it is built.

    Positions are metres, powers watts (config files carry dBm/dB and are
    converted once at load time).  Array shapes are (horizontal, vertical)
    element counts.  Construction converts each value to its field's
    annotation (``_as_kind``), so a list or NumPy scalar makes the same
    config as the plain tuple or number, and a string is read as a config
    file writes the field (``"5x4"``, ``"optimized, no_ris"``); then it
    checks the config.  A value that does not convert or a failed check
    raises ConfigError.
    """

    alice_pos: tuple[float, float, float] = (5.0, 0.0, 20.0)
    bob_pos: tuple[float, float, float] = (3.0, 100.0, 0.0)
    ris_pos: tuple[float, float, float] = (0.0, 60.0, 2.0)
    bs_shape: tuple[int, int] = (5, 3)
    ris_shape: tuple[int, int] = (5, 4)
    bs_corr: float = 0.3
    ris_spacing_wavelengths: float = 0.25
    wavelength_m: float = 0.125
    eve_count: int = 10
    eve_radius_m: float = 5.0
    power_alice_w: float = 0.1
    power_bob_w: float = 0.1
    noise_power_w: float = 1e-11
    ref_gain: float = 1e-3
    pl_exp_alice_bob: float = 4.0
    pl_exp_alice_ris: float = 3.5
    pl_exp_ris_bob: float = 2.0
    pl_exp_alice_eve: float = 4.0
    pl_exp_ris_eve: float = 2.0
    # settings of the BSUM reference solver (bsum.optimize_design); no
    # experiment runs it, but perfbench/checks.py passes these four and
    # perfbench/tests sets inner_max_iters
    bsum_tol: float = 1e-4
    bsum_max_iters: int = 200
    inner_tol: float = 1e-6
    inner_max_iters: int = 2000
    trials: int = 50
    seed: int = 1234
    probe_rounds: int = 10000
    methods: tuple[str, ...] = ("optimized", "iid_ris", "no_ris")
    sweep_power_dbm: tuple[float, ...] = ()
    sweep_ris_shapes: tuple[tuple[int, int], ...] = ()
    sweep_bs_shapes: tuple[tuple[int, int], ...] = ()
    sweep_eve_radius_m: tuple[float, ...] = ()

    def __post_init__(self):
        for name, kind in _KINDS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _as_kind(value, kind))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {value!r} for {name}: "
                                  f"{exc}") from exc
        for f in fields(self):
            if f.name != "methods" and not _finite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        # every link's path loss divides by its length
        for a, b in (("alice_pos", "bob_pos"), ("alice_pos", "ris_pos"),
                     ("bob_pos", "ris_pos")):
            if getattr(self, a) == getattr(self, b):
                raise ConfigError(f"{a} and {b} must be different points")
        # every point, Eve's antennas included, lies within ``reach`` of the
        # origin per coordinate, so no link's squared length (np.linalg.norm
        # sums the squares) exceeds 12 reach^2; an inf there ends as NaN rates
        reach = max(abs(c) for p in (self.alice_pos, self.bob_pos, self.ris_pos)
                    for c in p) + abs(self.eve_radius_m)
        if not math.isfinite(12.0 * reach * reach):
            raise ConfigError("positions and eve_radius_m are too large: "
                              "link lengths overflow")
        if not self.methods:
            raise ConfigError("methods must name at least one design")
        # result rows are keyed by method and sweep value, so a repeat in a
        # list field would write rows that cannot be told apart
        for name in _LISTS:
            keys = [sweep_value(k) for k in getattr(self, name)]
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name} repeats a value")
        if min(self.bs_shape) < 1 or min(self.ris_shape) < 1:
            raise ConfigError("array shapes must have positive element counts")
        if not 0.0 <= self.bs_corr < 1.0:
            raise ConfigError("bs_corr must lie in [0, 1)")
        if self.eve_count < 1:
            raise ConfigError("eve_count must be at least 1")
        if self.eve_radius_m < 0:
            raise ConfigError("eve_radius_m must be non-negative")
        for name in ("power_alice_w", "power_bob_w", "noise_power_w",
                     "ref_gain", "wavelength_m", "ris_spacing_wavelengths"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # no two surface elements lie more than ``span`` wavelengths apart
        # per axis, so their squared distance in metres (np.linalg.norm) and
        # their distance times 2 pi in wavelengths (np.sinc) stay finite
        span = max(self.ris_shape) * self.ris_spacing_wavelengths
        span_m = span * self.wavelength_m
        if not math.isfinite(2.0 * span_m * span_m + 9.0 * span):
            raise ConfigError("ris_spacing_wavelengths and wavelength_m are "
                              "too large: surface element distances overflow")
        # the spacing in metres must not square to a subnormal (R_ris
        # inexact) or to 0 (R_ris all ones), and Eve's phase 2 pi d / lambda
        # (eve_cross_correlation) must stay finite; her d to Bob is < 2 reach
        spacing_m = self.ris_spacing_wavelengths * self.wavelength_m
        if (spacing_m * spacing_m < np.finfo(float).tiny or not
                math.isfinite(4.0 * math.pi * reach / self.wavelength_m)):
            raise ConfigError("ris_spacing_wavelengths and wavelength_m are "
                              "too small: element spacings or Eve's phases "
                              "leave the float range")
        if self.bsum_tol <= 0 or self.inner_tol <= 0:
            raise ConfigError("solver tolerances must be positive")
        if self.bsum_max_iters < 1 or self.inner_max_iters < 1:
            raise ConfigError("solver iteration caps must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.probe_rounds < 2:
            raise ConfigError("probe_rounds must be at least 2")


# Config-file keys holding dB/dBm quantities and the linear field they map to.
_DB_KEYS = {
    "power_alice_dbm": "power_alice_w",
    "power_bob_dbm": "power_bob_w",
    "noise_dbm": "noise_power_w",
    "ref_gain_db": "ref_gain",
}

# each field's parse kind, its annotation resolved once, and the list fields
_KINDS = get_type_hints(ScenarioConfig)
_LISTS = tuple(name for name, kind in _KINDS.items()
               if get_args(kind)[-1:] == (Ellipsis,))


def _as_kind(value, kind):
    """``value`` as ``kind``, a field annotation: int, float, str, a fixed
    tuple or a ``tuple[X, ...]``.  A string is read as a config file writes
    it: HxV for two ints (``5x3``), a comma list for other tuples, a str
    stripped.  Anything else converts as a Python value: an int through
    ``operator.index`` (so 2.5 is refused, not cut to 2), a tuple element
    by element, a fixed tuple at its own length.  Bytes, which would
    convert byte by byte, and a bool for a number are refused."""
    if isinstance(value, (bytes, bytearray)) or (
            kind in (int, float) and isinstance(value, (bool, np.bool_))):
        raise TypeError(f"a {type(value).__name__} is not a config value")
    text = isinstance(value, str)
    if kind is int:
        return int(value) if text else operator.index(value)
    if kind is float:
        return float(value)
    if kind is str:
        return value.strip() if text else str(value)
    args = get_args(kind)
    if text:
        value = (value.lower().replace("*", "x").split("x")
                 if args == (int, int) else value.split(","))
        if args[-1] is Ellipsis:    # so a list may be empty or end in ","
            value = [part for part in value if part.strip()]
    if args[-1] is Ellipsis:
        return tuple(_as_kind(x, args[0]) for x in value)
    value = tuple(value)
    if len(value) != len(args):
        raise ValueError(f"expected {len(args)} values")
    return tuple(map(_as_kind, value, args))


def sweep_value(value):
    """How a result row names an entry of a list field: a shape by its
    element count, anything else as it is."""
    return value[0] * value[1] if isinstance(value, tuple) else value


def parse_config_values(text):
    """Parse flat ``key = value`` lines into a dict of config fields.

    Unknown keys, malformed values and a field set twice (by its own key or
    its dB key) raise ConfigError.  dBm/dB keys are converted here only.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if (field := _DB_KEYS.get(key, key)) in values:
            raise ConfigError(f"line {lineno}: {field} is already set")
        if key in _DB_KEYS:
            conv = dbm_to_watts if key.endswith("_dbm") else db_to_linear
            try:
                values[_DB_KEYS[key]] = float(conv(float(val)))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad number {val!r}") from exc
            continue
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _as_kind(val, _KINDS[key])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}: "
                              f"{exc}") from exc
    return values


def config_hash(config):
    """Stable hash of the resolved config, for run manifests."""
    text = "\n".join(f"{name}={getattr(config, name)!r}"
                     for name in sorted(_KINDS))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# correlation matrices


def exp_corr_matrix(n, rho):
    """Exponential Toeplitz correlation, entry (i, j) = rho^|i-j|."""
    if n < 1:
        raise ValueError("n must be positive")
    idx = np.arange(n)
    return (float(rho) ** idx)[abs(idx[:, None] - idx)]


def bs_correlation(shape, rho):
    """Planar-array correlation as the Kronecker product of the horizontal
    and vertical exponential factors (horizontal-major element order)."""
    n_h, n_v = shape
    return np.kron(exp_corr_matrix(n_h, rho), exp_corr_matrix(n_v, rho))


def ris_element_positions(shape, spacing_m):
    """Element coordinates of the surface's planar grid, horizontal-major
    (vertical index fastest), in its own y-z plane.  Returns (N, 2)."""
    n_h, n_v = shape
    idx_h, idx_v = np.meshgrid(np.arange(n_h), np.arange(n_v), indexing="ij")
    return np.column_stack([idx_h.ravel(), idx_v.ravel()]) * spacing_m


def ris_correlation(shape, spacing_m, wavelength_m):
    """Isotropic-scattering correlation sinc(2 d / lambda) between surface
    elements at distance d (np.sinc already includes the pi factors)."""
    pos = ris_element_positions(shape, spacing_m)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return np.sinc(2.0 * dist / wavelength_m)


# J0 below _J0_SPLIT: the mean of cos(x sin t) over 48 equally spaced t in
# [0, pi), the trapezoid rule for (1/pi) int_0^pi cos(x sin t) dt.  The
# integrand has period pi, so the rule's error is 2 J_96(x), below 1e-40
# for x < 20: the rule is exact to rounding.
_J0_SPLIT = 20.0
_J0_SIN = np.sin(np.pi * np.arange(48) / 48)


def _hankel_coefficients(terms):
    """(2 terms, 2) columns of the P and Q series of J0's Hankel expansion
    (Abramowitz & Stegun 9.2.5) in powers 1/x^k, k < 2 terms: P takes the
    even k, Q the odd, each signed (-1)^(k // 2), from
    a_k = -a_(k-1) (2k - 1)^2 / (8k), a_0 = 1."""
    coef = np.zeros((2 * terms, 2))
    a = 1.0
    for k in range(2 * terms):
        if k:
            a *= -(2 * k - 1) ** 2 / (8 * k)
        coef[k, k % 2] = (-1) ** (k // 2) * a
    return coef


# 14 terms each (at x = 20 the first one dropped is below 1e-17), scaled by
# sqrt(2 / pi) and taken at the powers x^-(k + 1/2), so that they sum to
# the expansion's amplitude sqrt(2 / (pi x)) times P and Q
_J0_HANKEL = np.sqrt(2.0 / np.pi) * _hankel_coefficients(14)
_J0_POWERS = -0.5 - np.arange(len(_J0_HANKEL))
_FLOAT_MAX = np.finfo(float).max


def bessel_j0(x):
    """Bessel function of the first kind of order 0, elementwise; within
    1e-15 of scipy.special.j0.  From 20 on the Hankel expansion
    sqrt(2 / (pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)), so that
    J0(inf) = 0 without a warning; below 20 a trapezoid rule on its
    integral, evaluated for those arguments only.  Both series are summed
    per element, not by a matrix product, whose order of summation can
    change with the number of arguments, so no value depends on the
    others in the call."""
    x = np.abs(np.asarray(x, dtype=float))
    far = np.maximum(x, _J0_SPLIT)
    pq = np.einsum("...k,kj->...j", far[..., None] ** _J0_POWERS, _J0_HANKEL)
    # inf as the largest float keeps cos and sin finite; its amplitude is 0
    chi = np.minimum(far, _FLOAT_MAX) - np.pi / 4
    out = pq[..., 0] * np.cos(chi) - pq[..., 1] * np.sin(chi)
    near = x < _J0_SPLIT
    if near.any():
        out = np.asarray(out)     # a NumPy scalar for a 0-d x
        out[near] = np.cos(x[near][:, None] * _J0_SIN).sum(axis=-1) / 48
    return out


def eve_cross_correlation(distance_m, wavelength_m):
    """Channel-gain correlation [J0(2 pi d / lambda)]^2 between two antennas
    separated by d in an isotropic scattering field."""
    return bessel_j0(2.0 * np.pi * np.asarray(distance_m, dtype=float)
                     / wavelength_m) ** 2


def path_loss_gain(distance_m, exponent, ref_gain):
    """Large-scale channel-variance factor sqrt(ref_gain * d^-alpha) at the
    given distance; the exponent broadcasts against it.  A factor too large
    for a float comes out inf, without an overflow warning, for the
    caller's finiteness check to reject."""
    with np.errstate(over="ignore"):
        return np.sqrt(ref_gain * np.asarray(distance_m, dtype=float)
                       ** -np.asarray(exponent, dtype=float))


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _checked_eigh(mat, name):
    """Read-only ``np.linalg.eigh(mat)``; ValueError unless ``mat`` is
    positive semidefinite."""
    vals, vecs = map(_frozen, np.linalg.eigh(mat))
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        raise ValueError(f"{name} is not positive semidefinite "
                         f"(min eigenvalue {vals.min():.3e})")
    return vals, vecs


# ---------------------------------------------------------------------------
# assembled statistics


@dataclass
class CorrelationSet:
    """Second-order statistics of one scenario draw.

    ``rho_eve[k]`` in [0, 1] is the only link between Eve and Bob: the
    normalized surface and direct channels of Eve antenna k have
    cross-covariance rho_k I with Bob's, so its surface-side cross matrix
    is rho_k (R_ris o R_ris) and its base-station-side one rho_k R_bs.
    ``bs_corr`` and ``ris_corr`` must be real and positive semidefinite;
    anything else raises ValueError.  Construction builds, as read-only
    attributes, what the design, the key rate and probing read: one
    decomposition of each matrix, ``bs_eigh``/``ris_eigh`` (eigenvalues
    ascending, eigenvectors; the PSD check and the probe's cascade factor
    read them too), and ``ris_had`` = R_ris o R_ris.  One set is built per
    geometry, and copies made by ``with_values`` share these arrays.
    """

    bs_corr: np.ndarray
    ris_corr: np.ndarray
    beta_ab: float
    beta_ar: float
    beta_rb: float
    beta_ae: np.ndarray
    beta_re: np.ndarray
    rho_eve: np.ndarray
    power_alice: float
    power_bob: float
    noise_power: float

    def __post_init__(self):
        # the gains use R o R and plain transposes: right for real R only
        for name in ("bs_corr", "ris_corr"):
            mat = np.asarray(getattr(self, name))
            if np.iscomplexobj(mat) and np.any(mat.imag != 0):
                raise ValueError(f"{name} must be real")
            setattr(self, name, mat.real)
        self.bs_eigh = _checked_eigh(self.bs_corr, "bs_corr")
        self.ris_eigh = _checked_eigh(self.ris_corr, "ris_corr")
        self.ris_had = _frozen(self.ris_corr * self.ris_corr)
        self.beta_ae = np.atleast_1d(np.asarray(self.beta_ae, dtype=float))
        self.beta_re = np.atleast_1d(np.asarray(self.beta_re, dtype=float))
        self.rho_eve = np.atleast_1d(np.asarray(self.rho_eve, dtype=float))
        if not np.all((self.rho_eve >= 0.0) & (self.rho_eve <= 1.0)):
            raise ValueError("rho_eve must lie in [0, 1]")

    def with_values(self, **values):
        """This set with the named attributes replaced (its powers, or an
        eavesdropper: ``beta_ae``, ``beta_re`` and ``rho_eve`` in [0, 1],
        each with the antenna first; the key rate lets further axes carry a
        stack of draws, see ``kgr_core``).  A shallow copy, checked no
        further: the arrays built at construction carry over."""
        # the shallow copy copy.copy makes, at a third of its cost
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **values)
        return out

    @property
    def n_bs(self):
        return self.bs_corr.shape[0]

    @property
    def n_ris(self):
        return self.ris_corr.shape[0]

    @property
    def n_eve(self):
        return self.beta_ae.shape[0]

    @property
    def beta_cascade(self):
        """Two-hop variance weight on the reciprocal surface path."""
        return self.beta_ar * self.beta_rb

    @property
    def beta_cascade_eve(self):
        return self.beta_ar * self.beta_re


def draw_eve_positions(config, rng):
    """Uniform placement of Eve's antennas in a disc of radius eve_radius_m
    around Bob at Bob's height.  ``rng.random`` draws the same numbers as
    ``rng.uniform``, with less overhead per call."""
    r = config.eve_radius_m * np.sqrt(rng.random(config.eve_count))
    theta = 2.0 * np.pi * rng.random(config.eve_count)
    pos = np.full((config.eve_count, 3), config.bob_pos)
    pos[:, 0] += r * np.cos(theta)
    pos[:, 1] += r * np.sin(theta)
    return pos


@lru_cache(maxsize=64)
def _fixed_statistics(bs_shape, bs_corr, ris_shape, spacing_m, wavelength_m,
                      alice_pos, bob_pos, ris_pos, exponents, ref_gain):
    """One geometry's read-only CorrelationSet, cached on exactly the values
    it reads (``exponents``: Alice-Bob, Alice-surface, surface-Bob): no
    powers (None, so a read before they are set fails) and no eavesdropper.
    A fixed link's gain that overflows raises ConfigError."""
    alice, bob, ris = map(np.asarray, (alice_pos, bob_pos, ris_pos))
    beta_ab, beta_ar, beta_rb = (
        float(path_loss_gain(np.linalg.norm(a - b), exponent, ref_gain))
        for (a, b), exponent in zip(((alice, bob), (alice, ris), (ris, bob)),
                                    exponents))
    if not _finite((beta_ab, beta_ar, beta_rb)):
        raise ConfigError("a fixed link's path gain overflows: check the "
                          "pl_exp_* exponents and ref_gain")
    return CorrelationSet(
        bs_corr=_frozen(bs_correlation(bs_shape, bs_corr)),
        ris_corr=_frozen(ris_correlation(ris_shape, spacing_m, wavelength_m)),
        beta_ab=beta_ab, beta_ar=beta_ar, beta_rb=beta_rb,
        beta_ae=(), beta_re=(), rho_eve=(),
        power_alice=None, power_bob=None, noise_power=None)


def point_statistics(config):
    """What every draw of a sweep point shares, and all a design may read of
    it: the geometry's cached set (``_fixed_statistics``) with the config's
    powers set on a shallow copy, and no eavesdropper (K = 0).  Configs that
    differ only in power, trials, seed, methods or sweeps share its
    read-only arrays, so a power sweep builds and decomposes each matrix
    once.  A fixed link's gain that overflows raises ConfigError."""
    return _fixed_statistics(
        config.bs_shape, config.bs_corr, config.ris_shape,
        config.ris_spacing_wavelengths * config.wavelength_m,
        config.wavelength_m, config.alice_pos, config.bob_pos,
        config.ris_pos, (config.pl_exp_alice_bob, config.pl_exp_alice_ris,
                         config.pl_exp_ris_bob), config.ref_gain,
    ).with_values(power_alice=config.power_alice_w,
                  power_bob=config.power_bob_w,
                  noise_power=config.noise_power_w)


def build_correlations(config, rng):
    """Assemble a CorrelationSet for one Monte-Carlo trial: the point's
    ``point_statistics`` with an eavesdropper added by ``with_values``, so
    every trial shares the geometry's read-only arrays.

    The only randomness is Eve's placement.  The positions of Alice, the
    surface and Bob, and the path-loss exponents of Eve's two links, are
    read from the config.  An eavesdropper's path gain that overflows
    raises ConfigError, as a fixed link's does.
    """
    shared = point_statistics(config)
    diff = draw_eve_positions(config, rng) - np.array(
        [config.alice_pos, config.ris_pos, config.bob_pos])[:, None]
    # each antenna's distance to Alice, the surface and Bob, as
    # np.linalg.norm computes it
    dist = np.sqrt(np.add.reduce(diff * diff, -1))
    gains = path_loss_gain(
        dist[:2], [[config.pl_exp_alice_eve], [config.pl_exp_ris_eve]],
        config.ref_gain)
    if not np.isfinite(gains).all():
        raise ConfigError("an eavesdropper's path gain overflows: check the "
                          "pl_exp_* exponents and ref_gain")
    beta_ae, beta_re = gains
    return shared.with_values(
        beta_ae=beta_ae, beta_re=beta_re,
        rho_eve=eve_cross_correlation(dist[2], config.wavelength_m))


# ---------------------------------------------------------------------------
# sampling


def _cn(rng, *shape):
    """I.i.d. unit-variance circular complex Gaussians, drawn entry by entry
    in row-major order, so splitting the leading axis over several calls
    yields the same values.  The real draws are scaled in place and viewed
    as complex, with no complex temporary."""
    x = rng.standard_normal((*shape, 2))
    x *= 1.0 / np.sqrt(2.0)
    return x.view(complex)[..., 0]


_PROBE_BLOCK = 4096     # rounds per block of draws in simulate_probing

_ProbePoint = namedtuple("_ProbePoint", "lam w_sq sig2 pb beta_rb direct x_d "
                         "eve_cascade eve_direct fresh_u fresh_0")


def _probe_point(corr, w, v, spectra):
    """What one design's observations need besides the shared draws (see
    ``simulate_probing``): the cascade weights lambda, the legitimate
    scalars and Eve's per-antenna weights.  ValueError if ``w`` is zero.
    ``spectra`` caches L's squared singular values by (surface, v)."""
    w_sq = np.vdot(w, w).real
    if not w_sq:
        raise ValueError("w must be nonzero")
    # the combiner gain m_w and the cascade factor L' (see simulate_probing)
    m_w = np.vdot(w, corr.bs_corr @ w).real
    key = id(corr.ris_eigh), v.tobytes()
    if key not in spectra:
        vals, vecs = corr.ris_eigh
        half = vecs * np.sqrt(np.clip(vals, 0.0, None))
        spectra[key] = np.linalg.svd((half.T * v) @ half,
                                     compute_uv=False) ** 2
    lam = corr.beta_ar * m_w * spectra[key]
    direct = np.sqrt(m_w)
    # Eve's weights on ||u|| s_b and D d, and her fresh variance as
    # fresh_u ||u||^2 + fresh_0
    rho = corr.rho_eve
    mix_sq = np.clip(1.0 - rho ** 2, 0.0, None)
    return _ProbePoint(
        lam=lam, w_sq=w_sq, sig2=corr.noise_power, pb=corr.power_bob,
        beta_rb=corr.beta_rb, direct=direct,
        x_d=np.sqrt(corr.beta_ab) * direct,
        eve_cascade=rho * np.sqrt(corr.beta_re),
        eve_direct=rho * np.sqrt(corr.beta_ae),
        fresh_u=mix_sq * corr.beta_re,
        fresh_0=mix_sq * corr.beta_ae * direct ** 2 + corr.noise_power)


def simulate_probing(corr, w, v, rng, rounds):
    """Simulate probing rounds and return the three observation sequences.

    Per round the channel and the noises are drawn fresh.  Returns
    (alice, bob, eve) with shapes (rounds,), (rounds,), (rounds, K):
    Alice's combined uplink estimate, Bob's downlink estimate, and Eve's
    downlink estimates.  At K = 0 (``point_statistics``) nothing of Eve is
    drawn.  ``w`` must be nonzero (ValueError otherwise).

    ``w`` of shape (P, M) and ``v`` of shape (P, N) stack P designs, one
    per point (as in ``kgr_core``), and ``corr`` is then a sequence of P
    CorrelationSets, one per point: a sweep point's powers, gains and
    eavesdropper may differ.  Every output gains a leading axis of P, and
    point p is bit-identical to a call on its design and set alone: the
    points share the draws, which are common random numbers, and each
    keeps its own law.  So the points must share N and K (ValueError
    otherwise).

    Each round draws only the sufficient statistics of its observations;
    the joint law is that of full channel draws (``sample_channels`` in
    ``tests/oracles.py``), by the unitary invariance of i.i.d. CN(0, 1)
    entries:

    * Cascade.  With G = sqrt(beta_ar) R_bs^1/2 H R_ris^1/2, the row
      w^T G equals sqrt(beta_ar m_w) z^T R_ris^1/2 in law, with the
      combiner gain m_w = w^H R_bs w = ||R_bs^1/2T w||^2 and
      z ~ CN(0, I_N).  Bob's reciprocal term w^T G diag(v) h_rb is then
      sqrt(beta_rb) u^T x_b and Eve's w^T G diag(v) h_re,k is
      sqrt(beta_re,k) u^T x_k, with u = sqrt(beta_ar m_w) L^T z,
      L = R_ris^1/2 diag(v) R_ris^1/2T, and x_b, x_k the normalized
      surface channels.  Given u, u^T x_b = ||u|| s_b and
      u^T x_k = ||u|| (rho_k s_b + sqrt(1 - rho_k^2) s_k) with s_b, s_k
      independent CN(0, 1) scalars.
    * ||u||^2 = beta_ar m_w sum_i lambda_i E_i with lambda the eigenvalues
      of L^H L (once per distinct surface design in a call) and
      E_i ~ Exp(1): N real draws per round instead of an M x N complex
      matrix.  Each point's ||u||^2 is one product E @ lambda_p.  No root
      of R_ris is formed: with R_ris = V diag(e) V^T from ``ris_eigh`` and
      half = V diag(sqrt(e)), L' = half^T diag(v) half = V^T L V has L's
      singular values, V being orthogonal.
    * Direct path h_ab^T w = sqrt(beta_ab) D d with D = sqrt(m_w) and
      d ~ CN(0, 1); Eve's is sqrt(beta_ae,k) D (rho_k d + sqrt(1 - rho_k^2)
      d_k).
    * Alice and Bob.  Both see the shared scalar S = x^T y, y = (s_b, d),
      x = (sqrt(beta_rb) ||u||, sqrt(beta_ab) D), of variance
      g = beta_rb ||u||^2 + beta_ab D^2 given ||u||.  Bob sees
      b = S + sigma n_b and Alice a = sqrt(P_b) S + sigma ||w|| n_a, a
      bivariate CN pair that two CN(0, 1) scalars z_1, z_2 carry exactly:
      b = sqrt(g + sigma^2) z_1 and a = sqrt(P_b) g / sqrt(g + sigma^2) z_1
      + sqrt(sigma^2 ||w||^2 + P_b g sigma^2 / (g + sigma^2)) z_2.
    * Eve.  Given (a, b), y is CN with mean kappa x and covariance
      I - c x x^T, where den = sigma^2 ||w||^2 + g (||w||^2 + P_b),
      kappa = (||w||^2 b + sqrt(P_b) a) / den and c = (||w||^2 + P_b) / den.
      (S given (a, b) is CN(g kappa, g sigma^2 ||w||^2 / den); the part of
      y orthogonal to x is independent of both.)  So
      y = kappa x + (I - t x x^T) z with z two fresh CN(0, 1) scalars and
      t = c / (1 + sigma ||w|| / sqrt(den)), the symmetric root; nothing
      divides by g, which is 0 when Bob's links carry nothing.  Antenna k
      then sees rho_k (sqrt(beta_re,k) ||u|| s_b + sqrt(beta_ae,k) D d)
      plus its fresh terms s_k, d_k and noise, which sum to one CN scalar
      of variance (1 - rho_k^2) (beta_re,k ||u||^2 + beta_ae,k D^2)
      + sigma^2: 2 + K draws per round.

    The exponentials, the legitimate scalars and Eve's scalars come from
    three streams spawned from ``rng``, each drawn round by round and
    shared by every point, so Alice's and Bob's outputs do not depend on K.
    Every point takes the same path: with its surface off (v = 0) its
    lambda_i are all zero, so its ||u||^2 row is exactly 0.

    Memory: Alice's and Bob's outputs are one block of 2 x P x rounds
    values, Eve's P x rounds x K, and the points' ||u||^2 P x rounds
    reals.  Beyond those a call works on one block of ``_PROBE_BLOCK``
    rounds at a time, whatever ``rounds``: first every ||u||^2, from
    block x N exponentials at a time, each dropped before the next is
    drawn and before the outputs are made; then the outputs, from
    block x (4 + K) normals at a time, 2 at K = 0.  At K = 0 and N = 60
    that stays under block x N x 8 bytes (1.97 MB), which
    ``test_probe_memory_beyond_its_outputs_is_under_one_block`` checks;
    one pass, a block's exponentials drawn beside the outputs, fails that
    bound, so the two passes stay.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    single = w.ndim == 1
    ws, vs = w.reshape(-1, w.shape[-1]), v.reshape(-1, v.shape[-1])
    corrs = [corr] if single else list(corr)
    if not len(corrs) == len(ws) == len(vs):
        raise ValueError("corr, w and v must give the same number of points")
    if len({(c.n_ris, c.n_eve) for c in corrs}) > 1:
        raise ValueError("the points must share N and K: they share the "
                         "draws")
    spectra = {}
    points = [_probe_point(*args, spectra) for args in zip(corrs, ws, vs)]
    n_eve = corrs[0].n_eve
    exp_rng, leg_rng, eve_rng = rng.spawn(3)

    u_sqs = np.empty((len(points), rounds))
    for start in range(0, rounds, _PROBE_BLOCK):
        sl = slice(start, min(start + _PROBE_BLOCK, rounds))
        exps = exp_rng.standard_exponential((sl.stop - start, corrs[0].n_ris))
        for u_sq, pt in zip(u_sqs, points):
            u_sq[sl] = exps @ pt.lam
        del exps

    # one allocation, not two: two took page faults afresh on every call
    # (observed with glibc malloc; see the memory test)
    out_a, out_b = np.empty((2, len(points), rounds), dtype=complex)
    out_e = np.empty((len(points), rounds, n_eve), dtype=complex)
    for start in range(0, rounds, _PROBE_BLOCK):
        sl = slice(start, min(start + _PROBE_BLOCK, rounds))
        b = sl.stop - start
        z_1, z_2 = _cn(leg_rng, b, 2).T
        z = _cn(eve_rng, b, 2 + n_eve) if n_eve else None
        for p, pt in enumerate(points):
            u_sq = u_sqs[p, sl]
            sig2, pb, w_sq, x_d = pt.sig2, pt.pb, pt.w_sq, pt.x_d
            g = pt.beta_rb * u_sq + x_d * x_d
            tot = g + sig2
            root_tot = np.sqrt(tot)
            bob = out_b[p, sl] = root_tot * z_1
            alice = out_a[p, sl] = (np.sqrt(pb) * g / root_tot * z_1
                                    + np.sqrt(sig2 * w_sq + pb * g * sig2
                                              / tot) * z_2)
            if not n_eve:
                continue
            norm_u = np.sqrt(u_sq)
            x_b = np.sqrt(pt.beta_rb) * norm_u
            den = sig2 * w_sq + g * (w_sq + pb)
            shrink = (w_sq + pb) / (1.0 + np.sqrt(sig2 * w_sq / den))
            # kappa - t x^T z, the shift of y's two fresh scalars along x
            shift = (w_sq * bob + np.sqrt(pb) * alice
                     - shrink * (x_b * z[:, 0] + x_d * z[:, 1])) / den
            cascade = norm_u * (z[:, 0] + x_b * shift)     # ||u|| s_b
            direct_d = pt.direct * (z[:, 1] + x_d * shift)  # D d
            # built in place in the output rows: no (b, K) temporary sums
            e = out_e[p, sl]
            np.multiply(np.sqrt(u_sq[:, None] * pt.fresh_u
                                + pt.fresh_0), z[:, 2:], out=e)
            e += cascade[:, None] * pt.eve_cascade
            e += direct_d[:, None] * pt.eve_direct
    if single:
        return out_a[0], out_b[0], out_e[0]
    return out_a, out_b, out_e
