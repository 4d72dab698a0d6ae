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
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import j0


class ConfigError(ValueError):
    """Raised when a scenario config file or object fails validation."""


def dbm_to_watts(x_dbm):
    """Watts from dBm; a value too large for a float comes out inf, without
    an overflow warning, for the config's finiteness check to reject."""
    with np.errstate(over="ignore"):
        return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


def db_to_linear(x_db):
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass
class ScenarioConfig:
    """Full description of one simulation scenario.

    Positions are metres, powers watts (config files carry dBm/dB and are
    converted once at load time).  Array shapes are (horizontal, vertical)
    element counts; the base station has ``n_bs = bs_shape[0] * bs_shape[1]``
    antennas and the surface ``n_ris`` elements.
    """

    alice_pos: tuple = (5.0, 0.0, 20.0)
    bob_pos: tuple = (3.0, 100.0, 0.0)
    ris_pos: tuple = (0.0, 60.0, 2.0)
    bs_shape: tuple = (5, 3)
    ris_shape: tuple = (5, 4)
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
    amplitude_pathloss: bool = True
    # settings of the BSUM reference solver (bsum.optimize_design); no
    # experiment runs it, but perfbench/checks.py passes these four
    bsum_tol: float = 1e-4
    bsum_max_iters: int = 200
    inner_tol: float = 1e-6
    inner_max_iters: int = 2000
    trials: int = 50
    seed: int = 1234
    probe_rounds: int = 10000
    methods: tuple = ("optimized", "iid_ris", "no_ris")
    sweep_power_dbm: tuple = ()
    sweep_ris_shapes: tuple = ()
    sweep_bs_shapes: tuple = ()
    sweep_eve_radius_m: tuple = ()

    @property
    def n_bs(self):
        return int(self.bs_shape[0] * self.bs_shape[1])

    @property
    def n_ris(self):
        return int(self.ris_shape[0] * self.ris_shape[1])

    def validate(self):
        for f in fields(self):
            if f.name != "methods" and not np.isfinite(getattr(self, f.name)).all():
                raise ConfigError(f"{f.name} must be finite")
        # every link's path loss divides by its length
        for a, b in (("alice_pos", "bob_pos"), ("alice_pos", "ris_pos"),
                     ("bob_pos", "ris_pos")):
            if np.array_equal(getattr(self, a), getattr(self, b)):
                raise ConfigError(f"{a} and {b} must be different points")
        if not self.methods:
            raise ConfigError("methods must name at least one design")
        # result rows are keyed by method and sweep value (element count for
        # a shape), so a repeat would write rows that cannot be told apart
        for name in ("methods", "sweep_power_dbm", "sweep_ris_shapes",
                     "sweep_bs_shapes", "sweep_eve_radius_m"):
            keys = [np.prod(k) if name.endswith("_shapes") else k
                    for k in getattr(self, name)]
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
        return self


# Config-file keys holding dB/dBm quantities and the linear field they map to.
_DB_KEYS = {
    "power_alice_dbm": "power_alice_w",
    "power_bob_dbm": "power_bob_w",
    "noise_dbm": "noise_power_w",
    "ref_gain_db": "ref_gain",
}

_TUPLE3_KEYS = {"alice_pos", "bob_pos", "ris_pos"}
_SHAPE_KEYS = {"bs_shape", "ris_shape"}
_SHAPE_LIST_KEYS = {"sweep_ris_shapes", "sweep_bs_shapes"}
_FLOAT_LIST_KEYS = {"sweep_power_dbm", "sweep_eve_radius_m"}
_STR_LIST_KEYS = {"methods"}
_INT_KEYS = {"eve_count", "bsum_max_iters", "inner_max_iters", "trials",
             "seed", "probe_rounds"}
_BOOL_KEYS = {"amplitude_pathloss"}


def _parse_shape(text):
    parts = text.lower().replace("*", "x").split("x")
    if len(parts) != 2:
        raise ConfigError(f"expected a HxV shape, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad shape {text!r}") from exc


def parse_config_values(text):
    """Parse flat ``key = value`` lines into a dict of config fields.

    Unknown keys and malformed values raise ConfigError.  dBm/dB keys are
    converted to linear units here and nowhere else.
    """
    known = {f.name for f in fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _DB_KEYS:
            conv = dbm_to_watts if key.endswith("_dbm") else db_to_linear
            try:
                values[_DB_KEYS[key]] = float(conv(float(val)))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad number {val!r}") from exc
            continue
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _TUPLE3_KEYS:
                parts = [float(p) for p in val.split(",")]
                if len(parts) != 3:
                    raise ConfigError(f"line {lineno}: {key} needs 3 coordinates")
                values[key] = tuple(parts)
            elif key in _SHAPE_KEYS:
                values[key] = _parse_shape(val)
            elif key in _SHAPE_LIST_KEYS:
                values[key] = tuple(_parse_shape(p) for p in val.split(",") if p.strip())
            elif key in _FLOAT_LIST_KEYS:
                values[key] = tuple(float(p) for p in val.split(",") if p.strip())
            elif key in _STR_LIST_KEYS:
                values[key] = tuple(p.strip() for p in val.split(",") if p.strip())
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _BOOL_KEYS:
                low = val.lower()
                if low not in ("true", "false", "1", "0", "yes", "no"):
                    raise ConfigError(f"line {lineno}: bad boolean {val!r}")
                values[key] = low in ("true", "1", "yes")
            else:
                values[key] = float(val)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from exc
    return values


def parse_config_text(text, base=None):
    """Build a validated ScenarioConfig from config text, optionally layered
    on top of a dict of default overrides."""
    values = dict(base) if base else {}
    values.update(parse_config_values(text))
    return ScenarioConfig(**values).validate()


def load_config(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def config_hash(config):
    """Stable hash of the resolved config, for run manifests."""
    items = []
    for f in sorted(fields(config), key=lambda f: f.name):
        items.append(f"{f.name}={getattr(config, f.name)!r}")
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# correlation matrices


def exp_corr_matrix(n, rho):
    """Exponential Toeplitz correlation, entry (i, j) = rho^|i-j|."""
    if n < 1:
        raise ValueError("n must be positive")
    return toeplitz(rho ** np.arange(n)).astype(float)


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


def eve_cross_correlation(distance_m, wavelength_m):
    """Channel-gain correlation [J0(2 pi d / lambda)]^2 between two antennas
    separated by d in an isotropic scattering field."""
    return j0(2.0 * np.pi * np.asarray(distance_m, dtype=float) / wavelength_m) ** 2


def path_loss_gain(distance_m, exponent, ref_gain, amplitude=True):
    """Large-scale channel-variance factor at the given distance.

    ``amplitude=True`` uses sqrt(ref_gain * d^-alpha); ``False`` uses the
    conventional power-law ref_gain * d^-alpha.
    """
    g = ref_gain * np.asarray(distance_m, dtype=float) ** (-float(exponent))
    return np.sqrt(g) if amplitude else g


def _check_psd(vals, name):
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        raise ValueError(f"{name} is not positive semidefinite "
                         f"(min eigenvalue {vals.min():.3e})")


def _psd_sqrt(mat, name="matrix"):
    vals, vecs = np.linalg.eigh(mat)
    _check_psd(vals, name)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


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
    anything else raises ValueError.  Their square roots, which only
    probing reads, and R_ris o R_ris are computed on first use.
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
            _check_psd(np.linalg.eigvalsh(mat.real), name)
        self.beta_ae = np.atleast_1d(np.asarray(self.beta_ae, dtype=float))
        self.beta_re = np.atleast_1d(np.asarray(self.beta_re, dtype=float))
        self.rho_eve = np.atleast_1d(np.asarray(self.rho_eve, dtype=float))
        if not np.all((self.rho_eve >= 0.0) & (self.rho_eve <= 1.0)):
            raise ValueError("rho_eve must lie in [0, 1]")

    @cached_property
    def bs_corr_sqrt(self):
        return _psd_sqrt(self.bs_corr, "bs_corr")

    @cached_property
    def ris_corr_sqrt(self):
        return _psd_sqrt(self.ris_corr, "ris_corr")

    @cached_property
    def ris_had(self):
        return self.ris_corr * self.ris_corr

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
    around Bob at Bob's height."""
    r = config.eve_radius_m * np.sqrt(rng.uniform(size=config.eve_count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=config.eve_count)
    bob = np.asarray(config.bob_pos)
    pos = np.tile(bob, (config.eve_count, 1))
    pos[:, 0] += r * np.cos(theta)
    pos[:, 1] += r * np.sin(theta)
    pos[:, 2] = bob[2]
    return pos


def build_correlations(config, rng):
    """Assemble a CorrelationSet for one Monte-Carlo trial.

    The only randomness is Eve's placement; everything else is determined
    by the config.
    """
    config.validate()
    alice = np.asarray(config.alice_pos)
    bob = np.asarray(config.bob_pos)
    ris = np.asarray(config.ris_pos)
    eve = draw_eve_positions(config, rng)

    d_ab = np.linalg.norm(alice - bob)
    d_ar = np.linalg.norm(alice - ris)
    d_rb = np.linalg.norm(ris - bob)
    d_ae = np.linalg.norm(eve - alice, axis=1)
    d_re = np.linalg.norm(eve - ris, axis=1)
    d_be = np.linalg.norm(eve - bob, axis=1)

    amp = config.amplitude_pathloss
    return CorrelationSet(
        bs_corr=bs_correlation(config.bs_shape, config.bs_corr),
        ris_corr=ris_correlation(
            config.ris_shape,
            config.ris_spacing_wavelengths * config.wavelength_m,
            config.wavelength_m,
        ),
        beta_ab=float(path_loss_gain(d_ab, config.pl_exp_alice_bob, config.ref_gain, amp)),
        beta_ar=float(path_loss_gain(d_ar, config.pl_exp_alice_ris, config.ref_gain, amp)),
        beta_rb=float(path_loss_gain(d_rb, config.pl_exp_ris_bob, config.ref_gain, amp)),
        beta_ae=path_loss_gain(d_ae, config.pl_exp_alice_eve, config.ref_gain, amp),
        beta_re=path_loss_gain(d_re, config.pl_exp_ris_eve, config.ref_gain, amp),
        rho_eve=eve_cross_correlation(d_be, config.wavelength_m),
        power_alice=config.power_alice_w,
        power_bob=config.power_bob_w,
        noise_power=config.noise_power_w,
    )


# ---------------------------------------------------------------------------
# sampling


def _cn(rng, *shape):
    """I.i.d. unit-variance circular complex Gaussians, drawn entry by entry
    in row-major order, so splitting the leading axis over several calls
    yields the same values."""
    return (rng.standard_normal((*shape, 2)).view(complex)[..., 0]
            / np.sqrt(2.0))


def simulate_probing(corr, w, v, rng, rounds, chunk=65536, *, eve=True):
    """Simulate probing rounds and return the three observation sequences.

    Per round the channel and the noises are drawn fresh.  Returns
    (alice, bob, eve) with shapes (rounds,), (rounds,), (rounds, K):
    Alice's combined uplink estimate, Bob's downlink estimate, and Eve's
    downlink estimates.  With ``eve=False`` Eve is not drawn and the third
    value is None; Alice's and Bob's sequences are the same either way.

    Each round draws only the sufficient statistics of its observations;
    the joint law is that of full channel draws (``sample_channels`` in
    ``tests/oracles.py``), by the unitary invariance of i.i.d. CN(0, 1)
    entries:

    * Cascade.  With G = sqrt(beta_ar) R_bs^1/2 H R_ris^1/2, the row
      w^T G equals sqrt(beta_ar) ||R_bs^1/2T w|| z^T R_ris^1/2 in law,
      z ~ CN(0, I_N).  Bob's reciprocal term w^T G diag(v) h_rb is then
      sqrt(beta_rb) u^T x_b and Eve's w^T G diag(v) h_re,k is
      sqrt(beta_re,k) u^T x_k, with u = sqrt(beta_ar) ||R_bs^1/2T w|| L^T z,
      L = R_ris^1/2 diag(v) R_ris^1/2T, and x_b, x_k the normalized
      surface channels.  Given u, u^T x_b = ||u|| s_b and
      u^T x_k = ||u|| (rho_k s_b + sqrt(1 - rho_k^2) s_k) with s_b, s_k
      independent CN(0, 1) scalars.
    * ||u||^2 = beta_ar ||R_bs^1/2T w||^2 sum_i lambda_i E_i with lambda
      the eigenvalues of L^H L (computed once per call) and E_i ~ Exp(1):
      N real draws per round instead of an M x N complex matrix.
    * Direct path h_ab^T w = sqrt(beta_ab) ||R_bs^1/2 w|| d, d ~ CN(0, 1);
      Eve's is sqrt(beta_ae,k) ||R_bs^1/2 w|| (rho_k d + sqrt(1 - rho_k^2)
      d_k).  Alice's combined uplink noise is sigma ||w|| times one
      CN(0, 1) scalar, Bob's one more.
    * Eve.  Given ||u||, antenna k's fresh terms s_k, d_k and its noise
      sum to one CN scalar of variance (1 - rho_k^2) (beta_re,k ||u||^2
      + beta_ae,k ||R_bs^1/2 w||^2) + sigma^2: one draw per antenna and
      round.

    The exponentials, the legitimate scalars and Eve's scalars come from
    three streams spawned from ``rng``, each drawn round by round, so the
    output does not depend on ``chunk`` (which bounds memory at
    chunk x N reals) nor on ``eve``.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    sig = np.sqrt(corr.noise_power)
    root_bs, root_ris = corr.bs_corr_sqrt, corr.ris_corr_sqrt
    link = (root_ris * v) @ root_ris.T
    lam = (corr.beta_ar * np.linalg.norm(root_bs.T @ w) ** 2
           * np.linalg.svd(link, compute_uv=False) ** 2)
    direct = np.linalg.norm(root_bs @ w)
    uplink_sig = sig * np.linalg.norm(w)
    rho = corr.rho_eve
    mix_sq = np.clip(1.0 - rho ** 2, 0.0, None)
    exp_rng, leg_rng, eve_rng = rng.spawn(3)

    out_a = np.empty(rounds, dtype=complex)
    out_b = np.empty(rounds, dtype=complex)
    out_e = np.empty((rounds, corr.n_eve), dtype=complex) if eve else None
    for start in range(0, rounds, chunk):
        sl = slice(start, min(start + chunk, rounds))
        b = sl.stop - start
        u_sq = exp_rng.standard_exponential((b, lam.size)) @ lam
        s_b, d, n_a, n_b = _cn(leg_rng, b, 4).T
        cascade = np.sqrt(u_sq) * s_b
        shared = (np.sqrt(corr.beta_rb) * cascade
                  + np.sqrt(corr.beta_ab) * direct * d)
        out_a[sl] = np.sqrt(corr.power_bob) * shared + uplink_sig * n_a
        out_b[sl] = shared + sig * n_b
        if eve:
            fresh_sq = (mix_sq * (corr.beta_re * u_sq[:, None]
                                  + corr.beta_ae * direct ** 2)
                        + corr.noise_power)
            out_e[sl] = (
                rho * (np.sqrt(corr.beta_re) * cascade[:, None]
                       + np.sqrt(corr.beta_ae) * direct * d[:, None])
                + np.sqrt(fresh_sq) * _cn(eve_rng, b, corr.n_eve))
    return out_a, out_b, out_e
