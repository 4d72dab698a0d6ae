"""Secret-key rate of the probing scheme.

All rates are bits per probing round: the conditional mutual information
I(alice ; bob | eve_k) of the jointly Gaussian observation triple, in a
reduced form where the eavesdropper's own channel power cancels out.  At
fixed combiner norm the per-eavesdropper rate is a monotone function of a
single effective gain, so a max-min design can work on that gain directly.
The determinant form straight from the definition, and the expanded
scalar form, are test references in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GainTriple:
    """Effective scalar channel gains for one design (w, v).

    ``legit`` is the variance of the shared reciprocal-plus-direct scalar
    seen by both legitimate ends, ``eve[k]`` the variance of eavesdropper
    antenna k's noiseless observation, and ``cross[k]`` their covariance.
    """

    legit: float
    eve: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        self.eve = np.atleast_1d(np.asarray(self.eve, dtype=float))
        self.cross = np.atleast_1d(np.asarray(self.cross, dtype=complex))


def effective_gains(corr, w, v):
    """Second-order statistics of the probed scalars for a design (w, v).

    ``w`` is the base-station combining vector, ``v`` the unit-modulus (or
    relaxed) reflection phase vector.  Uses only the correlation matrices,
    never channel draws.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    m_w = np.real(w @ corr.bs_corr @ np.conj(w))
    q_v = np.real(np.conj(v) @ corr.ris_had @ v)

    legit = m_w * (corr.beta_cascade * q_v + corr.beta_ab)
    eve = m_w * (corr.beta_cascade_eve * q_v + corr.beta_ae)

    cross = corr.rho_eve * m_w * (
        q_v * np.sqrt(corr.beta_cascade * corr.beta_cascade_eve)
        + np.sqrt(corr.beta_ab * corr.beta_ae))
    return GainTriple(float(legit), eve, cross)


def eve_resolved_gain(gains, noise_power):
    """Per-eavesdropper effective gain f_k = g_u - |g_ue|^2 / (g_e + sigma^2).

    The variance of the shared scalar left unexplained by eavesdropper k's
    noisy observation; always non-negative.
    """
    a2 = np.abs(np.asarray(gains.cross)) ** 2
    return gains.legit - a2 / (np.asarray(gains.eve, dtype=float) + noise_power)


def kgr_from_summary(f, power_bob, combiner_sq, noise_power):
    """Key rate from the single effective gain ``f`` per eavesdropper.

    Strictly increasing in f for any positive powers, so rankings by f and
    by rate coincide at fixed combiner norm.
    """
    f = np.asarray(f, dtype=float)
    pb, wsq, sig2 = power_bob, combiner_sq, noise_power
    num = (pb * f + wsq * sig2) * (f + sig2)
    den = sig2 * ((wsq + pb) * f + wsq * sig2)
    return np.log2(num / den)


def kgr_bits(corr, w, v):
    """Per-eavesdropper key rates for a design, via the reduced form."""
    gains = effective_gains(corr, w, v)
    f = eve_resolved_gain(gains, corr.noise_power)
    wsq = float(np.real(np.vdot(w, w)))
    return kgr_from_summary(f, corr.power_bob, wsq, corr.noise_power)


def min_kgr_bits(corr, w, v):
    return float(np.min(kgr_bits(corr, w, v)))

