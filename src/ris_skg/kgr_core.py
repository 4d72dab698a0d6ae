"""Secret-key rate of the probing scheme.

All rates are bits per probing round: the conditional mutual information
I(alice ; bob | eve_k) of the jointly Gaussian observation triple, in a
reduced form where the eavesdropper's own channel power cancels out.  At
fixed combiner norm the per-eavesdropper rate is a monotone function of a
single effective gain, so a max-min design can work on that gain directly.
The determinant form straight from the definition, and the expanded
scalar form, are test references in ``tests/oracles.py``.

A design enters the rate only through three scalars (``design_gains``),
so one call can rate a stack of designs: ``w`` and ``v`` may carry
leading axes that index designs, and the correlation set's per-antenna
arrays (antenna first) may carry further axes that broadcast against
them.  The three scalars are stacked products, one ``matmul`` each over
the whole stack, and every step after them is elementwise, so a design's
rate in a stack is bit-identical to its rate alone.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np


class EffectiveGains(namedtuple("EffectiveGains",
                                "legit eve cross combiner_sq")):
    """Effective scalar channel gains for one design (w, v), or a stack.

    ``legit`` is the variance of the shared reciprocal-plus-direct scalar
    seen by both legitimate ends, ``eve[k]`` the variance of eavesdropper
    antenna k's noiseless observation, and ``cross[k]`` their covariance,
    real under the scalar cross model; ``combiner_sq`` is ||w||^2, which
    sets the uplink noise.  ``eve`` and ``cross`` are arrays, antenna first:
    for a stack of designs ``legit`` and ``combiner_sq`` have the stack's
    shape and ``eve`` and ``cross`` one more leading axis.
    """

    __slots__ = ()


def design_gains(corr, w, v):
    """The three scalars through which a design (w, v) enters the key rate:
    m_w = w^T R_bs w*, q_v = v^H (R_ris o R_ris) v and ||w||^2.

    ``w`` is (..., M) and ``v`` (..., N) with the same leading shape; each
    scalar comes back with that shape (a NumPy scalar for one design).
    Each is one stacked product of shape (D,1,M) @ (M,M) @ (D,M,1) over
    the D designs, which gives each design the bits its own product gives.
    The real matrices are cast to complex once here, not by NumPy inside
    every product; the products are the same.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    lead = w.shape[:-1]
    w = w.reshape(-1, 1, w.shape[-1])
    v = v.reshape(-1, 1, v.shape[-1])
    m_w = w @ corr.bs_corr.astype(complex) @ np.conj(w).swapaxes(1, 2)
    q_v = np.conj(v) @ corr.ris_had.astype(complex) @ v.swapaxes(1, 2)
    wsq = np.conj(w) @ w.swapaxes(1, 2)
    return tuple(np.real(x).reshape(lead)[()] for x in (m_w, q_v, wsq))


def effective_gains(corr, w, v):
    """Second-order statistics of the probed scalars for a design (w, v).

    ``w`` is the base-station combining vector, ``v`` the unit-modulus (or
    relaxed) reflection phase vector.  Uses only the correlation matrices,
    never channel draws.
    """
    m_w, q_v, wsq = design_gains(corr, w, v)
    legit = m_w * (corr.beta_cascade * q_v + corr.beta_ab)
    eve = m_w * (corr.beta_cascade_eve * q_v + corr.beta_ae)

    cross = corr.rho_eve * m_w * (
        q_v * np.sqrt(corr.beta_cascade * corr.beta_cascade_eve)
        + np.sqrt(corr.beta_ab * corr.beta_ae))
    return EffectiveGains(legit, eve, cross, wsq)


def eve_resolved_gain(gains, noise_power):
    """Per-eavesdropper effective gain f_k = g_u - |g_ue|^2 / (g_e + sigma^2).

    The variance of the shared scalar left unexplained by eavesdropper k's
    noisy observation; always non-negative.
    """
    return gains.legit - np.abs(gains.cross) ** 2 / (gains.eve + noise_power)


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
    """Per-eavesdropper key rates for a design, via the reduced form; for a
    stack of designs, antenna first."""
    gains = effective_gains(corr, w, v)
    f = eve_resolved_gain(gains, corr.noise_power)
    return kgr_from_summary(f, corr.power_bob, gains.combiner_sq,
                            corr.noise_power)


def min_kgr_bits(corr, w, v):
    """Worst-case key rate over the eavesdropper's antennas: a float for one
    design, an array of the stack's shape for a stack."""
    return np.min(kgr_bits(corr, w, v), axis=0)
