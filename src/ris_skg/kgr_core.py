"""Secret-key rate of the probing scheme.

All rates are bits per probing round, computed as the conditional mutual
information I(alice ; bob | eve_k) of the jointly Gaussian observation
triple.  Three algebraically equivalent routes are provided: a determinant
form straight from the definition, an expanded scalar form, and a reduced
form in which the eavesdropper's own channel power cancels out.  The reduced
form shows that at fixed combiner norm the per-eavesdropper rate is a
monotone function of a single effective gain, so a max-min design can work
on that gain directly.
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


@dataclass
class CovarianceBlocks:
    """Entries of the per-eavesdropper 3x3 observation covariance."""

    aa: float
    bb: float
    ab: float
    ee: np.ndarray
    be: np.ndarray
    ae: np.ndarray
    noise_power: float
    combiner_sq: float


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


def covariance_blocks(corr, w, v):
    g = effective_gains(corr, w, v)
    w = np.asarray(w, dtype=complex)
    wsq = float(np.real(w @ np.conj(w)))
    pb = corr.power_bob
    sig2 = corr.noise_power
    return CovarianceBlocks(
        aa=pb * g.legit + wsq * sig2,
        bb=g.legit + sig2,
        ab=np.sqrt(pb) * g.legit,
        ee=g.eve + sig2,
        be=g.cross.copy(),
        ae=np.sqrt(pb) * g.cross,
        noise_power=sig2,
        combiner_sq=wsq,
    )


def kgr_determinant(blocks):
    """Key rate per eavesdropper antenna from covariance determinants.

    I(a; b | e) = log2[ det(S_ae) det(S_be) / (det(S_abe) det(S_e)) ] for
    the circularly symmetric Gaussian triple.  Returns an array over k.
    """
    k = blocks.ee.shape[0]
    rates = np.empty(k)
    for i in range(k):
        full = np.array([
            [blocks.aa, blocks.ab, blocks.ae[i]],
            [np.conj(blocks.ab), blocks.bb, blocks.be[i]],
            [np.conj(blocks.ae[i]), np.conj(blocks.be[i]), blocks.ee[i]],
        ])
        s_ae = full[np.ix_([0, 2], [0, 2])]
        s_be = full[np.ix_([1, 2], [1, 2])]
        _, ld_ae = np.linalg.slogdet(s_ae)
        _, ld_be = np.linalg.slogdet(s_be)
        _, ld_full = np.linalg.slogdet(full)
        ld_e = np.log(np.real(blocks.ee[i]))
        rates[i] = (ld_ae + ld_be - ld_full - ld_e) / np.log(2.0)
    return rates


def kgr_closed_form(gains, power_bob, combiner_sq, noise_power):
    """Key rate as an explicit scalar expression in the effective gains."""
    gu = gains.legit
    ge = np.asarray(gains.eve, dtype=float)
    a2 = np.abs(np.asarray(gains.cross)) ** 2
    pb, wsq, sig2 = power_bob, combiner_sq, noise_power
    d = ge + sig2
    num = (((pb * gu + wsq * sig2) * d - pb * a2)
           * ((gu + sig2) * d - a2))
    den = sig2 * d * ((wsq + pb) * (gu * d - a2) + wsq * sig2 * d)
    return np.log2(num / den)


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


def design_objective_complex(corr, w, v):
    """Worst-case effective gain min_k f_k(w, v), the max-min design target."""
    gains = effective_gains(corr, w, v)
    return float(np.min(eve_resolved_gain(gains, corr.noise_power)))


def empirical_covariance_blocks(alice, bob, eve, noise_power, combiner_sq):
    """Sample covariance entries from simulated probing sequences.

    ``alice`` and ``bob`` are (rounds,) complex arrays, ``eve`` is
    (rounds, K).  E{x conj(y)} averages, no mean subtraction (the
    observations are zero-mean by construction).
    """
    alice = np.asarray(alice)
    bob = np.asarray(bob)
    eve = np.atleast_2d(np.asarray(eve))
    n = alice.shape[0]
    return CovarianceBlocks(
        aa=float(np.real(np.vdot(alice, alice)) / n),
        bb=float(np.real(np.vdot(bob, bob)) / n),
        ab=complex(alice @ np.conj(bob) / n),
        ee=np.real(np.einsum("nk,nk->k", eve, np.conj(eve))) / n,
        be=np.einsum("n,nk->k", bob, np.conj(eve)) / n,
        ae=np.einsum("n,nk->k", alice, np.conj(eve)) / n,
        noise_power=noise_power,
        combiner_sq=combiner_sq,
    )
