"""Quantum detection theory for the binary coherent-state ensemble.

An on-off keyed source emits either vacuum or a coherent pulse.  After
attenuation the receiver sees two pure states whose overlap is
``c = exp(-nbar/2)`` with ``nbar`` the received mean photon number; all
discrimination quantities below depend on the states only through ``c``.
Angles are kept in radians; degree rendering belongs to the reporting layer.
``(s, y) = (1 - c^2, 2c sqrt(1 - c^2))`` is taken once per photon number
(:func:`_overlap_terms`) and split between the projectors once per prior
(:func:`_helstrom_split`, which returns both conditional errors and both
projector angles, each pair as two rows of one array); the secrecy kernel and
:func:`helstrom_projector` share both steps, as the kernel and
:func:`holevo_binary` share :func:`holevo_bound`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import _PHOTONS, _check_ranges, _distinguishability_angle, _helstrom_error, _ruled, _section
from .numerics import _entropy

__all__ = [
    "BinaryCoherentEnsemble",
    "HelstromSolution",
    "overlap",
    "distinguishability_angle",
    "helstrom_error",
    "helstrom_projector",
    "holevo_binary",
    "holevo_bound",
]


@_section
class BinaryCoherentEnsemble:
    """Vacuum/coherent pair at a receiver.

    ``mean_photons`` is the mean photon number of the non-vacuum symbol at
    that receiver (all losses already applied); ``prior_q`` is the prior
    probability of the vacuum symbol.
    """

    mean_photons: float = _ruled(_PHOTONS)
    prior_q: float = _ruled("[0, 1]", 0.5)


@dataclass(frozen=True)
class HelstromSolution:
    """Minimum-error projective measurement in the span of the two states.

    ``projector_angle_0`` (``_1``) is the angle between the outcome-0
    (outcome-1) projector and the corresponding signal state, so the
    conditional error probabilities are ``sin^2`` of the angles.  The angles
    satisfy ``projector_angle_0 + projector_angle_1 = pi/2 - angle_phi`` to
    rounding, not by construction.
    """

    avg_error: float
    error_given_0: float
    error_given_1: float
    angle_phi: float
    projector_angle_0: float
    projector_angle_1: float


def overlap(mean_photons: float) -> float:
    """State overlap ``exp(-mean_photons/2)`` of vacuum vs coherent pulse."""
    _check_ranges(("mean_photons", _PHOTONS, mean_photons))
    return math.exp(-0.5 * mean_photons)


def distinguishability_angle(mean_photons: float) -> float:
    """Angle ``arccos(overlap)`` between the two states, in [0, pi/2], taken as
    ``atan2(sqrt(-expm1(-nbar)), overlap)`` so small angles keep every digit:
    within 3e-16 relative of an mpmath reference over 1e-18 to 160 photons.
    """
    _check_ranges(("mean_photons", _PHOTONS, mean_photons))
    return _distinguishability_angle(mean_photons)


def helstrom_error(ensemble: BinaryCoherentEnsemble) -> float:
    """Minimum average error probability for one-shot discrimination.

    ``(1 - sqrt(1 - x)) / 2`` with ``x = 4 q (1-q) exp(-nbar)`` for prior ``q``,
    taken as ``(x/2) / (1 + sqrt((1-2q)^2 + 4 q (1-q) (-expm1(-nbar))))`` so
    nothing cancels at high photon numbers: within 5e-16 relative of an
    mpmath reference over 1e-18 to 160 photons, priors near 1/2 included.
    """
    return _helstrom_error(ensemble.mean_photons, ensemble.prior_q)


def _overlap_terms(n, out=None):
    """``(s, y) = (-expm1(-n), 2c sqrt(s))`` at photon numbers ``n``, ``s = 1 - c^2``: the sine ``y``
    and cosine ``2s - 1`` of twice ``b = pi/2 - phi``.  Both are exactly 0 at ``n = 0``.  As in a
    ufunc, ``out``, two rows of the broadcast shape, takes them; ``None`` allocates."""
    if out is None:
        out = np.empty((2,) + np.shape(n))
    s, y = out[0, ...], out[1, ...]  # views, at 0-d too
    np.negative(n, out=s)
    np.expm1(s, out=s)
    np.negative(s, out=s)
    np.multiply(n, -0.5, out=y)
    np.exp(y, out=y)
    y *= 2.0
    y *= np.sqrt(s)
    return s, y


def _helstrom_split(s, y, q, p, out=None, work=None):
    """``(errors, angles)``: the rows ``(error_given_0, error_given_1)`` and
    ``(projector_angle_0, projector_angle_1)`` at priors ``q`` (``p = 1 - q``)
    from :func:`_overlap_terms`; all zero at ``c = 0``.  Both angles are one
    ``arctan2`` over a pair of rows of ordinates ``((1-q) y, q y)`` and abscissae
    ``((2q-1) + 2(1-q)s, -((2q-1) - 2qs))``, in which no sum cancels, and both
    errors one ``sin`` and one square of them.  At ``s = 0`` and ``q = 1/2`` both
    angles are ``atan2(0, 0)``; ``phi1``'s abscissa is taken in that negated form,
    ``-0`` there, to keep the split ``(0, pi/2)``.  As in a ufunc, ``out`` (two rows
    of the broadcast shape) takes the errors and ``work`` (two pairs of such rows)
    the ordinates and abscissae, the angles written over the ordinates; ``None`` allocates."""
    if out is None:
        out = np.empty((2,) + np.broadcast(s, y, q).shape)
    ordinate, abscissa = np.empty((2,) + out.shape) if work is None else work
    x0, x1 = abscissa[0, ...], abscissa[1, ...]  # views, at 0-d too
    d, s2 = 2.0 * q - 1.0, s + s
    np.multiply(p, y, out=ordinate[0, ...])
    np.multiply(q, y, out=ordinate[1, ...])
    np.multiply(p, s2, out=x0)
    x0 += d
    np.multiply(q, s2, out=x1)
    np.subtract(d, x1, out=x1)
    np.negative(x1, out=x1)
    angles = np.arctan2(ordinate, abscissa, out=ordinate)
    angles *= 0.5
    return np.square(np.sin(angles, out=out), out=out), angles


def helstrom_projector(ensemble: BinaryCoherentEnsemble) -> HelstromSolution:
    """Optimal projective measurement and its conditional error probabilities.

    Within the rank-2 span the projector angles are constrained by
    ``phi0 + phi1 = pi/2 - phi`` and chosen to minimise
    ``q sin^2(phi0) + (1-q) sin^2(phi1)``.  The minimiser (Helstrom 1976) is
    ``phi0 = atan2((1-q) y, (2q-1) + 2(1-q) s) / 2`` (:func:`_overlap_terms`),
    and ``phi1`` the same with ``q`` and ``1-q`` exchanged; both are
    ``(pi/2 - phi) / 2`` for the uniform prior at ``nbar > 0``.  Both
    conditional errors lie within 1e-14 relative of mpmath over 1e-18 to 160
    photons, priors near 1/2 included.  At ``nbar = 0`` every split is
    optimal; the closed form answers the likelier symbol, and ``phi0 = 0`` for
    the uniform prior.  The average error is :func:`helstrom_error`'s closed
    form, bit for bit; ``q e0 + (1-q) e1`` agrees with it to rounding.
    """
    n, q = ensemble.mean_photons, ensemble.prior_q
    (e0, e1), (phi0, phi1) = (v.tolist() for v in _helstrom_split(*_overlap_terms(n), q, 1.0 - q))
    return HelstromSolution(_helstrom_error(n, q), e0, e1, _distinguishability_angle(n), phi0, phi1)


def holevo_bound(s, q):
    """Array form of :func:`holevo_binary` for ``s = 1 - c^2`` and priors ``q``."""
    return _entropy(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * q * (1.0 - q) * s, 0.0))))


def holevo_binary(ensemble: BinaryCoherentEnsemble) -> float:
    """Holevo bound in bits for the binary ensemble.

    The average state of two pure states with overlap ``c`` and prior ``q``
    has eigenvalues ``(1 +/- sqrt(1 - 4 q (1-q) (1 - c^2))) / 2``; the bound
    is the binary entropy of the larger one.  For ``q = 1/2`` this reduces to
    ``h((1 + c) / 2)``.  ``1 - c^2`` is taken as ``-expm1(-nbar)``.
    """
    return float(holevo_bound(-np.expm1(-ensemble.mean_photons), ensemble.prior_q))
