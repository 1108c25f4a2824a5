"""Quantum detection theory for the binary coherent-state ensemble.

An on-off keyed source emits either vacuum or a coherent pulse.  After
attenuation the receiver sees two pure states whose overlap is
``c = exp(-nbar/2)`` with ``nbar`` the received mean photon number; all
discrimination quantities below depend on the states only through ``c``.
Angles are kept in radians; degree rendering belongs to the reporting layer.
The Helstrom angle is taken once per photon number (:func:`_helstrom_angle`)
and split between the projectors once per prior (:func:`_helstrom_split`);
the batched secrecy kernel and :func:`helstrom_projector` share both steps,
as the kernel and :func:`holevo_binary` share :func:`holevo_bound`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class BinaryCoherentEnsemble:
    """Vacuum/coherent pair at a receiver.

    ``mean_photons`` is the mean photon number of the non-vacuum symbol at
    that receiver (all losses already applied); ``prior_q`` is the prior
    probability of the vacuum symbol.
    """

    mean_photons: float
    prior_q: float = 0.5

    def __post_init__(self):
        if self.mean_photons < 0:
            raise ValueError(f"mean_photons must be >= 0, got {self.mean_photons}")
        if not 0.0 <= self.prior_q <= 1.0:
            raise ValueError(f"prior_q must be in [0, 1], got {self.prior_q}")


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
    if mean_photons < 0:
        raise ValueError(f"mean_photons must be >= 0, got {mean_photons}")
    return math.exp(-0.5 * mean_photons)


def distinguishability_angle(mean_photons: float) -> float:
    """Angle ``arccos(overlap)`` between the two states, in [0, pi/2], taken as
    ``atan2(sqrt(-expm1(-nbar)), overlap)`` so small angles keep every digit:
    within 3e-16 relative of an mpmath reference over 1e-18 to 160 photons.
    """
    c = overlap(mean_photons)
    return math.atan2(math.sqrt(-math.expm1(-mean_photons)), c)


def helstrom_error(ensemble: BinaryCoherentEnsemble) -> float:
    """Minimum average error probability for one-shot discrimination.

    ``(1 - sqrt(1 - x)) / 2`` with ``x = 4 q (1-q) exp(-nbar)`` for prior ``q``,
    taken as ``(x/2) / (1 + sqrt((1-2q)^2 + 4 q (1-q) (-expm1(-nbar))))`` so
    nothing cancels at high photon numbers: within 5e-16 relative of an
    mpmath reference over 1e-18 to 160 photons, priors near 1/2 included.
    """
    q = ensemble.prior_q
    spread = 4.0 * q * (1.0 - q)
    x = spread * math.exp(-ensemble.mean_photons)
    root = math.sqrt((1.0 - 2.0 * q) ** 2 + spread * -math.expm1(-ensemble.mean_photons))
    return 0.5 * x / (1.0 + root)


def _helstrom_angle(n):
    """``(c, b, sin 2b, cos 2b)`` at photon numbers ``n``: the overlap
    ``c = exp(-n/2)`` and ``b = arcsin c``, ``pi/2 - phi`` exact at small
    overlaps.  ``sin 2b = 2c sqrt(1 - c^2)`` with ``1 - c^2 = -expm1(-n)``
    keeps every digit at large overlaps and is exactly 0 at ``n = 0``."""
    c = np.exp(-0.5 * n)
    beta = np.arcsin(c)
    return c, beta, 2.0 * c * np.sqrt(-np.expm1(-n)), np.cos(2.0 * beta)


def _helstrom_split(beta, sin_2beta, cos_2beta, q):
    """``(error_given_0, error_given_1, projector_angle_0, projector_angle_1)``
    at priors ``q`` from the :func:`_helstrom_angle` of the photon numbers;
    all zero at ``c = 0``.  ``phi1`` takes its own closed form where
    ``phi0 > beta / 2``, as ``beta - phi0`` cancels there; elsewhere
    ``beta - phi0`` keeps the uniform prior's split ``(0, beta)`` at ``c = 1``,
    where both closed forms are ``atan2(0, 0)``."""
    phi0 = 0.5 * np.arctan2((1.0 - q) * sin_2beta, q + (1.0 - q) * cos_2beta)
    phi1 = 0.5 * np.arctan2(q * sin_2beta, (1.0 - q) + q * cos_2beta)
    phi1 = np.where(phi0 + phi0 > beta, phi1, beta - phi0)
    return np.square(np.sin(phi0)), np.square(np.sin(phi1)), phi0, phi1


def helstrom_projector(ensemble: BinaryCoherentEnsemble) -> HelstromSolution:
    """Optimal projective measurement and its conditional error probabilities.

    Within the rank-2 span the projector angles are constrained by
    ``phi0 + phi1 = pi/2 - phi`` and chosen to minimise
    ``q sin^2(phi0) + (1-q) sin^2(phi1)``.  The minimiser has the closed
    form ``phi0 = atan2((1-q) sin 2b, q + (1-q) cos 2b) / 2`` with
    ``b = pi/2 - phi`` (Helstrom 1976), and ``phi1`` the same with ``q`` and
    ``1-q`` exchanged; both are ``b/2`` for the uniform prior at ``nbar > 0``.
    Both conditional errors lie within 1e-12 relative of mpmath over 1e-18 to
    160 photons and priors drawn uniformly.  At ``nbar = 0`` the states are
    identical and every split is optimal; the closed form then answers the
    likelier symbol, and ``phi0 = 0`` for the uniform prior.  The resulting
    average error always equals :func:`helstrom_error`.
    """
    q = ensemble.prior_q
    _, *angle = _helstrom_angle(ensemble.mean_photons)
    e0, e1, phi0, phi1 = (float(v) for v in _helstrom_split(*angle, q))
    avg = q * e0 + (1.0 - q) * e1
    return HelstromSolution(avg, e0, e1, distinguishability_angle(ensemble.mean_photons), phi0, phi1)


def holevo_bound(c, q):
    """Array form of :func:`holevo_binary` for overlaps ``c`` and priors ``q``."""
    radicand = 1.0 - 4.0 * q * (1.0 - q) * (1.0 - c * c)
    return _entropy(0.5 * (1.0 + np.sqrt(np.maximum(radicand, 0.0))))


def holevo_binary(ensemble: BinaryCoherentEnsemble) -> float:
    """Holevo bound in bits for the binary ensemble.

    The average state of two pure states with overlap ``c`` and prior ``q``
    has eigenvalues ``(1 +/- sqrt(1 - 4 q (1-q) (1 - c^2))) / 2``; the bound
    is the binary entropy of the larger one.  For ``q = 1/2`` this reduces to
    ``h((1 + c) / 2)``.
    """
    return float(holevo_bound(np.exp(-0.5 * ensemble.mean_photons), ensemble.prior_q))
