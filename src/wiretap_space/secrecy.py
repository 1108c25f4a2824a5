"""Secrecy-rate computations for the OOK wiretap link.

The keyless private capacity at a fixed degradation ``gamma`` is
``max_q [ I(X;Y) - I(X;Z) ]+`` where Y is the legitimate threshold
detector's outcome and Z the interceptor's minimum-error quantum
measurement outcome.  Replacing I(X;Z) with the Holevo bound gives the
more pessimistic Devetak-Winter rate.  The interceptor sees exactly
``gamma`` times the legitimate receiver's mean photon number and suffers
no further loss or noise.

Two independent code paths exist on purpose: the general-prior machinery
built on the measurement model, and uniform-prior closed forms; they must
agree to float precision at ``q = 1/2`` and are cross-checked in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.constants import c as _SPEED_OF_LIGHT
from scipy.constants import h as _PLANCK

from .detection import BinaryCoherentEnsemble, helstrom_error, helstrom_projector, holevo_binary, overlap
from .numerics import Interval, binary_entropy, maximize_1d
from .receiver import DetectorModel, bob_click_model, mutual_info_bob

__all__ = [
    "SecrecyPoint",
    "ClockedLink",
    "private_capacity_fixed",
    "private_capacity",
    "devetak_winter_rate",
    "private_capacity_symmetric",
    "dw_rate_symmetric",
    "optimal_signal_strength",
    "plob_bound",
    "private_rate",
    "required_laser_power",
]

Q_SEARCH_BOUNDS = (0.01, 0.99)
Q_SEARCH_TOL = 1e-4
PHOTON_SEARCH_BOUNDS = (1e-3, 1e2)
LOG_TOL = 1e-3  # photon search tolerance in log10 of the photon number


@dataclass(frozen=True)
class SecrecyPoint:
    """One fully evaluated operating point of the wiretap link."""

    gamma: float
    received_mean_photons: float
    q: float
    info_bob: float
    info_eve_helstrom: float
    holevo_eve: float
    private_capacity: float
    dw_rate: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.private_capacity < 0 or self.dw_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.dw_rate > self.private_capacity + 1e-9:
            raise ValueError(
                f"dw_rate {self.dw_rate} exceeds private_capacity {self.private_capacity}"
            )


@dataclass(frozen=True)
class ClockedLink:
    """Symbol clock and carrier wavelength used for rate/power conversions."""

    clock_rate: float = 1e9
    wavelength: float = 850e-9

    def __post_init__(self):
        if not self.clock_rate > 0:
            raise ValueError(f"clock_rate must be > 0, got {self.clock_rate}")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")


def _binary_channel_information(q: float, flip_given_0: float, flip_given_1: float) -> float:
    """I(X;Z) of a binary channel with conditional error probabilities."""
    p_out0 = q * (1.0 - flip_given_0) + (1.0 - q) * flip_given_1
    info = (
        binary_entropy(p_out0)
        - q * binary_entropy(flip_given_0)
        - (1.0 - q) * binary_entropy(flip_given_1)
    )
    return max(info, 0.0)


def _secrecy_terms(
    detector: DetectorModel, received_mean_photons: float, gamma: float, q: float
) -> tuple[float, float, float]:
    """(info_bob, info_eve_helstrom, holevo_eve) at one operating point."""
    channel = bob_click_model(detector, received_mean_photons)
    info_bob = mutual_info_bob(q, channel)
    eve = BinaryCoherentEnsemble(mean_photons=gamma * received_mean_photons, prior_q=q)
    sol = helstrom_projector(eve)
    info_eve = _binary_channel_information(q, sol.error_given_0, sol.error_given_1)
    return info_bob, info_eve, holevo_binary(eve)


def _check_point_args(received_mean_photons: float, gamma: float) -> None:
    if received_mean_photons < 0:
        raise ValueError(f"received_mean_photons must be >= 0, got {received_mean_photons}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")


def private_capacity_fixed(
    detector: DetectorModel, received_mean_photons: float, gamma: float, q: float
) -> SecrecyPoint:
    """Evaluate the wiretap link at a fixed input probability ``q``.

    The private capacity entry is the clipped difference
    ``[I(X;Y) - I(X;Z)]+``; the Devetak-Winter entry replaces I(X;Z) by the
    Holevo bound.
    """
    _check_point_args(received_mean_photons, gamma)
    info_bob, info_eve, holevo_eve = _secrecy_terms(detector, received_mean_photons, gamma, q)
    return SecrecyPoint(
        gamma=gamma,
        received_mean_photons=received_mean_photons,
        q=q,
        info_bob=info_bob,
        info_eve_helstrom=info_eve,
        holevo_eve=holevo_eve,
        private_capacity=max(info_bob - info_eve, 0.0),
        dw_rate=max(info_bob - holevo_eve, 0.0),
    )


def private_capacity(
    detector: DetectorModel,
    received_mean_photons: float,
    gamma: float,
) -> SecrecyPoint:
    """Maximise the secrecy value over the input probability.

    The unclipped difference I(X;Y) - I(X;Z) is maximised (it is continuous
    where the clipped value has flat zero plateaus); the returned point is
    evaluated at the optimiser ``q*``.
    """
    _check_point_args(received_mean_photons, gamma)

    def unclipped(q: float) -> float:
        info_bob, info_eve, _ = _secrecy_terms(detector, received_mean_photons, gamma, q)
        return info_bob - info_eve

    q_opt, _ = maximize_1d(unclipped, Interval(*Q_SEARCH_BOUNDS), tol=Q_SEARCH_TOL)
    return private_capacity_fixed(detector, received_mean_photons, gamma, q_opt)


def devetak_winter_rate(
    detector: DetectorModel, received_mean_photons: float, gamma: float, q: float
) -> float:
    """Devetak-Winter rate ``[I(X;Y) - chi(X;E)]+`` in bits per use."""
    _check_point_args(received_mean_photons, gamma)
    info_bob, _, holevo_eve = _secrecy_terms(detector, received_mean_photons, gamma, q)
    return max(info_bob - holevo_eve, 0.0)


def private_capacity_symmetric(
    detector: DetectorModel, received_mean_photons: float, gamma: float
) -> float:
    """Uniform-prior closed form of the private capacity.

    ``[h(eps*) + h((eps0+eps1)/2) - (h(eps0)+h(eps1))/2 - 1]+`` where
    ``eps*`` is the interceptor's minimum error probability.  Kept free of
    the general measurement machinery so the two paths cross-check.
    """
    _check_point_args(received_mean_photons, gamma)
    channel = bob_click_model(detector, received_mean_photons)
    eps_star = helstrom_error(
        BinaryCoherentEnsemble(mean_photons=gamma * received_mean_photons, prior_q=0.5)
    )
    value = (
        binary_entropy(eps_star)
        + binary_entropy(0.5 * (channel.eps0 + channel.eps1))
        - 0.5 * (binary_entropy(channel.eps0) + binary_entropy(channel.eps1))
        - 1.0
    )
    return max(value, 0.0)


def dw_rate_symmetric(detector: DetectorModel, received_mean_photons: float, gamma: float) -> float:
    """Uniform-prior closed form of the Devetak-Winter rate.

    ``[h((eps0+eps1)/2) - (h(eps0)+h(eps1))/2 - h((1+c)/2)]+`` with
    ``c = exp(-gamma * received_mean_photons / 2)`` the interceptor overlap.
    """
    _check_point_args(received_mean_photons, gamma)
    channel = bob_click_model(detector, received_mean_photons)
    c = overlap(gamma * received_mean_photons)
    value = (
        binary_entropy(0.5 * (channel.eps0 + channel.eps1))
        - 0.5 * (binary_entropy(channel.eps0) + binary_entropy(channel.eps1))
        - binary_entropy(0.5 * (1.0 + c))
    )
    return max(value, 0.0)


def optimal_signal_strength(detector: DetectorModel, gamma: float) -> tuple[float, SecrecyPoint]:
    """Maximise the q-optimised capacity over the received mean photon number.

    Nested 1-D searches: the outer scan runs over log10 of the photon number
    (the capacity surface is smooth and near-separable in the two variables),
    the inner search optimises ``q`` at each probe.  The outer search spans
    :data:`PHOTON_SEARCH_BOUNDS` to :data:`LOG_TOL`.
    """
    lo, hi = PHOTON_SEARCH_BOUNDS

    def capacity_at_log(log_mu: float) -> float:
        return private_capacity(detector, 10.0**log_mu, gamma).private_capacity

    log_best, _ = maximize_1d(
        capacity_at_log, Interval(math.log10(lo), math.log10(hi)), tol=LOG_TOL
    )
    mu = 10.0**log_best
    return mu, private_capacity(detector, mu, gamma)


def plob_bound(eta: float) -> float:
    """Repeaterless secret-key upper bound ``-log2(1 - eta)`` in bits per use."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return -math.log2(1.0 - eta)


def private_rate(capacity: float, link: ClockedLink) -> float:
    """Convert bits per use to bits per second at the link's clock rate."""
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    return capacity * link.clock_rate


def required_laser_power(
    target_received_mean_photons: float, total_efficiency: float, link: ClockedLink
) -> float:
    """Average transmitter power needed to deliver the target photon number.

    The transmitted mean photon number per pulse is the target divided by the
    end-to-end efficiency; multiplying by the clock rate and the photon
    energy gives watts.
    """
    if target_received_mean_photons < 0:
        raise ValueError(
            f"target_received_mean_photons must be >= 0, got {target_received_mean_photons}"
        )
    if not 0.0 < total_efficiency <= 1.0:
        raise ValueError(f"total_efficiency must be in (0, 1], got {total_efficiency}")
    transmitted = target_received_mean_photons / total_efficiency
    photon_energy = _PLANCK * _SPEED_OF_LIGHT / link.wavelength
    return transmitted * link.clock_rate * photon_energy
