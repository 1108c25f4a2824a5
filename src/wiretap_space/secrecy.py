"""Secrecy-rate computations for the OOK wiretap link.

The keyless private capacity at a fixed degradation ``gamma`` is
``max_q [ I(X;Y) - I(X;Z) ]+`` where Y is the legitimate threshold
detector's outcome and Z the interceptor's minimum-error quantum
measurement outcome.  Replacing I(X;Z) with the Holevo bound gives the
more pessimistic Devetak-Winter rate.  The interceptor sees exactly
``gamma`` times the legitimate receiver's mean photon number and suffers
no further loss or noise.

All general-prior values come from one numpy kernel in two steps:
:func:`_cell_terms` (the click model, the interceptor's overlap terms) over
broadcast cells of ``(mu, gamma, p_dark, eta_optical, stray_mean)``, and
:func:`_prior_terms` (both channels' mutual information) at priors ``q``.
:func:`secrecy_points` alone composes them: the first step once per batch,
shared by the lockstep q-search and the final evaluation, which adds the
Holevo bound.  ``private_capacity_fixed``, ``private_capacity`` and
``devetak_winter_rate`` are that call on one cell.  A cell's result does not
depend on the batch it is evaluated in, so the photon search
:func:`optimal_signal_strength` takes its point from the winning cell's own
q-search, and keeps its results per process in a bounded memo.

The uniform-prior closed forms are a second code path on purpose; they
must agree with the kernel to float precision at ``q = 1/2`` and are
cross-checked in the tests.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .detection import BinaryCoherentEnsemble, _helstrom_split, _overlap_terms, helstrom_error
from .detection import holevo_bound, overlap
from .numerics import GRID_POINTS, Interval, _channel_information, _check_photons, _entropy
from .numerics import binary_entropy, maximize_lockstep
from .receiver import DetectorModel, _checked_prior, _no_click_probabilities, bob_click_model

__all__ = [
    "SecrecyPoint",
    "ClockedLink",
    "private_capacity_fixed",
    "private_capacity",
    "devetak_winter_rate",
    "secrecy_points",
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
PHOTON_SEARCH_MEMO_SIZE = 128  # photon searches a process keeps, least recently used dropped
# Exact by definition in the 2019 SI.
_SPEED_OF_LIGHT = 299792458.0  # m/s
_PLANCK = 6.62607015e-34  # J s


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


@dataclass(frozen=True)
class ClockedLink:
    """Symbol clock and carrier wavelength used for rate/power conversions."""

    clock_rate: float = 1e9
    wavelength: float = 850e-9

    def __post_init__(self):
        problems = [f"{name} must be > 0, got {getattr(self, name)}"
                    for name in ("clock_rate", "wavelength") if not getattr(self, name) > 0]
        if problems:
            raise ValueError("; ".join(problems))


def _cell_terms(mu, gamma, p_dark, eta_optical, stray_mean) -> np.ndarray:
    """The kernel's rows ``(eps0, eps1, h(eps0), h(eps1), s, y)`` that do not depend
    on the prior, stacked over the broadcast cells; ``(s, y)`` is :func:`_overlap_terms`."""
    eps0, eps1, n_eve = np.broadcast_arrays(
        *_no_click_probabilities(mu, p_dark, eta_optical, stray_mean), gamma * mu
    )
    return np.stack((eps0, eps1, *_entropy(np.stack((eps0, eps1))), *_overlap_terms(n_eve)))


def _prior_terms(terms, q):
    """``(info_bob, info_eve_helstrom)`` from :func:`_cell_terms` rows and
    priors ``q`` in [0, 1]."""
    eps0, eps1, h_eps0, h_eps1, s, y = terms
    e0, e1, _, _ = _helstrom_split(s, y, q)
    p_bob, p_eve = q * eps0 + (1.0 - q) * eps1, q * (1.0 - e0) + (1.0 - q) * e1
    # One row at a time: a stack of the four would be a fresh block per call
    # that the allocator maps and unmaps (256 KiB at 8,192 points).
    h_bob, h_eve, h_e0, h_e1 = map(_entropy, (p_bob, p_eve, e0, e1))
    info_bob = _channel_information(q, h_bob, h_eps0, h_eps1)
    info_eve = _channel_information(q, h_eve, h_e0, h_e1)
    return info_bob, info_eve


def _check_point_args(received_mean_photons: float, gamma: float) -> None:
    _check_photons("received_mean_photons", received_mean_photons)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")


def _optimal_q(terms) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (column) of the :func:`_cell_terms` rows, ``(q*, I(X;Y) - I(X;Z) at q*)``.

    The unclipped difference is maximised (it is continuous where the
    clipped value has flat zero plateaus), every cell in lockstep by
    :func:`maximize_lockstep`'s nested scans; a call's rows ``(6, block, 1)``
    broadcast against its block's priors.
    """
    def unclipped(q, cell):
        info_bob, info_eve = _prior_terms(terms[:, cell], q)
        return info_bob - info_eve

    return maximize_lockstep(unclipped, Interval(*Q_SEARCH_BOUNDS), Q_SEARCH_TOL, terms.shape[1])


def secrecy_points(
    received_mean_photons, gamma, q, p_dark, eta_optical, stray_mean
) -> list[SecrecyPoint]:
    """One :class:`SecrecyPoint` per cell of the broadcast 1-D inputs.

    ``q=None`` maximises each cell's secrecy value over the input
    probability, as :func:`private_capacity` does; otherwise ``q`` gives each
    cell's input probability.  Each check raises the first bad cell's message, in this order:
    photon number and gamma as the one-point functions check them, then the detector fields
    as :class:`~wiretap_space.receiver.DetectorModel` does, then ``q``.  The ``capacity`` table
    (a sweep with no axis) reads the same :func:`_point_columns`, the one check of the rate invariant.
    """
    columns = _point_columns(received_mean_photons, gamma, q, p_dark, eta_optical, stray_mean)
    return [SecrecyPoint(*values) for values in zip(*columns)]


def _point_columns(received_mean_photons, gamma, q, p_dark, eta_optical, stray_mean) -> list[list[float]]:
    """:func:`secrecy_points` as its 8 columns in :class:`SecrecyPoint` field order, as the
    ``capacity`` and ``sweep`` tables read them.  The kernel's only input checks: photon number
    and gamma, then the detector fields, then ``q``.  The one check of ``dw_rate <= private_capacity``:
    the first cell that breaks it raises ``ValueError``."""
    mu, gamma, p_dark, eta_optical, stray_mean = (
        np.ravel(a).astype(float)
        for a in np.broadcast_arrays(received_mean_photons, gamma, p_dark, eta_optical, stray_mean)
    )
    bad = ~((0.0 <= mu) & (mu < math.inf)) | ~((0.0 <= gamma) & (gamma < 1.0))
    if bad.any():
        first = np.flatnonzero(bad)[0]
        _check_point_args(float(mu[first]), float(gamma[first]))
    bad = ~((0.0 <= p_dark) & (p_dark <= 1.0)) | ~((0.0 < eta_optical) & (eta_optical <= 1.0))
    bad |= ~((0.0 <= stray_mean) & (stray_mean < math.inf))
    if bad.any():
        first = np.flatnonzero(bad)[0]
        DetectorModel(float(p_dark[first]), float(eta_optical[first]), float(stray_mean[first]))  # raises
    terms = _cell_terms(mu, gamma, p_dark, eta_optical, stray_mean)
    if q is None:
        q, _ = _optimal_q(terms)
    else:
        q = _checked_prior(np.broadcast_to(np.asarray(q, dtype=float), mu.shape))
    info_bob, info_eve = _prior_terms(terms, q)
    holevo_eve = holevo_bound(terms[4], q)  # row 4: the interceptor's s = 1 - c^2
    capacity, dw_rate = np.maximum(info_bob - info_eve, 0.0), np.maximum(info_bob - holevo_eve, 0.0)
    columns = [c.tolist() for c in (gamma, mu, q, info_bob, info_eve, holevo_eve, capacity, dw_rate)]
    broken = np.flatnonzero(dw_rate > capacity + 1e-9)
    if broken.size:
        raise ValueError(f"dw_rate {columns[7][broken[0]]} exceeds private_capacity {columns[6][broken[0]]}")
    return columns


def private_capacity_fixed(
    detector: DetectorModel, received_mean_photons: float, gamma: float, q: float
) -> SecrecyPoint:
    """Evaluate the wiretap link at a fixed input probability ``q``.

    The private capacity entry is the clipped difference
    ``[I(X;Y) - I(X;Z)]+``; the Devetak-Winter entry replaces I(X;Z) by the
    Holevo bound.
    """
    (point,) = secrecy_points(
        received_mean_photons, gamma, q, detector.p_dark, detector.eta_optical, detector.stray_mean
    )
    return point


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
    (point,) = secrecy_points(
        received_mean_photons, gamma, None, detector.p_dark, detector.eta_optical, detector.stray_mean
    )
    return point


def devetak_winter_rate(
    detector: DetectorModel, received_mean_photons: float, gamma: float, q: float
) -> float:
    """Devetak-Winter rate ``[I(X;Y) - chi(X;E)]+`` in bits per use."""
    return private_capacity_fixed(detector, received_mean_photons, gamma, q).dw_rate


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

    :func:`maximize_lockstep` on one cell over log10 of the photon number in
    :data:`PHOTON_SEARCH_BOUNDS`, rescanning at ``GRID_POINTS + 1`` points
    down to a step of at most :data:`LOG_TOL`: three scans, each one lockstep
    q-search over its points for the clipped capacity, so a zero plateau
    resolves to the lower bound.  The point is the winning cell evaluated at
    the ``q*`` its own q-search in the last scan found, which is
    :func:`private_capacity` at the winning photon number bit for bit: 16
    kernel calls.  The process keeps the last :data:`PHOTON_SEARCH_MEMO_SIZE`
    searches, keyed on the bits of ``(p_dark, eta_optical, stray_mean, gamma)``
    (checked first), and returns a kept one without a kernel call.
    """
    _check_point_args(PHOTON_SEARCH_BOUNDS[0], gamma)
    return _photon_search(struct.pack("<4d", detector.p_dark, detector.eta_optical, detector.stray_mean, gamma))


@functools.lru_cache(maxsize=PHOTON_SEARCH_MEMO_SIZE)
def _photon_search(key: bytes) -> tuple[float, SecrecyPoint]:
    """:func:`optimal_signal_strength` of the packed ``(p_dark, eta_optical, stray_mean, gamma)``."""
    *fields, gamma = struct.unpack("<4d", key)
    last_scan = {}

    def capacity(log_mu, cell):
        q, unclipped = _optimal_q(_cell_terms(10.0**log_mu.ravel(), gamma, *fields))
        last_scan.update(q=q, capacity=np.maximum(unclipped, 0.0))
        return last_scan["capacity"].reshape(log_mu.shape)

    bounds = Interval(*map(math.log10, PHOTON_SEARCH_BOUNDS))
    log_mu, _ = maximize_lockstep(capacity, bounds, LOG_TOL, 1, GRID_POINTS + 1)
    (mu,) = (10.0**log_mu).tolist()  # the array power, as in the scans
    q = last_scan["q"][np.argmax(last_scan["capacity"])]  # the cell maximize_lockstep kept
    (point,) = secrecy_points(mu, gamma, q, *fields)
    return mu, point


def plob_bound(eta: float) -> float:
    """Repeaterless secret-key upper bound ``-log2(1 - eta)`` in bits per use."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return -math.log2(1.0 - eta)


def private_rate(capacity: float, link: ClockedLink) -> float:
    """Convert bits per use to bits per second at the link's clock rate."""
    if not capacity >= 0:
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
    _check_photons("target_received_mean_photons", target_received_mean_photons)
    if not 0.0 < total_efficiency <= 1.0:
        raise ValueError(f"total_efficiency must be in (0, 1], got {total_efficiency}")
    transmitted = target_received_mean_photons / total_efficiency
    photon_energy = _PLANCK * _SPEED_OF_LIGHT / link.wavelength
    return transmitted * link.clock_rate * photon_energy
