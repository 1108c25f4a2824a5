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
:func:`_prior_terms` (both channels' mutual information) at priors ``q``,
the interceptor's once per distinct photon number where the cells share them.
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

import numpy as np

from ._common import _PHOTONS, _RANGES, ClockedLink, OperatingPoint, SecrecyPoint, _check_as, _check_ranges
from .detection import BinaryCoherentEnsemble, _helstrom_split, _overlap_terms, helstrom_error
from .detection import holevo_bound, overlap
from .numerics import GRID_POINTS, Interval, _channel_information, _entropy, _entropy_in_place
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
Q_SCAN_STEP = 1e-3  # largest step of the q-search's last scan, before its parabolic step
PHOTON_SEARCH_BOUNDS = (1e-3, 1e2)
LOG_SCAN_STEP = 2.5e-3  # the same for the photon search, in log10 of the photon number
PHOTON_SEARCH_MEMO_SIZE = 128  # photon searches a process keeps, least recently used dropped
# Exact by definition in the 2019 SI.
_SPEED_OF_LIGHT = 299792458.0  # m/s
_PLANCK = 6.62607015e-34  # J s


def _cell_terms(mu, gamma, p_dark, eta_optical, stray_mean) -> np.ndarray:
    """The kernel's rows ``(eps0, eps1, h(eps0), h(eps1), s, y)`` that do not depend
    on the prior, stacked over the broadcast cells; ``(s, y)`` is :func:`_overlap_terms`."""
    eps0, eps1, n_eve = np.broadcast_arrays(
        *_no_click_probabilities(mu, p_dark, eta_optical, stray_mean), gamma * mu
    )
    return np.stack((eps0, eps1, *_entropy(np.stack((eps0, eps1))), *_overlap_terms(n_eve)))


def _prior_terms(terms, q):
    """``(info_bob, info_eve_helstrom)`` from :func:`_cell_terms` rows and
    priors ``q`` in [0, 1], an array whose first axis runs over the cells or,
    when every cell shares its priors, has length 1.  Each channel's
    information is written in place into new rows of the broadcast shape, with
    two rows of scratch shared by both (:func:`_receiver_information`,
    :func:`_interceptor_information`).  Where every cell shares the priors,
    as in the q-search's first scan, the interceptor's rows depend only on a
    cell's ``(s, y)``: they are taken once per distinct pair
    (:func:`_distinct_columns`) and gathered back to the cells, bit for bit
    what each cell's own row would be."""
    eps0, eps1, h_eps0, h_eps1, s, y = terms
    p = 1.0 - q
    # Two rows apart: one stack of them would be a block per call that the
    # allocator maps and unmaps.
    shape = np.broadcast(eps0, q).shape
    work, log = np.empty(shape), np.empty(shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        info_bob = _receiver_information(q, p, eps0, eps1, h_eps0, h_eps1, work, log)
        distinct = _distinct_columns(terms[4:]) if len(q) == 1 < len(s) else None
        if distinct is None:
            return info_bob, _interceptor_information(q, p, s, y, work, log)
        first, cell_of = distinct
        m = len(first)
        return info_bob, _interceptor_information(q, p, s[first], y[first], work[:m], log[:m])[cell_of]


def _receiver_information(q, p, eps0, eps1, h_eps0, h_eps1, work, log):
    """The receiver's ``I(X;Y)`` at priors ``q`` (``p = 1 - q``) from its click rows, in a new
    array: the output probability ``q eps0 + p eps1``, its entropy, then the information.
    ``work`` and ``log`` are scratch of the broadcast shape; the caller holds
    ``np.errstate(invalid="ignore", divide="ignore")``."""
    h = np.multiply(q, eps0)
    h += np.multiply(p, eps1, out=work)
    return _channel_information(q, _entropy_in_place(h, work, log), h_eps0, h_eps1, out=h, work=work)


def _interceptor_information(q, p, s, y, work, log):
    """The interceptor's Helstrom ``I(X;Z)`` at priors ``q`` (``p = 1 - q``) from her overlap rows
    ``(s, y)``, as :func:`_receiver_information` takes the receiver's: her errors ``e0, e1``
    (:func:`_helstrom_split`), her output probability ``q (1-e0) + p e1``, the three entropies in
    place, then the information."""
    e0, e1, _, _ = _helstrom_split(s, y, q)
    h = np.subtract(1.0, e0)
    h *= q
    h += np.multiply(p, e1, out=work)
    for row in (h, e0, e1):
        _entropy_in_place(row, work, log)
    return _channel_information(q, h, e0, e1, out=h, work=work)


def _distinct_columns(overlap):
    """``(first, cell_of)`` for the ``(s, y)`` rows ``overlap``, one column per cell: ``first`` holds
    one cell of each distinct pair of bits and ``cell_of`` each cell's position in ``first``;
    ``None`` when no two cells share their bits."""
    key = overlap.reshape(2, -1).view(np.int64)
    order = np.lexsort(key)
    key = key.take(order, axis=1)
    new = key[:, 1:] != key[:, :-1]
    new = new[0] | new[1]  # each sorted cell past the first whose pair differs from the one before
    if new.all():
        return None
    starts = np.concatenate(([True], new))
    cell_of = np.empty_like(order)
    cell_of[order] = starts.cumsum() - 1
    return order[starts], cell_of


def _optimal_q(terms) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (column) of the :func:`_cell_terms` rows, ``(q*, I(X;Y) - I(X;Z) at q*)``.

    The unclipped difference is maximised (it is continuous where the
    clipped value has flat zero plateaus), every cell in lockstep by
    :func:`maximize_lockstep`: the 64-point scan, two 9-point rescans down to a
    step of 9.7e-4 (at most :data:`Q_SCAN_STEP`) and one parabolic step, at
    most 64 + 9 + 9 + 1 points per cell, 4 kernel calls for up to 128 cells.
    A call's rows ``(6, block, 1)`` broadcast against its priors, the first
    scan's one shared row of them included; there :func:`_prior_terms` takes
    the interceptor's terms once per distinct photon number of the block.
    """
    def unclipped(q, cell):
        info_bob, info_eve = _prior_terms(terms[:, cell], q)
        return info_bob - info_eve

    return maximize_lockstep(unclipped, Interval(*Q_SEARCH_BOUNDS), Q_SCAN_STEP, terms.shape[1])


def secrecy_points(
    received_mean_photons, gamma, q, p_dark, eta_optical, stray_mean
) -> list[SecrecyPoint]:
    """One :class:`SecrecyPoint` per cell of the broadcast 1-D inputs.

    ``q=None`` maximises each cell's secrecy value over the input
    probability, as :func:`private_capacity` does; otherwise ``q`` gives each
    cell's input probability.  Each check raises the first bad cell's message, in this order:
    photon number and gamma by :class:`~wiretap_space.scenario_io.OperatingPoint`'s rule, then
    the detector fields by :class:`~wiretap_space.receiver.DetectorModel`'s, then ``q``.  The ``capacity`` table
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
    for section, cells in ((OperatingPoint, {"received_mean_photons": mu, "gamma": gamma}),
                           (DetectorModel, {"p_dark": p_dark, "eta_optical": eta_optical, "stray_mean": stray_mean})):
        bad = ~np.logical_and.reduce([_RANGES[section._rules[name]](column) for name, column in cells.items()])
        if bad.any():
            first = np.flatnonzero(bad)[0]
            section(**{name: float(column[first]) for name, column in cells.items()})  # raises
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
    _check_as(OperatingPoint, received_mean_photons=received_mean_photons, gamma=gamma)
    eps_star = helstrom_error(
        BinaryCoherentEnsemble(mean_photons=gamma * received_mean_photons, prior_q=0.5)
    )
    channel = bob_click_model(detector, received_mean_photons)
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
    _check_as(OperatingPoint, received_mean_photons=received_mean_photons, gamma=gamma)
    c = overlap(gamma * received_mean_photons)
    channel = bob_click_model(detector, received_mean_photons)
    value = (
        binary_entropy(0.5 * (channel.eps0 + channel.eps1))
        - 0.5 * (binary_entropy(channel.eps0) + binary_entropy(channel.eps1))
        - binary_entropy(0.5 * (1.0 + c))
    )
    return max(value, 0.0)


def optimal_signal_strength(detector: DetectorModel, gamma: float) -> tuple[float, SecrecyPoint]:
    """Maximise the q-optimised capacity over the received mean photon number.

    :func:`maximize_lockstep` on one cell over log10 of the photon number in
    :data:`PHOTON_SEARCH_BOUNDS`: a 64-point scan and one ``GRID_POINTS + 1``
    point rescan down to a step of 2.5e-3 decades (at most
    :data:`LOG_SCAN_STEP`), each one lockstep q-search over its points for
    the clipped capacity, so a zero plateau resolves to the lower bound; then
    the parabolic step, a one-cell q-search at the vertex.  The point is the
    kept cell (the vertex, or else the rescan's best) evaluated at the ``q*``
    its own q-search found, which is :func:`private_capacity` at that photon
    number bit for bit: 13 kernel calls.  The process keeps the last
    :data:`PHOTON_SEARCH_MEMO_SIZE` searches, keyed on the bits of
    ``(p_dark, eta_optical, stray_mean, gamma)`` (checked first), and returns
    a kept one without a kernel call.
    """
    _check_as(OperatingPoint, gamma=gamma)
    return _photon_search(struct.pack("<4d", detector.p_dark, detector.eta_optical, detector.stray_mean, gamma))


@functools.lru_cache(maxsize=PHOTON_SEARCH_MEMO_SIZE)
def _photon_search(key: bytes) -> tuple[float, SecrecyPoint]:
    """:func:`optimal_signal_strength` of the packed ``(p_dark, eta_optical, stray_mean, gamma)``."""
    *fields, gamma = struct.unpack("<4d", key)
    q_at = {}  # each searched log10 photon number's q*

    def capacity(log_mu, cell):
        q, unclipped = _optimal_q(_cell_terms(10.0**log_mu.ravel(), gamma, *fields))
        q_at.update(zip(log_mu.ravel().tolist(), q.tolist()))
        return np.maximum(unclipped, 0.0).reshape(log_mu.shape)

    bounds = Interval(*map(math.log10, PHOTON_SEARCH_BOUNDS))
    log_mu, _ = maximize_lockstep(capacity, bounds, LOG_SCAN_STEP, 1, GRID_POINTS + 1)
    (mu,) = (10.0**log_mu).tolist()  # the array power, as in the scans
    (point,) = secrecy_points(mu, gamma, q_at[log_mu[0]], *fields)  # the q of the cell maximize_lockstep kept
    return mu, point


def plob_bound(eta: float) -> float:
    """Repeaterless secret-key upper bound ``-log2(1 - eta)`` in bits per use."""
    _check_ranges(("eta", "[0, 1)", eta))
    return -math.log2(1.0 - eta)


def private_rate(capacity: float, link: ClockedLink) -> float:
    """Convert bits per use to bits per second at the link's clock rate."""
    _check_ranges(("capacity", ">= 0", capacity))
    return capacity * link.clock_rate


def required_laser_power(
    target_received_mean_photons: float, total_efficiency: float, link: ClockedLink
) -> float:
    """Average transmitter power needed to deliver the target photon number.

    The transmitted mean photon number per pulse is the target divided by the
    end-to-end efficiency; multiplying by the clock rate and the photon
    energy gives watts.
    """
    _check_ranges(("target_received_mean_photons", _PHOTONS, target_received_mean_photons),
                  ("total_efficiency", "(0, 1]", total_efficiency))
    transmitted = target_received_mean_photons / total_efficiency
    photon_energy = _PLANCK * _SPEED_OF_LIGHT / link.wavelength
    return transmitted * link.clock_rate * photon_energy
