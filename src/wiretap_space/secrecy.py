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
broadcast cells of ``(mu, gamma, p_dark, eta_optical, stray_mean)``, written
as rows of one array, and :func:`_prior_terms` (both channels' mutual
information) at priors ``q``, each once per distinct pair of its terms where
the cells share the priors.  Both steps work in place on blocks of rows, so
that each numpy call covers as much as it can: the interceptor's two
conditional errors come from one ``arctan2`` over a pair of rows, and her
three entropies from one call over a block of three; every operation on every
element, and its order, is that of the expressions the steps stand for.
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
from .numerics import GRID_POINTS, Interval, _channel_information, _entropy_in_place
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
    on the prior, written over the broadcast cells into one array; ``(s, y)`` is
    :func:`_overlap_terms`.  Two more rows are the entropies' scratch."""
    rows = np.empty((8,) + np.broadcast(mu, gamma, p_dark, eta_optical, stray_mean).shape)
    rows[0], rows[1] = _no_click_probabilities(mu, p_dark, eta_optical, stray_mean)
    rows[2:4] = rows[:2]
    with np.errstate(invalid="ignore", divide="ignore"):
        _entropy_in_place(rows[2:4], rows[4:6], rows[6:])
    _overlap_terms(gamma * mu, out=rows[4:6])
    return rows[:6]


def _prior_terms(terms, q, mirrored=False):
    """``(info_bob, info_eve_helstrom)`` from :func:`_cell_terms` rows and
    priors ``q`` in [0, 1], an array whose first axis runs over the cells or,
    when every cell shares its priors, has length 1.  ``p = 1 - q`` is taken
    once, for both channels and each product by ``1 - q``.  Each channel's
    information is written in place into rows of its broadcast shape: the
    receiver's over his output probability, with two rows of scratch
    (:func:`_receiver_information`); the interceptor's over the first row of a
    block of three, her output probability and her two errors, whose three
    entropies one call takes, with two blocks of scratch
    (:func:`_interceptor_information`).  Where every cell shares the priors, as
    in the q-search's first scan, a channel's information depends on a cell only
    through its first two rows, the receiver's ``(eps0, eps1)`` and the
    interceptor's ``(s, y)``: it is taken once per distinct pair of bits
    (:func:`_once_per_pair`), bit for bit what each cell's own row would be.
    ``mirrored`` (the q-search's first scan) takes hers by :func:`_mirrored_information`."""
    p = 1.0 - q
    interceptor = _mirrored_information if mirrored else _interceptor_information
    with np.errstate(invalid="ignore", divide="ignore"):
        info_eve = _once_per_pair(interceptor, terms[4:], q, p)  # hers first: her nine rows are the most
        return _once_per_pair(_receiver_information, terms[:4], q, p), info_eve


def _once_per_pair(information, rows, q, p):
    """``information(q, p, *rows)``, one channel's information from its ``rows``; where every
    cell shares the priors (``q`` has one row), taken once per distinct pair of bits of the
    first two rows (:func:`_distinct_columns`) and gathered back to the cells."""
    distinct = _distinct_columns(rows[:2]) if len(q) == 1 < rows.shape[1] else None
    if distinct is None:
        return information(q, p, *rows)
    first, cell_of = distinct
    return information(q, p, *(row[first] for row in rows))[cell_of]


def _receiver_information(q, p, eps0, eps1, h_eps0, h_eps1):
    """The receiver's ``I(X;Y)`` at priors ``q`` (``p = 1 - q``) from his click rows, in a new
    array: the output probability ``q eps0 + p eps1``, its entropy in place, then the
    information.  The caller holds ``np.errstate(invalid="ignore", divide="ignore")``."""
    h = np.multiply(q, eps0)
    work, log = np.empty(h.shape), np.empty(h.shape)
    h += np.multiply(p, eps1, out=work)
    return _channel_information(q, p, _entropy_in_place(h, work, log), h_eps0, h_eps1, out=h, work=work)


def _interceptor_information(q, p, s, y):
    """The interceptor's Helstrom ``I(X;Z)`` at priors ``q`` (``p = 1 - q``) from her overlap rows
    ``(s, y)``, as :func:`_receiver_information` takes the receiver's, in one block of three
    rows: her errors ``e0, e1`` in its last two (:func:`_helstrom_split`, its ordinates and
    abscissae in the scratch blocks), her output probability ``q (1-e0) + p e1`` in its first,
    the three entropies in place in one call over the block, then the information in its first
    row.  The block and its two blocks of scratch are three arrays: one of nine rows would, on a
    sweep's first scan, pass the allocator's mapping threshold and be mapped and unmapped per call."""
    shape = (3,) + np.broadcast(q, s).shape
    block, work, log = np.empty(shape), np.empty(shape), np.empty(shape)
    h, e0, e1 = block
    _helstrom_split(s, y, q, p, out=block[1:], work=(work[:2], log[:2]))
    np.subtract(1.0, e0, out=h)
    h *= q
    h += np.multiply(p, e1, out=work[0])
    _entropy_in_place(block, work, log)
    return _channel_information(q, p, h, e0, e1, out=h, work=work[0])


def _mirrored_information(q, p, s, y):
    """:func:`_interceptor_information` on the lower half of one shared row ``q`` symmetric about 1/2,
    its reversed copy on the upper half: hers at ``1 - q``."""
    n = q.shape[1] // 2
    half = _interceptor_information(q[:, :n], p[:, :n], s, y)
    return np.concatenate((half, half[:, ::-1]), axis=1)


def _distinct_columns(pairs):
    """``(first, cell_of)`` for two rows ``pairs``, one column per cell: ``first`` holds
    one cell of each distinct pair of bits and ``cell_of`` each cell's position in ``first``;
    ``None`` when no two cells share their bits."""
    key = pairs.reshape(2, -1).view(np.int64)
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
    each channel's information once per distinct pair of its terms in the
    block: the receiver's once per photon number and detector, the
    interceptor's once per photon number of hers, on the lower 32 priors and
    mirrored: her states are pure, so her information is symmetric in
    q <-> 1 - q (Helstrom 1976), as is the row (checked: an even :data:`GRID_POINTS`,
    bounds that sum to 1).  This only ranks the scan's points; an exact tie of
    q and 1 - q keeps the lower.
    """
    if GRID_POINTS % 2 or sum(Q_SEARCH_BOUNDS) != 1.0:
        raise ValueError(f"the first q scan must be symmetric about 1/2, got {GRID_POINTS} over {Q_SEARCH_BOUNDS}")

    def unclipped(q, cell):
        info_bob, info_eve = _prior_terms(terms.take(cell, axis=1), q, mirrored=q.shape == (1, GRID_POINTS))
        return info_bob - info_eve

    return maximize_lockstep(unclipped, Interval(*Q_SEARCH_BOUNDS), Q_SCAN_STEP, terms.shape[1])


def secrecy_points(
    received_mean_photons, gamma, q, p_dark, eta_optical, stray_mean
) -> list[SecrecyPoint]:
    """One :class:`SecrecyPoint` per cell of the broadcast 1-D inputs.

    ``q=None`` maximises each cell's secrecy value over the input
    probability, as :func:`private_capacity` does; otherwise ``q`` gives each
    cell's input probability.  Each check raises the first bad cell's message, in this order:
    photon number and gamma by :class:`~wiretap_space.config.OperatingPoint`'s rule, then
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
    inputs = (received_mean_photons, gamma, p_dark, eta_optical, stray_mean)
    cells = np.empty((len(inputs),) + np.broadcast(*inputs).shape)  # each input broadcast, as floats
    for row, values in enumerate(inputs):
        cells[row] = values
    cells = cells.reshape(len(inputs), -1)
    mu, gamma, p_dark, eta_optical, stray_mean = cells
    for section, names, columns in ((OperatingPoint, ("received_mean_photons", "gamma"), cells[:2]),
                                    (DetectorModel, ("p_dark", "eta_optical", "stray_mean"), cells[2:])):
        inside = functools.reduce(np.logical_and, [_RANGES[section._rules[n]](c) for n, c in zip(names, columns)])
        if not inside.all():
            first = inside.argmin()
            section(**{name: float(column[first]) for name, column in zip(names, columns)})  # raises
    terms = _cell_terms(mu, gamma, p_dark, eta_optical, stray_mean)
    if q is None:
        q, _ = _optimal_q(terms)
    else:
        q, fixed = np.empty(mu.shape), q
        q[...] = fixed
        _checked_prior(q)
    info_bob, info_eve = _prior_terms(terms, q)
    holevo_eve = holevo_bound(terms[4], q)  # row 4: the interceptor's s = 1 - c^2
    capacity, dw_rate = np.maximum(info_bob - info_eve, 0.0), np.maximum(info_bob - holevo_eve, 0.0)
    columns = [c.tolist() for c in (gamma, mu, q, info_bob, info_eve, holevo_eve, capacity, dw_rate)]
    broken = dw_rate > capacity + 1e-9
    if broken.any():
        first = broken.argmax()
        raise ValueError(f"dw_rate {columns[7][first]} exceeds private_capacity {columns[6][first]}")
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
