"""Shared numerical primitives.

Binary Shannon entropy and the mutual information of binary channels from
their entropies (shared by the secrecy kernel and the one-point functions),
bounded 1-D maximisation (a grid scan, nested rescans of the best point's
neighbourhood, then one parabolic step) for many functions in lockstep or
for one, bracketed bisection, and the power fraction of a Gaussian beam
falling on an offset circular disk, as a contour integral over the disk's
rim (on disks under 0.01 beam radii, a series for the disk's mean of the
beam).
Everything here is a pure function of its inputs and safe to call
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._common import BracketError, ConfigError, _check_ranges

__all__ = [
    "Interval",
    "BracketError",
    "ConfigError",
    "binary_entropy",
    "maximize_1d",
    "maximize_lockstep",
    "find_root",
    "gaussian_disk_fraction",
]

# Probabilities within this distance of [0, 1] count as its nearest bound
# rather than being rejected, so float rounding does not trip the range check.
_CLAMP_EPS = 1e-12

# Points of the first scan of :func:`maximize_lockstep`, both endpoints included.
GRID_POINTS = 64
# Points of each later scan of a cell's best neighbourhood: odd, so the best
# point is the middle one.
REFINE_POINTS = 9
# Cells per call of the objective in the first scan of :func:`maximize_lockstep`;
# every call holds at most SCAN_BLOCK_CELLS * GRID_POINTS points.
SCAN_BLOCK_CELLS = 128
# Beam radii past which :func:`gaussian_disk_fraction` saturates at 1 or 0.
_REACH_RADII = 8.0
# Disks below this many beam radii, where the rim integral's halves cancel,
# take the series of :func:`_small_disk_fraction`, to this many terms.
_SMALL_DISK_RADII = 0.01
_SMALL_DISK_TERMS = 8
# Points of the Gauss-Legendre rule of the disk fraction's rim integral.
RIM_POINTS = 32
# The rule's positive nodes on [-1, 1] and their weights, as
# np.polynomial.legendre.leggauss(RIM_POINTS) gives them; the rule is
# symmetric.  Literals, because leggauss's first LAPACK call costs ~15 ms of
# start-up.
_RIM_HALF_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_RIM_HALF_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)
# The rule moved to [0, 1]: the nodes as fractions of the integration range.
_RIM_NODES = 0.5 + 0.5 * np.concatenate((-np.array(_RIM_HALF_NODES[::-1]), _RIM_HALF_NODES))
_RIM_WEIGHTS = np.array(_RIM_HALF_WEIGHTS[::-1] + _RIM_HALF_WEIGHTS)


@dataclass(frozen=True)
class Interval:
    """A finite open interval ``(lo, hi)`` with ``lo < hi``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")


def _entropy(p) -> np.ndarray:
    """Array form of :func:`binary_entropy` for ``p`` built in [0, 1] up to
    rounding: no range check, and rounding slop outside gives 0.

    Inside (0, 1) both terms are finite and their sum is positive.  At 0 or 1,
    or outside [0, 1] (rounding slop, infinities, NaN), one term is NaN
    (``0 * -inf`` or the log of a negative number), and ``fmax`` turns the NaN
    into the 0 of the convention 0*log2(0) = 0.  A float ``p`` gives a 0-d array.
    """
    h = np.array(p, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return _entropy_in_place(h, np.empty_like(h), np.empty_like(h))


def _entropy_in_place(p: np.ndarray, q: np.ndarray, log: np.ndarray) -> np.ndarray:
    """:func:`_entropy` written over the array ``p`` and returned, with ``q`` and ``log``
    (arrays of its shape) as scratch: ``-p log2(p) - (1-p) log2(1-p)``, the same
    operations in the same order.  The caller holds
    ``np.errstate(invalid="ignore", divide="ignore")``."""
    np.subtract(1.0, p, out=q)
    np.log2(p, out=log)
    np.negative(p, out=p)
    p *= log
    q *= np.log2(q, out=log)
    p -= q
    return np.fmax(p, 0.0, out=p)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with the convention 0*log2(0) = 0.
    ``p`` comes from outside the program: beyond 1e-12 outside [0, 1] it raises."""
    if not -_CLAMP_EPS <= p <= 1.0 + _CLAMP_EPS:
        raise ValueError(f"probability out of [0, 1]: {p}")
    return float(_entropy(p))


def _channel_information(q, h_out, h_0, h_1, out=None, work=None) -> np.ndarray:
    """Mutual information ``h_out - q h_0 - (1-q) h_1`` in bits of binary channels
    with prior ``q`` of input 0, output entropy ``h_out`` and output entropy
    ``h_0`` (``h_1``) given input 0 (1); clipped at 0 against rounding.  As in a
    ufunc, ``out`` (which may be ``h_out``) takes the result and ``work`` the
    products, both arrays of the broadcast shape; ``None`` allocates."""
    info = np.subtract(h_out, np.multiply(q, h_0, out=work), out=out)
    info -= np.multiply(1.0 - q, h_1, out=work)
    return np.maximum(info, 0.0, out=out)


def maximize_lockstep(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    domain: Interval,
    tol: float,
    cells: int,
    points: int = REFINE_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise ``cells`` independent functions over one ``domain`` at once.

    ``f(x, cell)`` returns the values of the functions numbered ``cell``, a
    column of cell numbers, at the abscissae ``x``, one row per cell, in the
    broadcast shape of the two arrays, and no NaN.  The first scan takes
    :data:`GRID_POINTS` points including both endpoints, passed as one
    ``(1, GRID_POINTS)`` row that every cell shares; each next one takes
    ``points`` points (odd, at least 5) over a cell's two grid neighbours
    ``[x[j-1], x[j+1]]`` of its best point ``i``, ``j = clip(i, 1, n - 2)``, so
    the best point stays on the new grid (to rounding) and an endpoint
    maximum stays exactly at the bound.  Each scan keeps a cell's first
    maximum (``np.argmax``).  The nominal step shrinks by ``2 / (points - 1)``
    per scan, alike for every cell, and the last scan is the one whose step
    is at most ``tol``.

    Then one parabolic step (successive parabolic interpolation, Brent 1973,
    ch. 5): where a cell's best point of the last scan is interior and its
    values there and at its two neighbours are concave, the vertex of the
    parabola through them, inside the neighbours' bracket, is evaluated, all
    such cells in one more call of ``f``; a vertex is kept only where its
    value is at least the grid's best.  Endpoint maxima and flat or convex
    triples keep the grid point, so no cell ends below its last scan.

    Each call of ``f`` holds at most ``SCAN_BLOCK_CELLS * GRID_POINTS``
    points.  Returns ``(argmax, max)`` arrays of length ``cells``.
    """
    _check_ranges(("tol", "> 0", tol))
    if points < 5 or points % 2 == 0:
        raise ValueError(f"points must be odd and >= 5, got {points}")
    step = (domain.hi - domain.lo) / (GRID_POINTS - 1)
    grid = domain.lo + np.arange(GRID_POINTS) * step
    grid[-1] = domain.hi
    grid = grid[np.newaxis]  # one row for every cell: f's terms in x alone are taken once per call
    rows, offsets = np.arange(cells), np.arange(points)
    best, best_f = np.empty(cells, dtype=np.intp), np.empty(cells)
    below, above = np.empty(cells), np.empty(cells)  # the last scan's values beside the best point
    while True:
        last, n = step <= tol, grid.shape[1]
        block = SCAN_BLOCK_CELLS * GRID_POINTS // n
        for start in range(0, cells, block):
            part = slice(start, start + block)
            values = f(grid if len(grid) == 1 else grid[part], rows[part, np.newaxis])
            i, r = np.argmax(values, axis=1), np.arange(values.shape[0])
            best[part], best_f[part] = i, values[r, i]
            if last:
                below[part], above[part] = values[r, np.maximum(i - 1, 0)], values[r, np.minimum(i + 1, n - 1)]
        own = rows if len(grid) > 1 else 0  # each cell's row of the grid, or the one shared row
        j = np.minimum(np.maximum(best, 1), n - 2)
        low, high = grid[own, j - 1], grid[own, j + 1]
        if last:
            break
        # np.linspace(low, high, points) for each cell, bit for bit
        grid = low[:, np.newaxis] + offsets * ((high - low) / (points - 1))[:, np.newaxis]
        grid[:, -1] = high
        step *= 2.0 / (points - 1)
    x = grid[own, best]
    # The parabola's vertex by Brent's form, from the differences to the best point.
    with np.errstate(all="ignore"):
        left, right = (x - low) * (best_f - above), (high - x) * (best_f - below)
        vertex = x - 0.5 * ((x - low) * left - (high - x) * right) / (left + right)
    polish = ((best > 0) & (best < n - 1) & (left + right > 0.0) & np.isfinite(vertex)).nonzero()[0]
    vertex = np.minimum(np.maximum(vertex, low), high)
    for start in range(0, polish.size, SCAN_BLOCK_CELLS * GRID_POINTS):
        part = polish[start : start + SCAN_BLOCK_CELLS * GRID_POINTS]
        values = f(vertex[part, np.newaxis], part[:, np.newaxis])[:, 0]
        better = values >= best_f[part]
        kept = part[better]
        x[kept], best_f[kept] = vertex[kept], values[better]
    return x, best_f


def maximize_1d(f: Callable[[float], float], domain: Interval, tol: float) -> tuple[float, float]:
    """Maximise ``f`` over ``domain``; returns ``(argmax, max)``.

    :func:`maximize_lockstep` on one cell, calling ``f`` once per point, scan
    by scan.  The first scan's :data:`GRID_POINTS` points make the search
    robust to mild non-unimodality, e.g. flat clipped plateaus next to a
    single interior peak.
    """
    def each(x: np.ndarray, cell: np.ndarray) -> np.ndarray:
        return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    x, fx = maximize_lockstep(each, domain, tol, cells=1)
    return float(x[0]), float(fx[0])


def find_root(f: Callable[[float], float], bracket: Interval, tol: float) -> float:
    """Bisection on ``bracket`` down to width ``tol``; returns the midpoint."""
    _check_ranges(("tol", "> 0", tol))
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _rim_fraction(a, b, d):
    """Gaussian disk fraction by the contour integral over the disk's rim.

    All lengths in units of ``w / 2``: 1-D arrays of the offset ``a``, the
    disk radius ``b`` and ``d = a - b``, taken from the physical difference.
    By Green's theorem the fraction is ``(1/2 pi)`` times the integral of
    the Rayleigh CDF ``1 - e^(-r^2/2)`` over the angle ``theta`` about the
    beam axis, once around the rim.  With ``phi`` the angle along the rim
    from its point nearest the axis and ``sigma = sin^2(phi / 2)``, the
    squared distance from the axis is ``s = d^2 + 4 a b sigma`` and
    ``dtheta / dphi = N / s`` with ``N = 2 a b sigma - b d``.  The half rim
    past ``phi1``, where ``sin^2(phi1 / 2) = 20 / max(a b, 20)``, lies
    beyond ``s = d^2 + 80`` and adds only its swept angle, the arctangent
    below.  On ``[0, phi1]`` the rule is :data:`RIM_POINTS`-point
    Gauss-Legendre.

    Near the rim or inside it (``d < 2``) the integrand is
    ``(1 - e^(-s/2)) N / s``, which has no pole; farther out the swept angle
    is 0 and only ``-e^(-s/2) N / s`` remains.  That form's pole at
    ``s = 0`` nears the real axis as ``d`` falls: with the switch at
    ``d = 1`` it cost up to 2e-10 relative near ``a b = 20``; at ``d = 2``
    neither form errs by more than 4e-14 on disks of 0.01 beam radii and up.
    On smaller disks the integrand's halves cancel to a share ~ ``b^2``; those
    take :func:`_small_disk_fraction` instead.
    """
    ab = a * b
    cut = 20.0 / np.maximum(ab, 20.0)  # sin^2(phi1 / 2)
    near = d < 2.0
    # The angle swept from the rim point at phi1 to the far point at phi = pi.
    swept = np.where(near, np.arctan2(2.0 * b * np.sqrt(cut * (1.0 - cut)), d + 2.0 * b * cut), 0.0)
    half = np.arcsin(np.sqrt(cut))  # phi1 / 2
    # One row per node, one column per sample, in two arrays worked in place.
    # sigma from tan(phi / 2): numpy's tan is several times faster than its sin.
    sigma = np.multiply(_RIM_NODES[:, np.newaxis], half)
    np.square(np.tan(sigma, out=sigma), out=sigma)
    exponent = np.add(1.0, sigma)
    sigma /= exponent
    np.multiply(sigma, -2.0 * ab, out=exponent)
    exponent -= 0.5 * d * d  # -s / 2
    flow = np.multiply(sigma, -ab, out=sigma)
    flow += 0.5 * b * d  # -N / 2
    flow /= exponent  # N / s
    np.expm1(exponent, out=exponent, where=near)
    np.exp(exponent, out=exponent, where=~near)
    flow *= exponent
    flow *= _RIM_WEIGHTS[:, np.newaxis]
    # Summed in a fixed pairwise tree, so each sample's sum is the same
    # whatever the batch around it (a reduction's order is not).
    rows = flow.shape[0]
    while rows > 1:
        rows //= 2
        flow[:rows] += flow[rows : 2 * rows]
    return np.clip((swept - half * flow[0]) / math.pi, 0.0, 1.0)


def _small_disk_fraction(a, b):
    """Gaussian disk fraction of disks smaller than :data:`_SMALL_DISK_RADII`
    beam radii, lengths in units of ``w / 2`` as in :func:`_rim_fraction`.

    The disk's mean of the beam profile as a series in its area:
    ``x e^(-y) sum_k (-x)^k L_k(y) / (k + 1)!`` with ``x = b^2 / 2 = 2 R^2 / w^2``,
    ``y = a^2 / 2 = 2 offset^2 / w^2`` and ``L_k`` the Laguerre polynomials.
    In the band, ``x < 2e-4`` and ``y < 128.4``; as ``|L_k(y)|`` is at most
    ``sum_j C(k, j) y^j / j!``, each term's bound is under 1.3% of the one
    before, so the sum is within 1.3% of 1 (no cancellation) and the first
    term left out, ``k = 8`` for :data:`_SMALL_DISK_TERMS`, is below 2.1e-23.
    """
    x, y = 0.5 * b * b, 0.5 * a * a
    previous, laguerre = 1.0, 1.0 - y
    power = -0.5 * x  # (-x)^k / (k + 1)!
    total = 1.0 + power * laguerre
    for k in range(1, _SMALL_DISK_TERMS - 1):
        previous, laguerre = laguerre, ((2 * k + 1 - y) * laguerre - k * previous) / (k + 1)
        power = power * -x / (k + 2)
        total += power * laguerre
    return x * np.exp(-y) * total


def _disk_fraction(beam_radius_w, offset, disk_radius):
    """Array form of :func:`gaussian_disk_fraction`, without argument checks.

    Exactly 1 or 0 beyond ``_REACH_RADII`` beam radii inside or outside the
    rim, and 0 on a disk of radius 0.  Each sample of the band between takes
    one rule: :func:`_small_disk_fraction` on disks under
    ``_SMALL_DISK_RADII`` beam radii, :func:`_rim_fraction` on the rest.
    """
    w, offset, disk_radius = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (beam_radius_w, offset, disk_radius))
    )
    inside = offset + _REACH_RADII * w <= disk_radius
    band = ~(inside | (offset - _REACH_RADII * w >= disk_radius)) & (disk_radius > 0.0)
    fraction = np.array(inside, dtype=float)
    if band.any():
        # Lengths no float holds give NaN here, caught below.
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 2.0 / w[band]
            a, b = scale * offset[band], scale * disk_radius[band]
            d = scale * (offset[band] - disk_radius[band])
            small = b < 2.0 * _SMALL_DISK_RADII
            if small.any():
                edge = np.empty_like(b)
                edge[small] = _small_disk_fraction(a[small], b[small])
                rim = ~small
                if rim.any():
                    edge[rim] = _rim_fraction(a[rim], b[rim], d[rim])
            else:  # the usual band, rim samples only: no subset copies
                edge = _rim_fraction(a, b, d)
        if not np.isfinite(edge).all():
            raise FloatingPointError("Gaussian disk fraction is not finite: beam too narrow for the disk")
        fraction[band] = edge
    return fraction


def gaussian_disk_fraction(beam_radius_w: float, offset: float, disk_radius: float) -> float:
    """Fraction of a Gaussian beam's power collected by an offset disk.

    The beam intensity profile is ``(2 / (pi w^2)) exp(-2 r^2 / w^2)`` where
    ``w`` is the 1/e^2 radius.  The disk has radius ``disk_radius`` and its
    centre sits ``offset`` metres from the beam axis.

    Parameters
    ----------
    beam_radius_w : float
        Beam 1/e^2 radius at the collection plane (> 0).
    offset : float
        Distance of the disk centre from the beam axis (>= 0).
    disk_radius : float
        Radius of the collecting disk (>= 0).

    Returns
    -------
    float
        Collected power fraction in [0, 1].

    Notes
    -----
    Within 8 beam radii of the rim, on disks of at least 0.01 beam radii,
    the fraction is a contour integral over the disk's rim, 32-point
    Gauss-Legendre on the part of the rim near the beam axis plus the angle
    the rest subtends (:func:`_rim_fraction`); it needs exp, expm1, tan,
    asin and atan2, and no Bessel function.  Checked
    against an mpmath evaluation of the radial Bessel-I0 integral, for disks
    of 0.01 to 100 beam radii and offsets up to 7 beam radii beyond the rim
    (400 draws), the error is at most 4.4e-16 absolute, 1.1e-14 relative
    for fractions above 1e-10 and 3.8e-14 relative down to 1e-45; for disks
    of 1e2 to 1e7 beam radii and offsets within 8 beam radii of the rim
    (150 draws), at most 3.3e-16 absolute and 2.5e-14 relative.  Disks of
    less than 0.01 beam radii take a series for the disk's mean of the beam
    (:func:`_small_disk_fraction`); for disks of 1e-8 to 0.01 beam radii and
    the same offsets (200 draws) it errs by at most 2.7e-20 absolute,
    1.4e-15 relative above 1e-10 and 1.9e-14 below.  Smaller
    fractions may round to 0: a disk's share is below ``2 R^2 / w^2``, so
    under about 1e-154 beam radii it is subnormal and under about 1e-162
    beam radii 0.  Only a subnormal beam radius, for which
    ``2 / w`` overflows, gives a non-finite value; that raises
    :class:`FloatingPointError`.

    The fraction is exactly 1 where ``offset + 8 w <= disk_radius`` and 0
    where ``offset - 8 w >= disk_radius``, where the exact share differs
    from those by at most 6.4e-58, and exactly 0 on a disk of radius 0.
    """
    _check_ranges(("beam_radius_w", "> 0", beam_radius_w), ("offset", ">= 0", offset),
                  ("disk_radius", ">= 0", disk_radius))
    return float(_disk_fraction(beam_radius_w, offset, disk_radius))
