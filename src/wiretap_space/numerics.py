"""Shared numerical primitives.

Binary Shannon entropy and the mutual information of binary channels from
their entropies (shared by the secrecy kernel and the one-point functions),
bounded 1-D maximisation (a grid scan, then nested rescans of the best
point's neighbourhood) for many functions in lockstep or for one, bracketed
bisection, and the power fraction of a Gaussian beam falling on an offset
circular disk, in closed form as a noncentral chi-square CDF.
Everything here is a pure function of its inputs and safe to call
concurrently.  scipy is imported on the first disk-fraction call only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


class BracketError(ValueError):
    """The supplied bracket does not straddle a sign change."""


class ConfigError(ValueError):
    """Invalid user input; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid configuration: " + "; ".join(violations))
        self.violations = list(violations)


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
    rounding: no range check, and rounding slop outside gives 0."""
    inside = (p > 0.0) & (p < 1.0)
    p = np.where(inside, p, 0.5)
    return np.where(inside, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with the convention 0*log2(0) = 0.
    ``p`` comes from outside the program: beyond 1e-12 outside [0, 1] it raises."""
    if p < -_CLAMP_EPS or p > 1.0 + _CLAMP_EPS:
        raise ValueError(f"probability out of [0, 1]: {p}")
    return float(_entropy(p))


def _channel_information(q, h_out, h_0, h_1) -> np.ndarray:
    """Mutual information ``h_out - q h_0 - (1-q) h_1`` in bits of binary channels
    with prior ``q`` of input 0, output entropy ``h_out`` and output entropy
    ``h_0`` (``h_1``) given input 0 (1); clipped at 0 against rounding."""
    return np.maximum(h_out - q * h_0 - (1.0 - q) * h_1, 0.0)


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
    :data:`GRID_POINTS` points including both endpoints; each next one takes
    ``points`` points (odd, at least 5) over a cell's two grid neighbours
    ``[x[j-1], x[j+1]]`` of its best point ``i``, ``j = clip(i, 1, n - 2)``, so
    the best point stays on the new grid (to rounding) and an endpoint
    maximum stays exactly at the bound.  Each scan keeps a cell's first
    maximum (``np.argmax``).  The nominal step shrinks by ``2 / (points - 1)``
    per scan, alike for every cell, and the search ends with the scan whose
    step is at most ``tol``.  Each call of ``f`` holds at most
    ``SCAN_BLOCK_CELLS * GRID_POINTS`` points.  Returns ``(argmax, max)``
    arrays of length ``cells``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if points < 5 or points % 2 == 0:
        raise ValueError(f"points must be odd and >= 5, got {points}")
    step = (domain.hi - domain.lo) / (GRID_POINTS - 1)
    grid = domain.lo + np.arange(GRID_POINTS) * step
    grid[-1] = domain.hi
    grid = np.broadcast_to(grid, (cells, GRID_POINTS))
    rows = np.arange(cells)
    best, best_f = np.empty(cells, dtype=np.intp), np.empty(cells)
    while True:
        block = SCAN_BLOCK_CELLS * GRID_POINTS // grid.shape[1]
        for start in range(0, cells, block):
            part = slice(start, start + block)
            values = f(grid[part], rows[part, np.newaxis])
            best[part] = np.argmax(values, axis=1)
            best_f[part] = values[np.arange(values.shape[0]), best[part]]
        if step <= tol:
            return grid[rows, best], best_f
        j = np.clip(best, 1, grid.shape[1] - 2)
        low, high = grid[rows, j - 1], grid[rows, j + 1]
        # np.linspace(low, high, points) for each cell, bit for bit
        grid = low[:, np.newaxis] + np.arange(points) * ((high - low) / (points - 1))[:, np.newaxis]
        grid[:, -1] = high
        step *= 2.0 / (points - 1)


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
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
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


def _disk_fraction(beam_radius_w, offset, disk_radius):
    """Array form of :func:`gaussian_disk_fraction`, without argument checks.

    In units of ``w / 2`` the collected fraction is the CDF of a noncentral
    chi-square variable with 2 degrees of freedom, evaluated at the squared
    disk radius with the squared offset as non-centrality (one minus the
    Marcum Q1 function), saturated at ``_REACH_RADII`` beam radii.  The CDF
    is evaluated on the band between the two saturated regions only.
    """
    w, offset, disk_radius = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (beam_radius_w, offset, disk_radius))
    )
    inside = offset + _REACH_RADII * w <= disk_radius
    band = ~(inside | (offset - _REACH_RADII * w >= disk_radius))
    fraction = np.array(inside, dtype=float)
    if band.any():
        from scipy.special import chndtr  # on first use: only the pass integral needs scipy

        scale = 2.0 / w[band]
        edge = chndtr((scale * disk_radius[band]) ** 2, 2.0, (scale * offset[band]) ** 2)
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
    Exact closed form: ``chndtr((2 R / w)^2, 2, (2 offset / w)^2)``.  Checked
    against an mpmath evaluation of the radial Bessel-I0 integral for disks of
    0.01 to 100 beam radii and offsets up to 7 beam radii beyond the rim, the
    error is below 5e-14 absolute (largest for fractions near 1 on large
    disks), below 2e-13 relative for fractions above 1e-10, and below 5e-12
    relative down to 1e-45.  Smaller fractions may round to 0.

    The fraction is exactly 1 where ``offset + 8 w <= disk_radius`` and 0
    where ``offset - 8 w >= disk_radius``.  There the CDF gives 1 and at most
    6.4e-58 where it is finite, but it is NaN on large disks: outside from
    about 8e5 beam radii, inside from about 1e10.  Within 8 beam radii of
    the rim it is NaN from about 6e4 beam radii, first just inside the rim
    band; that raises :class:`FloatingPointError`.
    """
    if not beam_radius_w > 0:
        raise ValueError(f"beam_radius_w must be > 0, got {beam_radius_w}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if disk_radius < 0:
        raise ValueError(f"disk_radius must be >= 0, got {disk_radius}")
    if disk_radius == 0.0:
        return 0.0
    return float(_disk_fraction(beam_radius_w, offset, disk_radius))
