"""Shared numerical primitives.

Binary Shannon entropy and the mutual information of binary channels from
their entropies (shared by the secrecy kernel and the one-point functions),
bounded 1-D maximisation (grid scan plus golden-section refinement) for one
function or for many in lockstep, bracketed bisection, and the power fraction
of a Gaussian beam falling on an offset circular disk, in closed form as a
noncentral chi-square CDF.
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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Points of the coarse scan that seeds :func:`maximize_1d`.
GRID_POINTS = 64
# Cells per call of the objective in the scan of :func:`maximize_lockstep`;
# it bounds the scan's arrays at SCAN_BLOCK_CELLS * GRID_POINTS elements.
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
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], domain: Interval, tol: float, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise ``cells`` independent functions over one ``domain`` at once.

    ``f(x, cell)`` returns the values of the functions numbered ``cell`` at
    the abscissae ``x`` in the broadcast shape of the two arrays, and no NaN.
    Every cell takes the steps of :func:`maximize_1d`: a scan of
    :data:`GRID_POINTS` points (including both endpoints) that keeps the
    first maximum (``np.argmax``), then a golden-section refinement of the
    ``[i-1, i+1]`` grid neighbourhood that moves left on ``f(c) >= f(d)`` and
    stops once the cell's own bracket is no wider than ``tol``; the refined
    point replaces the grid point only if its value is strictly larger.  The
    scan calls ``f(grid, block[:, np.newaxis])`` for :data:`SCAN_BLOCK_CELLS`
    cells at a time, the refinement ``f`` on 1-D arrays of the cells still
    searching.  Returns ``(argmax, max)`` arrays of length ``cells``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo, hi = domain.lo, domain.hi
    step = (hi - lo) / (GRID_POINTS - 1)
    grid = lo + np.arange(GRID_POINTS) * step
    grid[-1] = hi
    best_i = np.empty(cells, dtype=np.intp)
    best_f = np.empty(cells)
    for start in range(0, cells, SCAN_BLOCK_CELLS):
        block = np.arange(start, min(start + SCAN_BLOCK_CELLS, cells))
        values = f(grid, block[:, np.newaxis])
        best_i[block] = np.argmax(values, axis=1)
        best_f[block] = values[np.arange(block.size), best_i[block]]
    best_x = grid[best_i]

    # Golden section on each cell's grid neighbourhood, every cell in lockstep.
    low = np.maximum(lo, lo + (best_i - 1) * step)
    high = np.minimum(hi, lo + (best_i + 1) * step)
    refined = np.flatnonzero(high - low > tol)
    low, high = low[refined], high[refined]
    c = high - _INV_PHI * (high - low)
    d = low + _INV_PHI * (high - low)
    fcd = f(np.concatenate((c, d)), np.concatenate((refined, refined)))
    fc, fd = fcd[: refined.size], fcd[refined.size:]
    active = np.flatnonzero(high - low > tol)
    while active.size:
        left = fc[active] >= fd[active]
        to_left, to_right = active[left], active[~left]
        high[to_left], d[to_left], fd[to_left] = d[to_left], c[to_left], fc[to_left]
        c[to_left] = high[to_left] - _INV_PHI * (high[to_left] - low[to_left])
        low[to_right], c[to_right], fc[to_right] = c[to_right], d[to_right], fd[to_right]
        d[to_right] = low[to_right] + _INV_PHI * (high[to_right] - low[to_right])
        fx = f(np.where(left, c[active], d[active]), refined[active])
        fc[to_left], fd[to_right] = fx[left], fx[~left]
        active = active[high[active] - low[active] > tol]
    take_c = fc >= fd
    gx, gf = np.where(take_c, c, d), np.where(take_c, fc, fd)
    better = gf > best_f[refined]
    best_x[refined[better]] = gx[better]
    best_f[refined[better]] = gf[better]
    return best_x, best_f


def maximize_1d(f: Callable[[float], float], domain: Interval, tol: float) -> tuple[float, float]:
    """Maximise ``f`` over ``domain``; returns ``(argmax, max)``.

    A coarse scan of :data:`GRID_POINTS` points (including both endpoints)
    seeds a golden-section refinement of the best grid cell's neighbourhood.
    The grid seed makes the search robust to mild non-unimodality, e.g. flat
    clipped plateaus next to a single interior peak.  This is
    :func:`maximize_lockstep` on one cell, calling ``f`` once per point in
    the same order as a serial scan and search would.
    """
    def points(x: np.ndarray, cell: np.ndarray) -> np.ndarray:
        x = np.broadcast_to(x, np.broadcast(x, cell).shape)
        return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    x, fx = maximize_lockstep(points, domain, tol, cells=1)
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
