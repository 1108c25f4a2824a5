"""Shared numerical primitives.

Binary Shannon entropy, bounded 1-D maximisation (grid scan plus
golden-section refinement), bracketed bisection, and the power fraction of a
Gaussian beam falling on an offset circular disk, in closed form as a
noncentral chi-square CDF.  Everything here is a pure function of its inputs
and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chndtr

__all__ = [
    "Interval",
    "BracketError",
    "binary_entropy",
    "maximize_1d",
    "find_root",
    "gaussian_disk_fraction",
]

# Inputs within this distance of a closed domain boundary are clamped rather
# than rejected, so downstream float rounding does not trip domain checks.
_CLAMP_EPS = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Points of the coarse scan that seeds :func:`maximize_1d`.
GRID_POINTS = 64


class BracketError(ValueError):
    """The supplied bracket does not straddle a sign change."""


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

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _clamped_probability(p: float, name: str = "probability") -> float:
    if p < 0.0:
        if p >= -_CLAMP_EPS:
            return 0.0
        raise ValueError(f"{name} out of [0, 1]: {p}")
    if p > 1.0:
        if p <= 1.0 + _CLAMP_EPS:
            return 1.0
        raise ValueError(f"{name} out of [0, 1]: {p}")
    return p


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with the convention 0*log2(0) = 0."""
    p = _clamped_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section search for a maximum on [lo, hi]; one f-eval per step."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def maximize_1d(f: Callable[[float], float], domain: Interval, tol: float) -> tuple[float, float]:
    """Maximise ``f`` over ``domain``; returns ``(argmax, max)``.

    A coarse scan of :data:`GRID_POINTS` points (including both endpoints)
    seeds a golden-section refinement of the best grid cell's neighbourhood.
    The grid seed makes the search robust to mild non-unimodality, e.g. flat
    clipped plateaus next to a single interior peak.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo, hi = domain.lo, domain.hi
    step = (hi - lo) / (GRID_POINTS - 1)
    best_x, best_f = lo, f(lo)
    best_i = 0
    for i in range(1, GRID_POINTS):
        x = lo + i * step if i < GRID_POINTS - 1 else hi
        fx = f(x)
        if fx > best_f:
            best_x, best_f, best_i = x, fx, i
    sub_lo = max(lo, lo + (best_i - 1) * step)
    sub_hi = min(hi, lo + (best_i + 1) * step)
    if sub_hi - sub_lo > tol:
        gx, gf = _golden_max(f, sub_lo, sub_hi, tol)
        if gf > best_f:
            best_x, best_f = gx, gf
    return best_x, best_f


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
    Marcum Q1 function).
    """
    scale = 2.0 / np.asarray(beam_radius_w, dtype=float)
    return chndtr((scale * disk_radius) ** 2, 2.0, (scale * offset) ** 2)


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
