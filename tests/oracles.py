"""Independent reference implementations used only by the tests.

Nothing here shares code with the library paths it checks: the disk
fraction is estimated by Monte Carlo and by an mpmath radial Bessel integral
instead of the noncentral chi-square CDF, maxima by dense grid enumeration
instead of golden section, roots by a plain bisection loop, the Helstrom
error, its conditional errors, the distinguishability angle and the
encircled-power fraction by their direct formulas at raised precision
instead of the cancellation-free forms,
the pass window and the total-collection exclusion radius by 50-digit
bisection of the equations the library inverts in closed form, the pass
geometry from 50-digit positions in the Earth-centred frame instead of
half-angle tangents in the transmitter's, and orbital periods by step-wise
propagation instead of rate differences.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 50


def entropy_bits(p) -> float:
    """Arbitrary-precision binary entropy in bits."""
    p = mpmath.mpf(p)
    if p == 0 or p == 1:
        return 0.0
    one = mpmath.mpf(1)
    return float(-(p * mpmath.log(p, 2) + (one - p) * mpmath.log(one - p, 2)))


def mc_disk_fraction(
    w: float, offset: float, disk_radius: float, n_samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the beam power fraction on an offset disk.

    Samples points uniformly in the disk by rejection from its bounding
    square, averages the beam intensity over the square (zero outside the
    disk) and scales by the square area.  Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 4_000_000
    while done < n_samples:
        m = min(batch, n_samples - done)
        x = rng.uniform(offset - disk_radius, offset + disk_radius, m)
        y = rng.uniform(-disk_radius, disk_radius, m)
        inside = (x - offset) ** 2 + y**2 <= disk_radius**2
        density = np.where(
            inside, np.exp(-2.0 * (x * x + y * y) / (w * w)) * 2.0 / (math.pi * w * w), 0.0
        )
        total += float(density.sum())
        total_sq += float((density * density).sum())
        done += m
    area = (2.0 * disk_radius) ** 2
    mean = total / done
    variance = max(total_sq / done - mean * mean, 0.0)
    return mean * area, math.sqrt(variance / done) * area


def mp_disk_fraction(w: float, offset: float, disk_radius: float) -> float:
    """Beam power fraction on an offset disk by 20-digit radial integration.

    In polar coordinates about the disk centre the angular integral of the
    Gaussian is a modified Bessel function, leaving
    ``int_0^R (4 r / w^2) exp(-2 (r^2 + offset^2) / w^2) I0(4 r offset / w^2) dr``.
    The mass sits near ``r = offset`` (width ``w / 2``) when the beam axis
    crosses the disk, and otherwise against the rim, decaying inward with
    the e-fold length ``w^2 / (4 (offset - R))``.  The range is split at
    doubling distances from there, so every piece sees a smooth integrand.
    """
    with mpmath.workdps(20):
        return float(_radial_disk_integral(mpmath.mpf(w), mpmath.mpf(offset), mpmath.mpf(disk_radius)))


def _radial_disk_integral(w, d, radius):
    scale = 4 / (w * w)
    sigma = w / 2
    step = sigma if d <= radius else min(sigma, sigma * sigma / (d - radius))
    centre = min(d, radius)
    # mpmath.quad stops on an absolute error estimate, so the integrand is
    # normalised to order one at the mass and the factor restored afterwards.
    peak = scale * (centre - d) ** 2 / 2

    def density(r):
        # I0(x) exp(-x) stays finite for large x.
        x = scale * r * d
        return scale * r * mpmath.besseli(0, x) * mpmath.exp(-x) * mpmath.exp(peak - scale * (r - d) ** 2 / 2)

    breaks = {mpmath.mpf(0), radius}
    for j in range(12):
        for point in (centre - step * (2**j - 1), centre + step * (2**j - 1)):
            if 0 < point < radius:
                breaks.add(point)
    return mpmath.exp(-peak) * mpmath.quad(density, sorted(breaks), method="gauss-legendre")


def mc_disk_fraction_adaptive(
    w: float,
    offset: float,
    disk_radius: float,
    seed: int,
    rel_target: float = 2.5e-4,
    max_samples: int = 200_000_000,
) -> tuple[float, float]:
    """Monte-Carlo estimate refined until the standard error is small enough."""
    n = 2_000_000
    while True:
        estimate, stderr = mc_disk_fraction(w, offset, disk_radius, n, seed)
        if estimate > 0.0 and stderr / estimate <= rel_target:
            return estimate, stderr
        if n >= max_samples:
            return estimate, stderr
        n = min(n * 4, max_samples)


def mp_helstrom_error(mean_photons: float, q: float) -> float:
    """Helstrom error ``(1 - sqrt(1 - x)) / 2``, ``x = 4 q (1-q) e^-n``, with
    50 digits more than the subtraction cancels."""
    def value():
        x = 4 * mpmath.mpf(q) * (1 - mpmath.mpf(q)) * mpmath.exp(-mpmath.mpf(mean_photons))
        return x, (1 - mpmath.sqrt(1 - x)) / 2

    x, _ = value()
    with mpmath.workdps(50 + (int(-mpmath.log10(x)) if 0 < x < 1 else 0)):
        return float(value()[1])


def mp_helstrom_conditional_errors(mean_photons: float, q: float) -> tuple[float, float]:
    """``(sin^2 phi0, sin^2 phi1)`` of the Helstrom split at 60 digits, with
    ``b = asin(exp(-n/2))``, ``phi0 = atan2((1-q) sin 2b, q + (1-q) cos 2b) / 2``
    and ``phi1 = b - phi0`` by subtraction."""
    with mpmath.workdps(60):
        n, q = mpmath.mpf(mean_photons), mpmath.mpf(q)
        b = mpmath.asin(mpmath.exp(-n / 2))
        phi0 = mpmath.atan2((1 - q) * mpmath.sin(2 * b), q + (1 - q) * mpmath.cos(2 * b)) / 2
        return float(mpmath.sin(phi0) ** 2), float(mpmath.sin(b - phi0) ** 2)


def mp_gaussian_station_fraction(diam: float, divergence: float, distance: float) -> float:
    """Encircled power ``1 - exp(-D^2 / (2 w^2))``, ``w = divergence * distance / 2``,
    with 50 digits more than the subtraction cancels."""
    def value():
        w = mpmath.mpf(divergence) * mpmath.mpf(distance) / 2
        x = mpmath.mpf(diam) ** 2 / (2 * w**2)
        return x, 1 - mpmath.exp(-x)

    x, _ = value()
    with mpmath.workdps(50 + max(0, int(-mpmath.log10(x)))):
        return float(value()[1])


def mp_distinguishability_angle(mean_photons: float) -> float:
    """``acos(exp(-n/2))`` at 200 digits."""
    with mpmath.workdps(200):
        return float(mpmath.acos(mpmath.exp(-mpmath.mpf(mean_photons) / 2)))


def grid_argmax(f, lo: float, hi: float, n: int = 10_000_001) -> float:
    """Dense-grid brute-force argmax of a vectorisable function."""
    xs = np.linspace(lo, hi, n)
    return float(xs[int(np.argmax(f(xs)))])


def bisect_reference(f, lo: float, hi: float, iterations: int = 100) -> float:
    """Plain bisection loop, independent of the library implementation."""
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
            flo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_pass_half_width(
    altitude: float, min_elevation: float, earth_radius: float, earth_mu: float, earth_rate: float
) -> float:
    """Pass-window half-width by 50-digit bisection of the elevation.

    Seen from the station, a satellite at central angle ``psi`` stands at
    elevation ``atan2(r cos psi - R, r sin psi)``, falling from 90 degrees
    overhead to 0 at the horizon ``acos(R / r)``.  The crossing of
    ``min_elevation`` is bisected on that range; the window is twice the
    crossing angle, capped at the horizon, over the relative angular rate.
    """
    radius = mpmath.mpf(earth_radius)
    orbit = radius + mpmath.mpf(altitude)
    horizon = mpmath.acos(radius / orbit)

    def above(psi):
        return mpmath.atan2(orbit * mpmath.cos(psi) - radius, orbit * mpmath.sin(psi)) - min_elevation

    cross = bisect_reference(above, mpmath.mpf(0), horizon, iterations=120)
    rate = mpmath.sqrt(mpmath.mpf(earth_mu) / orbit**3) - mpmath.mpf(earth_rate)
    return float(min(2 * cross, horizon) / rate)


def mp_pass_geometry(
    earth_radius: float, altitude: float, offset: float, rates: tuple[float, float, float], times
) -> np.ndarray:
    """Pass geometry from 50-digit positions, rows (d_bob, d_eve, along, beam_offset).

    Transmitter, interceptor and station circle the Earth's centre at radii
    ``R + altitude``, ``R + altitude - offset`` and ``R``, exact here, and at
    the angular ``rates`` (transmitter, interceptor, station) from angle 0 at
    ``t = 0``.  Both distances are taken from the transmitter; ``along`` is
    the interceptor's projection on the unit vector to the station and
    ``beam_offset`` her distance from that axis.
    """
    radius = mpmath.mpf(earth_radius)
    a_alice = radius + mpmath.mpf(altitude)
    a_eve = a_alice - mpmath.mpf(offset)
    w_alice, w_eve, w_ground = (mpmath.mpf(rate) for rate in rates)
    rows = []
    for t in times:
        t = mpmath.mpf(float(t))
        ax, ay = a_alice * mpmath.cos(w_alice * t), a_alice * mpmath.sin(w_alice * t)
        bx, by = radius * mpmath.cos(w_ground * t) - ax, radius * mpmath.sin(w_ground * t) - ay
        ex, ey = a_eve * mpmath.cos(w_eve * t) - ax, a_eve * mpmath.sin(w_eve * t) - ay
        d_bob, d_eve = mpmath.hypot(bx, by), mpmath.hypot(ex, ey)
        rows.append([d_bob, d_eve, (ex * bx + ey * by) / d_bob, abs(ex * by - ey * bx) / d_bob])
    return np.array([[float(v) for v in row] for row in rows]).T


def mp_total_exclusion_radius(gamma: float, dist: float, diam_bob: float, divergence: float) -> float:
    """Total-collection exclusion radius by 50-digit bisection of its equation.

    Solves ``exp(-2 (r/s)^2) = gamma (1 - exp(-2 (D_B/s)^2))`` with
    ``s = divergence * dist`` for ``r``; the left side falls from 1 at
    ``r = 0``, and the upper end doubles until it lies past the root.
    """
    scale = mpmath.mpf(divergence) * mpmath.mpf(dist)
    rhs = mpmath.mpf(gamma) * (1 - mpmath.exp(-2 * (mpmath.mpf(diam_bob) / scale) ** 2))

    def excess(r):
        return mpmath.exp(-2 * (r / scale) ** 2) - rhs

    upper = scale
    while excess(upper) > 0:
        upper *= 2
    return float(bisect_reference(excess, mpmath.mpf(0), upper, iterations=200))


def propagated_lap_period(
    omega_fast: float, omega_slow: float, duration: float, step: float
) -> float:
    """Mean time between laps from step-wise propagation of both angles.

    Both bodies advance on a fixed grid; a lap event is a wrap of the
    relative angle past a multiple of 2*pi.  Returns the mean spacing of
    detected events (at least two events must occur within ``duration``).
    """
    times = np.arange(0.0, duration, step)
    relative = (omega_fast - omega_slow) * times
    laps = np.floor(relative / (2.0 * math.pi))
    events = times[1:][np.diff(laps) > 0]
    if events.size < 2:
        raise ValueError("fewer than two lap events; extend the propagation")
    return float(np.mean(np.diff(events)))
