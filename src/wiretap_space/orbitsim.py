"""Coplanar circular-orbit pass model.

The transmitter satellite and the interceptor satellite fly circular
equatorial orbits, the ground station sits on the rotating equator, and all
three line up at ``t = 0`` (transmitter at zenith, interceptor directly
beneath it).  The module traces instantaneous collection efficiencies over
one pass, integrates them into an effective channel-degradation factor,
solves for the orbital exclusion radius achieving a target degradation, and
reports revisit/alignment periods.  The pass grid is derived from the
geometry, with at most ``4 * (CROSSING_PANELS + PASS_PANELS) + 1`` samples;
the step-halving check reads every other one.  Alignment at ``t = 0`` makes
every pass series even in time, so a pass is evaluated on its ``t >= 0``
half, at most ``2 * (CROSSING_PANELS + PASS_PANELS) + 1`` samples, and
mirrored.  The geometry is taken in the transmitter's co-rotating frame
from the tangents of half the bodies' angles from it, which numpy's
``tan`` makes exactly odd in time.  The beam radius and the station's
fraction are ``linkbudget``'s.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .linkbudget import DEFAULT_GAMMA_TARGET, _beam_radius, _check_gamma_target, _station_fraction
from .numerics import ConfigError, Interval, _REACH_RADII, _disk_fraction, find_root

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "OrbitScenario",
    "PassProfile",
    "StepSizeWarning",
    "angular_velocity",
    "pass_window",
    "integrated_gamma",
    "required_orbital_exclusion",
    "alignment_periods",
]


# Orbital-offset search range of :func:`required_orbital_exclusion`, metres,
# and its bisection tolerance, coarse as each probe integrates a whole pass.
OFFSET_BOUNDS = (1e3, 2e5)
OFFSET_TOL = 25.0
# Smallest interceptor orbit offset, metres.  Closer orbits differ from the
# transmitter's only by rounding in the difference of the two angular rates:
# at 1e-9 m it reads 2.17e-19 rad/s against 2.33e-19 exact, and the pass
# integral 4722 against 4464 at 1e-6 m; at 1e-11 m the rates are equal.
MIN_EVE_ORBIT_OFFSET = 1e-3

# Trapezoid panels of the beam crossing and of the half window, on the grid of
# every other pass sample; the pass grid halves each of them.
CROSSING_PANELS = 512
PASS_PANELS = 512


class StepSizeWarning(UserWarning):
    """The pass grid does not resolve the pass: the integral changed by more
    than 1% when the grid was refined, or the window reaches the
    interceptor's next alignment, whose crossing falls on the coarse grid."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Two-body and Earth-rotation constants; overridable in configs."""

    earth_mu: float = 3.986004418e14
    earth_radius: float = 6.371e6
    earth_angular_velocity: float = 7.2921159e-5

    def __post_init__(self):
        problems = []
        for name in ("earth_mu", "earth_radius"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.earth_angular_velocity >= 0:
            problems.append(
                f"earth_angular_velocity must be >= 0, got {self.earth_angular_velocity}"
            )
        if problems:
            raise ValueError("; ".join(problems))


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class OrbitScenario:
    """Two-satellite plus ground-station configuration.

    ``eve_orbit_offset`` is the radial separation of the interceptor's orbit
    below the transmitter's (the orbital exclusion radius), at least
    :data:`MIN_EVE_ORBIT_OFFSET`.  The time grid
    of the pass integral follows from these fields (see
    :func:`integrated_gamma`); it has no settings of its own.

    ``bob_aperture_model`` selects how the ground station's collected
    fraction is computed: ``"gaussian"`` (encircled power, default) or
    ``"footprint"`` (aperture-over-footprint area ratio).  The footprint
    approximation overstates the loss roughly twofold near culmination,
    where the beam footprint is comparable to the telescope, so the
    encircled-power form is the default for pass integrals.
    ``legacy_beam_width`` widens only the interceptor's beam radius, to
    ``theta * d`` instead of ``theta * d / 2``, for comparison runs.
    """

    alice_altitude: float = 600e3
    eve_orbit_offset: float = 16e3
    eve_telescope_diameter: float = 2.0
    diam_bob: float = 1.0
    eta_b: float = 0.01
    divergence_full_angle: float = 1e-5
    min_elevation: float = math.radians(20.0)
    bob_aperture_model: str = "gaussian"
    legacy_beam_width: bool = False

    def __post_init__(self):
        problems = []
        if not self.alice_altitude > 0:
            problems.append(f"alice_altitude must be > 0, got {self.alice_altitude}")
        if not MIN_EVE_ORBIT_OFFSET <= self.eve_orbit_offset < self.alice_altitude:
            problems.append(
                f"eve_orbit_offset must be in [{MIN_EVE_ORBIT_OFFSET} m, alice_altitude), "
                f"got {self.eve_orbit_offset}; the pass geometry does not resolve closer orbits"
            )
        for name in ("eve_telescope_diameter", "diam_bob", "divergence_full_angle"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.eta_b <= 1.0:
            problems.append(f"eta_b must be in (0, 1], got {self.eta_b}")
        if not 0.0 < self.min_elevation <= 0.5 * math.pi:
            problems.append(f"min_elevation must be in (0, pi/2], got {self.min_elevation} rad "
                            f"({math.degrees(self.min_elevation):g} deg)")
        if self.bob_aperture_model not in ("gaussian", "footprint"):
            problems.append(f"unknown bob_aperture_model: {self.bob_aperture_model!r}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class PassProfile:
    """Time series over one pass plus the integrated degradation factor."""

    times: np.ndarray
    eta_bob: np.ndarray
    eta_eve: np.ndarray
    d_bob: np.ndarray
    d_eve: np.ndarray
    beam_offset: np.ndarray
    pass_half_duration: float
    integrated_eta_bob: float
    integrated_eta_eve: float
    integrated_gamma: float
    convergence_delta: float


def angular_velocity(orbit_radius: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Circular-orbit angular rate ``sqrt(GM / a^3)``, taken as
    ``sqrt(GM / a) / a`` where ``a^3`` overflows a float."""
    if not orbit_radius > constants.earth_radius:
        raise ConfigError(
            [f"orbit_radius must exceed the Earth radius {constants.earth_radius}, got {orbit_radius}"]
        )
    try:
        cube = orbit_radius**3
    except OverflowError:
        return math.sqrt(constants.earth_mu / orbit_radius) / orbit_radius
    return math.sqrt(constants.earth_mu / cube)


def _orbits(scenario: OrbitScenario, constants: PhysicalConstants):
    """(a_alice, a_eve, w_alice, w_eve): both orbits' radii and angular rates."""
    a_alice = constants.earth_radius + scenario.alice_altitude
    a_eve = a_alice - scenario.eve_orbit_offset
    return a_alice, a_eve, angular_velocity(a_alice, constants), angular_velocity(a_eve, constants)


def pass_window(scenario: OrbitScenario, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Half-width T of the symmetric integration window ``[-T, T]``.

    T is the total time the transmitter spends above ``min_elevation``
    (culmination-centred, so twice the culmination-to-crossing time), capped
    at the horizon-to-horizon limit so the line of sight never drops below
    the geometric horizon inside the window.

    The central angle at which the elevation crosses ``el`` is exact: the
    slant range ``s = (r^2 - R^2) / (R sin el + sqrt(r^2 - R^2 cos^2 el))``
    places the satellite at ``atan2(s cos el, R + s sin el)`` from the
    station.  This equals ``acos(R cos(el) / r) - el`` but avoids its
    cancellation near zenith.  ``FloatingPointError`` where ``r^2`` overflows.
    """
    earth_radius = constants.earth_radius
    orbit_radius, _, w_alice, _ = _orbits(scenario, constants)
    rel_rate = w_alice - constants.earth_angular_velocity
    if rel_rate <= 0:
        raise ConfigError(["transmitter must move faster than the ground station rotates"])
    if scenario.min_elevation >= 0.5 * math.pi - 1e-12:
        return 0.0
    psi_horizon = math.acos(earth_radius / orbit_radius)
    cos_el, sin_el = math.cos(scenario.min_elevation), math.sin(scenario.min_elevation)
    try:
        chord = math.sqrt(orbit_radius**2 - (earth_radius * cos_el) ** 2)
    except OverflowError:
        raise FloatingPointError(f"pass window: orbit radius {orbit_radius:g} m squared overflows") from None
    slant = (orbit_radius - earth_radius) * (orbit_radius + earth_radius) / (earth_radius * sin_el + chord)
    psi_cross = math.atan2(slant * cos_el, earth_radius + slant * sin_el)
    return min(2.0 * psi_cross / rel_rate, psi_horizon / rel_rate)


def _relative_position(rate: float, radius: float, drop: float, a_alice: float, times: np.ndarray):
    """A body on a circular orbit of ``radius``, ``drop`` below the
    transmitter's orbit of ``a_alice``, seen from the transmitter in its
    co-rotating frame: ``(x, y, distance)``, its offset along the
    transmitter's radius (outwards positive) and across it, and its distance.

    ``rate`` is the body's angular rate less the transmitter's, so at ``t``
    the body is ``theta = rate t`` ahead of it about the Earth's centre.
    From ``tau = tan(theta / 2)``, ``c = 1 / (1 + tau^2)`` is
    ``cos^2(theta / 2)`` and ``s = tau^2 c`` is ``sin^2(theta / 2)``, so that
    ``x = -drop - 2 radius s``, ``y = 2 radius tau c`` and
    ``distance = 2 sqrt((drop / 2)^2 + a_alice radius s)``.  Each is a sum of
    terms of one sign with ``drop`` as given, not a difference of radii, and
    the root's argument is at most ``a_alice^2``.
    """
    tau = np.tan((0.5 * rate) * times)
    sin2 = np.square(tau)
    cos2 = np.add(sin2, 1.0)
    np.reciprocal(cos2, out=cos2)
    sin2 *= cos2
    tau *= cos2
    tau *= 2.0 * radius
    x = np.multiply(sin2, -2.0 * radius)
    x -= drop
    sin2 *= a_alice * radius
    sin2 += (0.5 * drop) ** 2
    distance = np.sqrt(sin2, out=sin2)
    distance *= 2.0
    return x, tau, distance


def _pass_geometry(scenario: OrbitScenario, constants: PhysicalConstants, times: np.ndarray):
    """Vectorised beam geometry at the given times.

    Returns (d_bob, d_eve, along_beam, beam_offset): transmitter-station and
    transmitter-interceptor distances, the interceptor's projection onto the
    transmitter-to-station beam axis, and her perpendicular distance from it.
    Both bodies are placed in the transmitter's co-rotating frame by
    :func:`_relative_position`, from the scenario's altitude and orbit
    offset: two ``tan`` and two ``sqrt`` per sample.  The projection and the
    offset are the dot and cross products of her position with the beam's
    unit vector, lengths of at most ``2 a_alice``.  Against a 50-digit
    evaluation in the Earth-centred frame (200 seeded passes of 300-1500 km,
    offsets 1 mm-200 km) the distances and the offset err by at most 5.2e-16
    relative and the projection by 4.4e-16 ``d_eve``.
    """
    a_alice, a_eve, w_alice, w_eve = _orbits(scenario, constants)
    bx, by, d_bob = _relative_position(
        constants.earth_angular_velocity - w_alice, constants.earth_radius, scenario.alice_altitude, a_alice, times
    )
    ex, ey, d_eve = _relative_position(w_eve - w_alice, a_eve, scenario.eve_orbit_offset, a_alice, times)
    bx /= d_bob
    by /= d_bob
    along = np.multiply(ex, bx)
    along += np.multiply(ey, by)
    beam_offset = np.multiply(ex, by)
    beam_offset -= np.multiply(ey, bx)
    return d_bob, d_eve, along, np.abs(beam_offset, out=beam_offset)


def _beam_reach(scenario: OrbitScenario, distance):
    """Beam radius ``w`` at ``distance`` from the transmitter, and the
    interceptor's reach there: she collects light only while her disk's
    centre is within ``D_E/2 + 8w`` of the beam axis."""
    widening = 2.0 if scenario.legacy_beam_width else 1.0
    radius = widening * _beam_radius(scenario.divergence_full_angle, distance)
    return radius, 0.5 * scenario.eve_telescope_diameter + _REACH_RADII * radius


def _efficiencies(scenario: OrbitScenario, constants: PhysicalConstants, times: np.ndarray):
    """Pass series at the given times: (d_bob, d_eve, beam_offset, eta_bob, eta_eve)."""
    d_bob, d_eve, along, beam_offset = _pass_geometry(scenario, constants, times)
    frac = _station_fraction(
        scenario.diam_bob, scenario.divergence_full_angle, d_bob, scenario.bob_aperture_model
    )
    widths, reach = _beam_reach(scenario, along)
    eta_eve = np.zeros_like(d_bob)
    # The interceptor collects only between transmitter and station, and only
    # within reach of the beam axis (beyond it her fraction is at most 6.4e-58).
    near = (along > 0.0) & (along < d_bob) & (beam_offset <= reach)
    eta_eve[near] = _disk_fraction(widths[near], beam_offset[near], 0.5 * scenario.eve_telescope_diameter)
    return d_bob, d_eve, beam_offset, scenario.eta_b * frac, eta_eve


def _crossing_half_time(scenario: OrbitScenario, constants: PhysicalConstants) -> float:
    """Time from alignment until the interceptor's disk is out of reach
    (:func:`_beam_reach`) of the beam axis, at her speed across the axis
    ``a_E omega_E - [v_A + (offset / h)(v_G - v_A)]``.  The speed is
    positive unless rounding makes it 0; the crossing is then endless.
    """
    a_alice, a_eve, w_alice, w_eve = _orbits(scenario, constants)
    v_alice = a_alice * w_alice
    v_ground = constants.earth_radius * constants.earth_angular_velocity
    v_axis = v_alice + scenario.eve_orbit_offset / scenario.alice_altitude * (v_ground - v_alice)
    speed = a_eve * w_eve - v_axis
    _, reach = _beam_reach(scenario, scenario.eve_orbit_offset)
    return reach / speed if speed > 0.0 else math.inf


def integrated_gamma(
    scenario: OrbitScenario, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> PassProfile:
    """Trace one pass and integrate the degradation factor.

    The factor is the interceptor's time-integrated collection efficiency
    over the station's, both on the symmetric window from
    :func:`pass_window`, on a grid fit to 1.25 times the interceptor's beam
    crossing (:func:`_crossing_half_time`).  The grid is mirrored about 0
    and the series are evaluated once, on its ``t >= 0`` half, then
    mirrored.  This is exact: at ``-t`` each half-angle tangent of
    :func:`_pass_geometry` changes sign bit for bit, as numpy's ``tan`` is
    odd, so each body's ``y`` coordinate changes sign and its ``x`` keeps
    its value; every distance, the projection on the beam axis and the
    offset from it, and so both efficiencies, repeat their values at ``t``.
    ``convergence_delta`` is the relative change from the integral over
    every other sample, and a :class:`StepSizeWarning` is emitted when it
    exceeds 1%.  The grid resolves only the crossing at alignment, so a
    :class:`StepSizeWarning` is also emitted when the half window ``T``
    reaches the next one, ``T >= P - t_f`` with ``P = 2 pi / |w_E - w_A|``
    the interceptor's alignment period and ``t_f`` the fine zone's
    half-width (equal rates never realign).  Raises
    :class:`FloatingPointError` where the interceptor's collected fraction
    (``numerics._disk_fraction``) or the degradation is not finite.
    """
    half = pass_window(scenario, constants)
    if half <= 0.0:
        raise ConfigError(["pass window is empty; lower min_elevation"])
    crossing = min(1.25 * _crossing_half_time(scenario, constants), half)
    _, _, w_alice, w_eve = _orbits(scenario, constants)
    realignment = 2.0 * math.pi / abs(w_eve - w_alice) if w_eve != w_alice else math.inf
    if half >= realignment - crossing:
        warnings.warn(
            f"pass half-window {half:.4g} s reaches the interceptor's next alignment, "
            f"{realignment:.4g} s after this one; the pass grid resolves only the crossing at t = 0",
            StepSizeWarning,
            stacklevel=2,
        )
    # Mirrored about 0: 2 * CROSSING_PANELS panels cover [0, crossing], panels
    # of at most half / (2 * PASS_PANELS) the rest of the half window.
    fine = np.linspace(0.0, crossing, 2 * CROSSING_PANELS + 1)
    coarse_panels = 2 * math.ceil(PASS_PANELS * (half - crossing) / half)
    positive = np.concatenate([fine, np.linspace(crossing, half, coarse_panels + 1)[1:]])
    times = np.concatenate([-positive[:0:-1], positive])
    d_bob, d_eve, beam_offset, eta_bob, eta_eve = (
        np.concatenate([series[:0:-1], series]) for series in _efficiencies(scenario, constants, positive)
    )
    int_bob = float(np.trapezoid(eta_bob, times))
    int_eve = float(np.trapezoid(eta_eve, times))
    gamma = int_eve / int_bob if int_bob > 0.0 else math.nan
    if not math.isfinite(gamma):
        raise FloatingPointError(f"integrated degradation is not finite: station integral {int_bob!r}")
    coarse = float(np.trapezoid(eta_eve[::2], times[::2])) / float(np.trapezoid(eta_bob[::2], times[::2]))
    delta = abs(gamma - coarse) / gamma if gamma > 0 else abs(gamma - coarse)
    if delta > 0.01:
        warnings.warn(
            f"integrated degradation changed by {delta:.2%} on step halving; "
            "the pass grid does not resolve this scenario",
            StepSizeWarning,
            stacklevel=2,
        )
    return PassProfile(
        times=times,
        eta_bob=eta_bob,
        eta_eve=eta_eve,
        d_bob=d_bob,
        d_eve=d_eve,
        beam_offset=beam_offset,
        pass_half_duration=half,
        integrated_eta_bob=int_bob,
        integrated_eta_eve=int_eve,
        integrated_gamma=gamma,
        convergence_delta=delta,
    )


def required_orbital_exclusion(
    scenario: OrbitScenario,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    gamma_target: float = DEFAULT_GAMMA_TARGET,
) -> float:
    """Orbital separation below the transmitter achieving ``gamma_target``.

    Bisects :func:`integrated_gamma` over offsets of :data:`OFFSET_BOUNDS`
    down to a bracket of :data:`OFFSET_TOL`.  Raises :class:`ConfigError`
    before any probe when ``alice_altitude`` is at most the bracket's upper
    end, as no interceptor orbit that far below fits.  The probes' warnings
    make one :class:`StepSizeWarning` for the solve: how many probes warned,
    and the first such probe's offset and message.
    """
    _check_gamma_target(gamma_target)
    lo, hi = OFFSET_BOUNDS
    if scenario.alice_altitude <= hi:
        raise ConfigError([f"the offset solve searches {lo / 1e3:g}-{hi / 1e3:g} km below the transmitter, "
                           f"so alice_altitude must exceed {hi:g} m, got {scenario.alice_altitude}"])
    probes: list[float] = []
    warned: list[tuple[float, Warning]] = []  # (offset, its first StepSizeWarning)

    def excess(offset: float) -> float:
        probes.append(offset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", StepSizeWarning)
            gamma = integrated_gamma(replace(scenario, eve_orbit_offset=offset), constants).integrated_gamma
        step = [w.message for w in caught if issubclass(w.category, StepSizeWarning)]
        if step:
            warned.append((offset, step[0]))
        for w in caught:  # any other warning goes on as it came
            if not issubclass(w.category, StepSizeWarning):
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return gamma - gamma_target

    offset = find_root(excess, Interval(lo, hi), tol=OFFSET_TOL)
    if warned:
        first, message = warned[0]
        warnings.warn(f"{len(warned)} of {len(probes)} offset probes do not resolve their pass; "
                      f"the first, at {first:g} m: {message}", StepSizeWarning, stacklevel=2)
    return offset


def alignment_periods(
    scenario: OrbitScenario, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> tuple[float, float]:
    """(station revisit period, interceptor alignment period) in seconds.

    The revisit period is set by the transmitter-vs-ground relative angular
    rate; the alignment period by the interceptor-vs-transmitter rate, which
    shrinks toward zero as their orbits approach (period diverges).
    """
    _, _, w_alice, w_eve = _orbits(scenario, constants)
    d_ground = w_alice - constants.earth_angular_velocity
    d_eve = w_eve - w_alice
    if d_ground == 0.0 or d_eve == 0.0:
        raise ConfigError(["degenerate configuration: equal angular rates"])
    return 2.0 * math.pi / d_ground, 2.0 * math.pi / d_eve

