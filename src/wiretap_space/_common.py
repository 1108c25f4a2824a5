"""What the config layer and the CLI need at load, in plain ``math``: the
exceptions, the photon-number check, the config sections, the secrecy point
record and the scalar closed forms of :func:`~wiretap_space.scenario_io.capacity_row`.
The modules that export these names import them from here; the secrecy kernel
raises the sections :class:`DetectorModel` and :class:`OperatingPoint` for its bad inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class BracketError(ValueError):
    """The supplied bracket does not straddle a sign change."""


class ConfigError(ValueError):
    """Invalid user input; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid configuration: " + "; ".join(violations))
        self.violations = list(violations)


def _check_photons(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the mean photon number ``value`` is finite and
    ``>= 0``; NaN gets the ``>= 0`` message."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if not value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def _distinguishability_angle(n: float) -> float:
    """:func:`~wiretap_space.detection.distinguishability_angle` at ``n`` photons, unchecked."""
    return math.atan2(math.sqrt(-math.expm1(-n)), math.exp(-0.5 * n))


def _helstrom_error(n: float, q: float) -> float:
    """:func:`~wiretap_space.detection.helstrom_error` at ``n`` photons and prior ``q``, unchecked."""
    spread = 4.0 * q * (1.0 - q)
    root = math.sqrt((1.0 - 2.0 * q) ** 2 + spread * -math.expm1(-n))
    return 0.5 * (spread * math.exp(-n)) / (1.0 + root)


@dataclass(frozen=True)
class DetectorModel:
    """Receiver imperfections: dark counts, internal optics, stray light."""

    p_dark: float = 1e-7
    eta_optical: float = 1.0
    stray_mean: float = 1e-4

    def __post_init__(self):
        problems = []
        if not 0.0 <= self.p_dark <= 1.0:
            problems.append(f"p_dark must be in [0, 1], got {self.p_dark}")
        if not 0.0 < self.eta_optical <= 1.0:
            problems.append(f"eta_optical must be in (0, 1], got {self.eta_optical}")
        if not self.stray_mean >= 0:
            problems.append(f"stray_mean must be >= 0, got {self.stray_mean}")
        elif not self.stray_mean < math.inf:
            problems.append(f"stray_mean must be finite, got {self.stray_mean}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class OperatingPoint:
    """Default evaluation point: photon number, degradation and prior.

    ``gamma=None`` derives the degradation from the geometry;
    ``q=None`` optimises the input probability.
    """

    received_mean_photons: float = 4.0
    gamma: float | None = None
    q: float | None = None

    def __post_init__(self):
        problems = []
        try:
            _check_photons("received_mean_photons", self.received_mean_photons)
        except ValueError as exc:
            problems.append(str(exc))
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            problems.append(f"gamma must be in [0, 1), got {self.gamma}")
        if self.q is not None and not 0.0 < self.q < 1.0:
            problems.append(f"q must be in (0, 1), got {self.q}")
        if problems:
            raise ValueError("; ".join(problems))


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


# Smallest interceptor orbit offset, metres.  Closer orbits differ from the
# transmitter's only by rounding in the difference of the two angular rates:
# at 1e-9 m it reads 2.17e-19 rad/s against 2.33e-19 exact, and the pass
# integral 4722 against 4464 at 1e-6 m; at 1e-11 m the rates are equal.
MIN_EVE_ORBIT_OFFSET = 1e-3


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


@dataclass(frozen=True)
class OrbitScenario:
    """Two-satellite plus ground-station configuration.

    ``eve_orbit_offset`` is the radial separation of the interceptor's orbit
    below the transmitter's (the orbital exclusion radius), at least
    :data:`MIN_EVE_ORBIT_OFFSET`.  The time grid
    of the pass integral follows from these fields (see
    :func:`~wiretap_space.orbitsim.integrated_gamma`); it has no settings of its own.

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
