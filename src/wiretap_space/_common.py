"""What the config layer and the CLI need at load, in plain ``math``: the
exceptions, the range rules, the config sections, the secrecy point record and
the scalar closed forms of the capacity rows' derived columns, which
:func:`~wiretap_space.scenario_io.capacity_row` and the sweep's column builder
map over a point's values.
The modules that export these names import them from here.  Each range is
declared once, in :data:`_RANGES`, and read by the sections' fields (:func:`_ruled`),
the argument checks (:func:`_check_ranges`) and the secrecy kernel's masks.
"""
from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Sequence


class BracketError(ValueError):
    """The supplied bracket does not straddle a sign change."""


class ConfigError(ValueError):
    """Invalid user input; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid configuration: " + "; ".join(violations))
        self.violations = list(violations)


# Each range, by the text its message quotes, and its test, which takes a float or
# a numpy array alike (a bool or a mask); NaN fails every one, and "finite" an int
# past the largest float.  A rule is a range or two joined by " and ", and a value's
# message names the first range it breaks.
_RANGES: dict[str, Callable[[Any], Any]] = {
    "[0, 1]": lambda v: (0.0 <= v) & (v <= 1.0),
    "(0, 1]": lambda v: (0.0 < v) & (v <= 1.0),
    "[0, 1)": lambda v: (0.0 <= v) & (v < 1.0),
    "(0, 1)": lambda v: (0.0 < v) & (v < 1.0),
    ">= 0": lambda v: 0.0 <= v,
    "> 0": lambda v: 0.0 < v,
    "finite": lambda v: abs(v) <= sys.float_info.max,
}
_PHOTONS = ">= 0 and finite"  # a mean photon number's rule
_RANGES[_PHOTONS] = lambda v: _RANGES[">= 0"](v) & _RANGES["finite"](v)


def _must_be(name: str, bound: str, value: Any) -> str:
    """The text of every range message."""
    return f"{name} must be {bound}, got {value}"


def _range_problem(name: str, rule: str, value: Any) -> str | None:
    """The message of the first range of ``rule`` that ``value`` breaks, or ``None``;
    a value that no range compares (``None``) breaks the first."""
    for text in rule.split(" and "):
        try:
            if _RANGES[text](value):
                continue
        except TypeError:
            pass
        return _must_be(name, f"in {text}" if text[0] in "[(" else text, value)
    return None


def _check_ranges(*checks: tuple[str, str, Any]) -> None:
    """Raise ``ValueError`` naming each ``(name, rule, value)`` whose value breaks
    its rule, in the order given, joined by ``; ``."""
    problems = [problem for check in checks if (problem := _range_problem(*check))]
    if problems:
        raise ValueError("; ".join(problems))


def _ruled(rule: str | Callable[[Any], str | None], default: Any = MISSING) -> Any:
    """A section field with its rule: a rule of :data:`_RANGES`, or a function of
    the section that gives the field's message or ``None``."""
    return field(default=default, metadata={"rule": rule})


def _check_fields(section: Any) -> None:
    """The sections' ``__post_init__``: raise ``ValueError`` naming every field that
    breaks its rule, in field order, joined by ``; ``, as :func:`_check_ranges`
    does, so a value that no range compares breaks its first.  A field whose
    default is ``None`` takes ``None``."""
    problems = []
    for name, rule, optional in section._checks:
        value = getattr(section, name)
        if callable(rule):
            problems.append(rule(section))
        elif not (value is None and optional):
            problems.append(_range_problem(name, rule, value))
    if any(problems):
        raise ValueError("; ".join(filter(None, problems)))


def _section(cls: type) -> type:
    """``dataclass(frozen=True)`` with :func:`_check_fields` as ``__post_init__``; the fields'
    rules (:func:`_ruled`) are read here once: ``_rules`` maps names to rules in field order,
    ``_checks`` holds name, rule and whether the default is ``None``."""
    cls.__post_init__ = _check_fields
    cls = dataclass(frozen=True)(cls)
    cls._rules = {f.name: f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata}
    cls._checks = [(name, rule, getattr(cls, name, MISSING) is None) for name, rule in cls._rules.items()]
    return cls


def _check_as(section: type, **values: Any) -> None:
    """:func:`_check_ranges` of arguments by the rules of ``section``'s fields of their names."""
    _check_ranges(*((name, section._rules[name], value) for name, value in values.items()))


def _distinguishability_angle(n: float) -> float:
    """:func:`~wiretap_space.detection.distinguishability_angle` at ``n`` photons, unchecked."""
    return math.atan2(math.sqrt(-math.expm1(-n)), math.exp(-0.5 * n))


def _helstrom_error(n: float, q: float) -> float:
    """:func:`~wiretap_space.detection.helstrom_error` at ``n`` photons and prior ``q``, unchecked."""
    spread = 4.0 * q * (1.0 - q)
    root = math.sqrt((1.0 - 2.0 * q) ** 2 + spread * -math.expm1(-n))
    return 0.5 * (spread * math.exp(-n)) / (1.0 + root)


@_section
class DetectorModel:
    """Receiver imperfections: dark counts, internal optics, stray light."""

    p_dark: float = _ruled("[0, 1]", 1e-7)
    eta_optical: float = _ruled("(0, 1]", 1.0)
    stray_mean: float = _ruled(_PHOTONS, 1e-4)


@_section
class OperatingPoint:
    """Default evaluation point: photon number, degradation and prior.

    ``gamma=None`` derives the degradation from the geometry;
    ``q=None`` optimises the input probability.
    """

    received_mean_photons: float = _ruled(_PHOTONS, 4.0)
    gamma: float | None = _ruled("[0, 1)", None)
    q: float | None = _ruled("(0, 1)", None)


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


@_section
class ClockedLink:
    """Symbol clock and carrier wavelength used for rate/power conversions."""

    clock_rate: float = _ruled("> 0", 1e9)
    wavelength: float = _ruled("> 0", 850e-9)


# Smallest interceptor orbit offset, metres.  Closer orbits differ from the
# transmitter's only by rounding in the difference of the two angular rates:
# at 1e-9 m it reads 2.17e-19 rad/s against 2.33e-19 exact, and the pass
# integral 4722 against 4464 at 1e-6 m; at 1e-11 m the rates are equal.
MIN_EVE_ORBIT_OFFSET = 1e-3


@_section
class PhysicalConstants:
    """Two-body and Earth-rotation constants; overridable in configs."""

    earth_mu: float = _ruled("> 0", 3.986004418e14)
    earth_radius: float = _ruled("> 0", 6.371e6)
    earth_angular_velocity: float = _ruled(">= 0", 7.2921159e-5)


def _offset_problem(orbit: OrbitScenario) -> str | None:
    """``eve_orbit_offset``'s rule: from :data:`MIN_EVE_ORBIT_OFFSET` to below ``alice_altitude``."""
    offset = orbit.eve_orbit_offset
    try:
        if MIN_EVE_ORBIT_OFFSET <= offset < orbit.alice_altitude:
            return None
    except TypeError:  # a value no bound compares breaks the rule
        pass
    return (_must_be("eve_orbit_offset", f"in [{MIN_EVE_ORBIT_OFFSET} m, alice_altitude)", offset)
            + "; the pass geometry does not resolve closer orbits")


def _elevation_problem(orbit: OrbitScenario) -> str | None:
    """``min_elevation``'s rule, in radians and degrees: above the horizon, at most the zenith."""
    angle = orbit.min_elevation
    try:
        if 0.0 < angle <= 0.5 * math.pi:
            return None
        angle = f"{angle} rad ({math.degrees(angle):g} deg)"
    except TypeError:  # a value no bound compares breaks the rule
        pass
    return _must_be("min_elevation", "in (0, pi/2]", angle)


def _aperture_problem(orbit: OrbitScenario) -> str | None:
    """``bob_aperture_model``'s rule: one of the two collection models."""
    model = orbit.bob_aperture_model
    return None if model in ("gaussian", "footprint") else f"unknown bob_aperture_model: {model!r}"


@_section
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

    alice_altitude: float = _ruled("> 0", 600e3)
    eve_orbit_offset: float = _ruled(_offset_problem, 16e3)
    eve_telescope_diameter: float = _ruled("> 0", 2.0)
    diam_bob: float = _ruled("> 0", 1.0)
    eta_b: float = _ruled("(0, 1]", 0.01)
    divergence_full_angle: float = _ruled("> 0", 1e-5)
    min_elevation: float = _ruled(_elevation_problem, math.radians(20.0))
    bob_aperture_model: str = _ruled(_aperture_problem, "gaussian")
    legacy_beam_width: bool = False
