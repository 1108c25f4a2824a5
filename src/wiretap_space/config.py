"""Scenario configuration: the schema, the presets, validation and sweep axes.

Configs are single JSON documents.  The schema table, ``_SCHEMA``, is read
from the six section dataclasses: each field is a JSON field, under its
attribute's name unless ``_JSON_KEYS`` names another, and its default gives
the default and type rule (the LEO reference preset).  The same table drives
validation, the resolved-config echo and :func:`with_values` (sweep cells,
CLI flags); its type rule also reads the parts of a sweep axis, whose keys are
``_AXIS_KEYS``, in :func:`parse_axis`, one reader for configs and CLI specs.
The module loads no numpy; the tables computed from a config are
:mod:`~wiretap_space.scenario_io`'s.
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields, replace
from typing import Any, Iterable, NamedTuple

from ._common import ClockedLink, ConfigError, DetectorModel, OperatingPoint, OrbitScenario, PhysicalConstants
from ._common import _RANGES, _check_ranges, _must_be
from .linkbudget import LinkGeometry, gamma_partial

__all__ = [
    "SweepAxis",
    "OperatingPoint",
    "ScenarioConfig",
    "PRESET_NAMES",
    "load_config",
    "config_from_dict",
    "preset_config",
    "config_to_dict",
    "resolved_gamma",
    "with_values",
    "parse_axis",
]

MAX_CONFIG_BYTES = 1 << 20  # bytes of a config file; real ones hold a few hundred


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: ``points`` (an int or numpy integer) values of ``param`` from finite
    ``lo`` to ``hi``, evenly spaced on a ``"linear"`` or ``"log"`` scale."""

    param: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        _check_ranges(("min", "finite", self.lo), ("max", "finite", self.hi))
        if isinstance(self.points, bool) or not hasattr(self.points, "__index__"):  # what range() takes
            raise ValueError(f"points must be a whole number, got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"sweep axis needs at least 2 points, got {self.points}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and not 0 < self.lo < self.hi:
            raise ValueError(f"log axis needs 0 < min < max, got [{self.lo}, {self.hi}]")
        if self.scale == "linear" and not self.lo < self.hi:
            raise ValueError(f"axis needs min < max, got [{self.lo}, {self.hi}]")

    def grid(self) -> list[float]:
        """``points`` floats from ``lo`` to ``hi``, both exactly."""
        n, log = self.points, self.scale == "log"
        lo, hi = (math.log10(self.lo), math.log10(self.hi)) if log else (self.lo, self.hi)
        inner = (lo + (hi - lo) * i / (n - 1) for i in range(1, n - 1))
        return [float(self.lo), *(10.0 ** t if log else t for t in inner), float(self.hi)]


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved configuration: one value for every field of every section,
    and the sweep axes it names (none by default)."""

    label: str
    detector: DetectorModel
    geometry: LinkGeometry
    link: ClockedLink
    operating: OperatingPoint
    orbit: OrbitScenario
    constants: PhysicalConstants
    sweep_axes: tuple[SweepAxis, ...] = ()


class _Field(NamedTuple):
    key: str  # JSON key
    attr: str  # dataclass attribute
    degrees: bool = False  # JSON value in degrees, attribute in radians


# The config sections in echo order.  Each section's JSON fields are its
# dataclass's fields in their order; defaults and type rules are their defaults.
_SECTIONS = {"detector": DetectorModel, "geometry": LinkGeometry, "link": ClockedLink,
             "operating": OperatingPoint, "orbit": OrbitScenario, "constants": PhysicalConstants}
# The JSON keys that differ from their attribute, alike in every section that
# holds it; a ``_deg`` key holds an angle that the attribute keeps in radians.
_JSON_KEYS = {
    "dist_bob": "dist_bob_m", "dist_eve": "dist_eve_m", "diam_bob": "diam_bob_m", "diam_eve": "diam_eve_m",
    "divergence_full_angle": "divergence_rad", "exclusion_radius": "exclusion_radius_m",
    "clock_rate": "clock_rate_hz", "wavelength": "wavelength_m",
    "alice_altitude": "alice_altitude_m", "eve_orbit_offset": "eve_orbit_offset_m",
    "eve_telescope_diameter": "eve_telescope_diameter_m", "min_elevation": "min_elevation_deg",
    "earth_radius": "earth_radius_m", "earth_angular_velocity": "earth_angular_velocity_rad_s",
}
_SCHEMA: dict[str, tuple[type, tuple[_Field, ...]]] = {
    section: (cls, tuple(_Field(key, f.name, key.endswith("_deg"))
                         for f in fields(cls) for key in [_JSON_KEYS.get(f.name, f.name)]))
    for section, cls in _SECTIONS.items()
}
# JSON key -> (section, field); a key two sections share maps to the first.
_FIELD_BY_KEY = {f.key: (section, f) for section, (_, fs) in reversed(_SCHEMA.items()) for f in fs}
# A sweep axis's JSON keys in SweepAxis field order, each with what a missing one reads as.
_AXIS_KEYS = {"param": "", "min": 0.0, "max": 0.0, "points": 0, "scale": "linear"}

# The LEO reference preset is the dataclass defaults; the others move the
# receiver and interceptor to medium and geostationary range.
_PRESET_OVERRIDES: dict[str, dict[str, Any]] = {
    "micius-leo": {},
    "micius-meo": {"geometry": {"dist_bob_m": 1e7, "dist_eve_m": 1e7, "exclusion_radius_m": 100.0}},
    "micius-geo": {"geometry": {"dist_bob_m": 3.6e7, "dist_eve_m": 3.6e7, "exclusion_radius_m": 340.0}},
}

PRESET_NAMES = tuple(_PRESET_OVERRIDES)


def _checked(value: Any, default: Any, name: str, violations: list[str]) -> Any:
    """``value`` as the type of ``default``; appends a violation on mismatch.
    An ``int`` default takes a whole number: an ``int``, or a float with no fraction as its ``int``."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            violations.append(f"{name} must be a boolean")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            violations.append(f"{name} must be a string")
        return value
    if value is None and default is None:
        return None
    whole = isinstance(default, int)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or whole and isinstance(value, float) and not value.is_integer()):
        violations.append(f"{name} must be {'a whole number' if whole else 'a number'}, got {value!r}")
        return None
    if whole:
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not _RANGES["finite"](number):
        violations.append(_must_be(name, "finite", value))  # the value as given: 10**400 keeps its digits
    return number


def parse_axis(prefix: str, param: Any, lo: Any, hi: Any, points: Any, scale: Any = "linear") -> SweepAxis:
    """One sweep axis from its parts, as a config's axis object or a CLI spec gives them: each
    part by the schema fields' type rule (:func:`_checked`, ``_AXIS_KEYS``'s defaults as the
    types), then the axis by :class:`SweepAxis`'s.  Raises one :class:`ConfigError` listing
    every violation, each as ``f"{prefix}: {violation}"``."""
    violations: list[str] = []
    parts = [_checked(value, default, key, violations)
             for value, (key, default) in zip((param, lo, hi, points, scale), _AXIS_KEYS.items())]
    if not violations:
        try:
            return SweepAxis(*parts)
        except ValueError as exc:
            violations.append(str(exc))
    raise ConfigError([f"{prefix}: {violation}" for violation in violations])


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a fully validated config from a JSON document, read once.

    Unknown keys and sections that are not objects are reported in document
    order, then each given field's type in schema order; each section is
    built from its given fields alone, so unset fields take the defaults of
    its dataclass and nowhere else.
    """
    if not isinstance(data, dict):
        raise ConfigError([f"top-level document must be an object, got {type(data).__name__}"])
    violations: list[str] = []
    for key, value in data.items():
        if key not in _SCHEMA:
            if key not in ("label", "sweep"):
                violations.append(f"unknown key {key!r}")
        elif not isinstance(value, dict):
            violations.append(f"section {key!r} must be an object")
        else:
            known = {f.key for f in _SCHEMA[key][1]}
            violations.extend(f"unknown key {key}.{sub_key!r}" for sub_key in value if sub_key not in known)
    label = data.get("label", "micius-leo")
    if not isinstance(label, str) or not label:
        violations.append("label must be a non-empty string")

    kwargs: dict[str, dict[str, Any]] = {section: {} for section in _SCHEMA}
    for section, (cls, section_fields) in _SCHEMA.items():
        obj = data.get(section)
        for f in section_fields if isinstance(obj, dict) else ():
            if f.key in obj:
                value = _checked(obj[f.key], getattr(cls, f.attr), f"{section}.{f.key}", violations)
                kwargs[section][f.attr] = math.radians(value) if f.degrees and value is not None else value

    axes: list[SweepAxis] = []
    sweep_raw = data.get("sweep", [])
    if not isinstance(sweep_raw, list):
        violations.append("sweep must be an array of axis objects")
        sweep_raw = []
    for i, axis_raw in enumerate(sweep_raw):
        if not isinstance(axis_raw, dict):
            violations.append(f"sweep[{i}] must be an object")
            continue
        for key in sorted(set(axis_raw) - _AXIS_KEYS.keys()):
            violations.append(f"unknown key sweep[{i}].{key!r}")
        parts = (axis_raw.get(key, default) for key, default in _AXIS_KEYS.items())
        try:
            axes.append(parse_axis(f"sweep[{i}]", *parts))
        except ConfigError as exc:
            violations.extend(exc.violations)
    if len(axes) > 2:
        violations.append(f"at most 2 sweep axes, got {len(axes)}")

    if violations:
        raise ConfigError(violations)

    sections = {}
    for section, (cls, _) in _SCHEMA.items():
        try:
            sections[section] = cls(**kwargs[section])
        except ValueError as exc:
            violations.append(f"{section}: {exc}")
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(label=label, sweep_axes=tuple(axes), **sections)


def preset_config(name: str) -> ScenarioConfig:
    """One of the built-in orbit-class presets."""
    if name not in _PRESET_OVERRIDES:
        raise ConfigError([f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"])
    return config_from_dict({"label": name, **_PRESET_OVERRIDES[name]})


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a JSON config file of at most :data:`MAX_CONFIG_BYTES`
    bytes; the bytes past it are never read."""
    try:
        with open(path, "rb") as fh:
            text = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    if len(text) > MAX_CONFIG_BYTES:
        raise ConfigError([f"config {path!r} is larger than {MAX_CONFIG_BYTES} bytes"])
    try:
        data = json.loads(text.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past Python's digit limit, deep nesting
        raise ConfigError([f"config {path!r} is not valid JSON: {exc}"]) from exc
    return config_from_dict(data)


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Fully resolved config as a JSON-serialisable dict (for run echoing).

    Degree fields echo as ``radians / (pi / 180)``: exact for every angle that
    entered in degrees (every config and :func:`with_values` path), at most 1 ulp
    off for one set in radians, as some ``r`` have no float ``d`` with ``math.radians(d) == r``.
    """
    out: dict[str, Any] = {"label": config.label}
    for section, (_, section_fields) in _SCHEMA.items():
        obj = getattr(config, section)
        out[section] = {}
        for f in section_fields:
            value = getattr(obj, f.attr)
            out[section][f.key] = value / (math.pi / 180) if f.degrees else value  # math.radians undone exactly
    out["sweep"] = [dict(zip(_AXIS_KEYS, astuple(axis))) for axis in config.sweep_axes]
    return out


def with_values(config: ScenarioConfig, pairs: Iterable[tuple[str, Any]]) -> ScenarioConfig:
    """``config`` with fields set by JSON key, in JSON units.  Each changed
    section is rebuilt, so its checks run; :class:`ConfigError` carries the
    message of a section that rejects its new values."""
    changes: dict[str, dict[str, Any]] = {}
    for key, value in pairs:
        section, f = _FIELD_BY_KEY[key]
        changes.setdefault(section, {})[f.attr] = math.radians(value) if f.degrees else value
    try:
        return replace(config, **{s: replace(getattr(config, s), **attrs) for s, attrs in changes.items()})
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc


def resolved_gamma(config: ScenarioConfig) -> float:
    """Operating degradation: explicit override or derived from geometry."""
    if config.operating.gamma is not None:
        return config.operating.gamma
    gamma = gamma_partial(config.geometry)
    rule = OperatingPoint._rules["gamma"]
    if not _RANGES[rule](gamma):
        raise ConfigError([f"geometry yields degradation {gamma:.4g}, outside {rule}; "
                           "no secrecy is possible at this operating point"])
    return gamma
