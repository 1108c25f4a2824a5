"""Configuration parsing, scenario presets, sweeps and report tables.

Configs are single JSON documents.  The schema table, ``_SCHEMA``, is read
from the six section dataclasses: each field is a JSON field, under its
attribute's name unless ``_JSON_KEYS`` names another, and its default gives
the default and type rule (the LEO reference preset).  The same table drives
validation, the resolved-config echo and :func:`with_values` (sweep cells,
CLI flags); its type rule also reads the parts of a sweep axis, whose keys are
``_AXIS_KEYS``, in :func:`parse_axis`, one reader for configs and CLI specs.  All tabular
output is deterministic: row-major grid order, fixed column sets, and
9-significant-digit formatting, so identical configs produce byte-identical
files.  Each table is ``(header, rows)`` of plain lists; each 12-column
capacity row is built by :func:`capacity_row` from a point's values, and
each exclusion row by
:func:`~wiretap_space.linkbudget.radius_vs_gamma_curve`.
The ``capacity`` table is :func:`sweep` with no axis, and only the
kernel's columns check ``dw_rate <= private_capacity``.  A sweep validates
each axis value once: no rule of the sections a capacity axis sets
(``detector``, ``geometry``, ``operating``) joins two fields, only ``orbit``'s
offset rule does.  The first invalid cell in row-major order still raises
its own message.  The module loads no numpy: :func:`sweep` (past its checks)
and :func:`emit_table1` import the secrecy kernel when they run.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import astuple, dataclass, fields, replace
from typing import IO, Any, Iterable, NamedTuple, Sequence

from ._common import ClockedLink, ConfigError, DetectorModel, OperatingPoint, OrbitScenario, PhysicalConstants
from ._common import SecrecyPoint, _distinguishability_angle, _helstrom_error
from .linkbudget import (
    DEFAULT_GAMMA_TARGET,
    LinkGeometry,
    bob_free_space,
    fraction_to_db,
    gamma_partial,
    radius_vs_gamma_curve,
)

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
    "emit_table1",
    "parse_axis",
    "capacity_row",
    "sweep",
    "exclusion_sweep",
    "format_cell",
    "write_csv",
    "rows_to_json",
]

CAPACITY_SWEEP_PARAMS = (
    "received_mean_photons",
    "gamma",
    "q",
    "stray_mean",
    "p_dark",
    "dist_bob_m",
    "exclusion_radius_m",
)
_GEOMETRY_PARAMS = ("dist_bob_m", "exclusion_radius_m")  # sweep axes that only derive gamma
EXCLUSION_SWEEP_PARAMS = ("gamma_target", "dist_bob_m")
MAX_SWEEP_CELLS = 100_000  # grid cells of one sweep, the product of its axes' points


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
        for name, bound in (("min", self.lo), ("max", self.hi)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound!r}")
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
    if not math.isfinite(number):
        violations.append(f"{name} must be finite, got {value!r}")
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
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
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
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(
            [
                f"geometry yields degradation {gamma:.4g}, outside [0, 1); "
                "no secrecy is possible at this operating point"
            ]
        )
    return gamma


_POINT_FIELDS = tuple(f.name for f in fields(SecrecyPoint))
# A point's fields, then the interceptor's error and angle and the two rates.
CAPACITY_SWEEP_OUTPUTS = (*_POINT_FIELDS, "epsilon_star", "phi_deg", "private_rate_bps", "dw_rate_bps")


def capacity_row(values: Sequence[float], clock_rate: float) -> list[float]:
    """The :data:`CAPACITY_SWEEP_OUTPUTS` columns from an evaluated point's
    values, in :class:`~wiretap_space.secrecy.SecrecyPoint` field order."""
    gamma, mu, q, *_, private_capacity, dw_rate = values
    n_eve = gamma * mu
    return [*values, _helstrom_error(n_eve, q), math.degrees(_distinguishability_angle(n_eve)),
            private_capacity * clock_rate, dw_rate * clock_rate]


def _axis_grids(axes: Sequence[SweepAxis]) -> list[list[float]]:
    """The grid of each axis, once their product is known to fit :data:`MAX_SWEEP_CELLS`."""
    cells = math.prod(axis.points for axis in axes)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError([f"sweep grid has {cells} cells; at most {MAX_SWEEP_CELLS} are allowed"])
    return [axis.grid() for axis in axes]


def _accepts(config: ScenarioConfig, param: str, value: float) -> bool:
    try:
        return with_values(config, [(param, value)]) is not None
    except ConfigError:
        return False


def sweep(
    config: ScenarioConfig, axes: Sequence[SweepAxis] | None = None
) -> tuple[list[str], list[list[float]]]:
    """Row-major grid evaluation of the secrecy quantities over 0, 1 or 2 axes.

    Returns ``(header, rows)``; the first columns repeat the axis values,
    the rest are the evaluated outputs at that cell.  ``axes=None`` takes the
    config's; with no axis the table is the ``capacity`` command's row, the
    config's one cell.  Axes that cannot reach the output raise.  Each axis
    value is validated once (no rule of ``detector``, ``geometry`` or
    ``operating``, the sections an axis sets, joins two fields), and the first
    invalid cell in row-major order, or the first whose degradation (taken
    once per geometry) is outside [0, 1), raises its own message; then one
    evaluation of the kernel's columns
    (:func:`~wiretap_space.secrecy._point_columns`, which alone checks the
    rate invariant) covers the whole grid.
    """
    axes = list(axes if axes is not None else config.sweep_axes)
    if len(axes) > 2:
        raise ConfigError([f"at most 2 sweep axes, got {len(axes)}"])
    for axis in axes:
        if axis.param not in CAPACITY_SWEEP_PARAMS:
            raise ConfigError(
                [f"unknown sweep parameter {axis.param!r}; "
                 f"choose from {', '.join(CAPACITY_SWEEP_PARAMS)}"]
            )
    params = [axis.param for axis in axes]
    if len(set(params)) < len(params):
        raise ConfigError([f"both sweep axes set {params[0]!r}; the first would have no effect"])
    geometry = [p for p in params if p in _GEOMETRY_PARAMS]
    if geometry and ("gamma" in params or config.operating.gamma is not None):
        source = "the gamma axis" if "gamma" in params else "operating.gamma"
        raise ConfigError([f"sweep axis {geometry[0]!r} has no effect: the degradation is fixed by {source}"])
    grids = _axis_grids(axes)
    valid = [[_accepts(config, param, v) for v in grid] for param, grid in zip(params, grids)]
    grid = list(itertools.product(*grids))
    invalid = (k for k, ok in enumerate(itertools.product(*valid)) if not all(ok))
    cells = len(grid) if all(map(all, valid)) else next(invalid)  # those before the first invalid one
    columns = dict(zip(params, zip(*grid)))
    fixing = [p for p in params if p in ("gamma", *_GEOMETRY_PARAMS)]  # the axes the degradation depends on
    keys = list(zip(*(columns[p] for p in fixing))) if fixing else [()] * len(grid)
    gamma_of = {key: resolved_gamma(with_values(config, zip(fixing, key)))
                for key in dict.fromkeys(keys[:cells])}  # each distinct key once, in row-major order
    if cells < len(grid):
        with_values(config, zip(params, grid[cells]))  # raises the first invalid cell's message
    gamma = [gamma_of[key] for key in keys]
    from .secrecy import _point_columns  # numpy, once every config error is reported
    operating, detector = config.operating, config.detector
    q = columns.get("q", operating.q)  # None unless q is set or swept
    points = _point_columns(
        columns.get("received_mean_photons", operating.received_mean_photons), gamma, q,
        columns.get("p_dark", detector.p_dark), detector.eta_optical,
        columns.get("stray_mean", detector.stray_mean),
    )
    clock = config.link.clock_rate
    rows = [[*values, *capacity_row(point, clock)] for values, point in zip(grid, zip(*points))]
    return [*params, *CAPACITY_SWEEP_OUTPUTS], rows


EXCLUSION_OUTPUTS = ("radius_partial_m", "radius_total_m")


def exclusion_sweep(
    config: ScenarioConfig, axis: SweepAxis | None = None, gamma_target: float | None = None
) -> tuple[list[str], list[list[float]]]:
    """Exclusion radii for both interceptor models along one axis, or with
    ``axis=None`` the single row at ``gamma_target``: the axis value, then the
    radii of :func:`~wiretap_space.linkbudget.radius_vs_gamma_curve`'s row.

    ``gamma_target=None`` is
    :data:`~wiretap_space.linkbudget.DEFAULT_GAMMA_TARGET`; a ``dist_bob_m``
    axis holds the target there, and a ``gamma_target`` axis rejects one.
    """
    target = DEFAULT_GAMMA_TARGET if gamma_target is None else gamma_target
    if axis is None:
        param, grid = "gamma_target", [target]
    elif axis.param not in EXCLUSION_SWEEP_PARAMS:
        raise ConfigError(
            [f"exclusion sweep parameter must be one of {', '.join(EXCLUSION_SWEEP_PARAMS)}, "
             f"got {axis.param!r}"]
        )
    elif axis.param == "gamma_target" and gamma_target is not None:
        raise ConfigError([f"gamma target {gamma_target:g} has no effect on a gamma_target axis"])
    else:
        param, (grid,) = axis.param, _axis_grids([axis])
    if param == "gamma_target":
        curve = radius_vs_gamma_curve(config.geometry, grid)
    else:
        geometries = (with_values(config, [("dist_bob_m", dist)]).geometry for dist in grid)
        curve = [radius_vs_gamma_curve(geometry, [target])[0] for geometry in geometries]
    rows = [[value, *radii] for value, (_, *radii) in zip(grid, curve)]
    return [param, *EXCLUSION_OUTPUTS], rows


TABLE1_HEADER = ("configuration", "distance_km", "channel_loss_db", "plob_rate_bps",
                 "exclusion_radius_m", "gamma", "private_rate_bps")


def emit_table1(configs: Sequence[ScenarioConfig] | None = None) -> tuple[list[str], list[list[Any]]]:
    """The summary table, ``(header, rows)``, one row per orbit class.

    Per row, the :data:`TABLE1_HEADER` columns: the label, the receiver's
    range in km, free-space loss in dB, the repeaterless key-rate bound at that
    loss alone (receiver-side losses excluded), the partial-model exclusion
    radius for the degradation target ``gamma``
    (:data:`~wiretap_space.linkbudget.DEFAULT_GAMMA_TARGET`), that target, and the
    photon-number-optimised private rate at the daytime stray-light default.
    Rows whose detectors are equal to the bit (the presets share one) share one
    photon search through :func:`~wiretap_space.secrecy.optimal_signal_strength`'s memo.
    """
    from .secrecy import optimal_signal_strength, plob_bound
    if configs is None:
        configs = [preset_config(name) for name in PRESET_NAMES]
    rows = []
    for config in configs:
        geometry, clock = config.geometry, config.link.clock_rate
        loss = bob_free_space(geometry)
        ((_, radius, _),) = radius_vs_gamma_curve(geometry, [DEFAULT_GAMMA_TARGET])
        _, best = optimal_signal_strength(config.detector, DEFAULT_GAMMA_TARGET)
        if loss == 1.0:  # the footprint is narrower than the aperture
            raise FloatingPointError(f"{config.label}: the repeaterless bound is infinite at bob_free_space = 1")
        rows.append([config.label, geometry.dist_bob / 1e3, fraction_to_db(loss), plob_bound(loss) * clock,
                     radius, DEFAULT_GAMMA_TARGET, best.private_capacity * clock])
    return list(TABLE1_HEADER), rows


_QUOTE_TRIGGERS = frozenset(',"\r\n')


def format_cell(value: Any) -> str:
    """Deterministic CSV field: floats at 9 significant digits (never quoted), any
    other value as its ``str``, in double quotes, with each quote doubled, when it
    holds a comma, a quote, CR or LF (RFC 4180)."""
    if isinstance(value, float):
        return f"{value:.9g}"
    text = str(value)
    if _QUOTE_TRIGGERS.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """RFC-4180-style CSV with a mandatory header row and CRLF line ends: the
    lines of ``csv.writer`` over :func:`format_cell` fields, one row at a time.
    A row of floats only is one ``%``-format of its length's template, which
    renders each float as :func:`format_cell` does.  A row of one empty field
    is written ``""``, as ``csv.writer`` does, so it does not read back as a
    blank line."""
    templates: dict[int, str] = {}
    for row in itertools.chain([header], rows):
        if all(map(float.__instancecheck__, row)):  # isinstance(v, float) for each cell v
            if len(row) not in templates:
                templates[len(row)] = ",".join(["%.9g"] * len(row)) + "\r\n"
            stream.write(templates[len(row)] % tuple(row))
        else:
            line = ",".join(map(format_cell, row))
            stream.write((line if line or len(row) != 1 else '""') + "\r\n")


def rows_to_json(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[dict[str, Any]]:
    return [dict(zip(header, row)) for row in rows]
