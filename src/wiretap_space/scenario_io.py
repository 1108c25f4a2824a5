"""Configuration parsing, scenario presets, sweeps and report tables.

Configs are single JSON documents; omitted fields fall back to the LEO
reference preset.  All tabular output is deterministic: row-major grid
order, fixed column sets, and 9-significant-digit formatting, so identical
configs produce byte-identical files.  Each 12-column capacity row is
built by :func:`capacity_row`, for sweeps and single points alike.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import IO, Any, Sequence

from .detection import BinaryCoherentEnsemble, helstrom_error, distinguishability_angle
from .linkbudget import (
    LinkGeometry,
    bob_free_space,
    exclusion_radius_partial,
    exclusion_radius_total,
    fraction_to_db,
    gamma_partial,
)
from .orbitsim import OrbitScenario, PhysicalConstants
from .receiver import DetectorModel
from .secrecy import (
    ClockedLink,
    SecrecyPoint,
    optimal_signal_strength,
    plob_bound,
    private_capacity,
    private_capacity_fixed,
)

__all__ = [
    "ConfigError",
    "SweepAxis",
    "OperatingPoint",
    "ScenarioConfig",
    "ReportRow",
    "PRESET_NAMES",
    "load_config",
    "config_from_dict",
    "preset_config",
    "config_to_dict",
    "resolved_gamma",
    "emit_table1",
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
EXCLUSION_SWEEP_PARAMS = ("gamma_target", "dist_bob_m")


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid configuration: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class SweepAxis:
    param: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"sweep axis needs at least 2 points, got {self.points}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and not 0 < self.lo < self.hi:
            raise ValueError(f"log axis needs 0 < min < max, got [{self.lo}, {self.hi}]")
        if self.scale == "linear" and not self.lo < self.hi:
            raise ValueError(f"axis needs min < max, got [{self.lo}, {self.hi}]")

    def grid(self) -> list[float]:
        n = self.points
        if self.scale == "log":
            llo, lhi = math.log10(self.lo), math.log10(self.hi)
            return [10.0 ** (llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
        return [self.lo + (self.hi - self.lo) * i / (n - 1) for i in range(n)]


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
        if self.received_mean_photons < 0:
            raise ValueError(
                f"received_mean_photons must be >= 0, got {self.received_mean_photons}"
            )
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.q is not None and not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q}")


@dataclass(frozen=True)
class ScenarioConfig:
    label: str
    detector: DetectorModel
    geometry: LinkGeometry
    link: ClockedLink
    operating: OperatingPoint
    orbit: OrbitScenario
    constants: PhysicalConstants
    sweep_axes: tuple[SweepAxis, ...] = ()


@dataclass(frozen=True)
class ReportRow:
    """One orbit-class row of the summary table."""

    configuration: str
    distance_km: float
    channel_loss_db: float
    plob_rate_bps: float
    exclusion_radius_m: float
    gamma: float
    private_rate_bps: float


# The LEO reference preset doubles as the global defaults.
_DEFAULTS: dict[str, Any] = {
    "label": "micius-leo",
    "detector": {"p_dark": 1e-7, "eta_optical": 1.0, "stray_mean": 1e-4},
    "geometry": {
        "dist_bob_m": 1.2e6,
        "dist_eve_m": 1.2e6,
        "diam_bob_m": 1.0,
        "diam_eve_m": 2.0,
        "divergence_rad": 1e-5,
        "eta_b": 0.01,
        "exclusion_radius_m": 12.5,
    },
    "link": {"clock_rate_hz": 1e9, "wavelength_m": 8.5e-7},
    "operating": {"received_mean_photons": 4.0, "gamma": None, "q": None},
    "orbit": {
        "alice_altitude_m": 6e5,
        "eve_orbit_offset_m": 1.6e4,
        "eve_telescope_diameter_m": 2.0,
        "diam_bob_m": 1.0,
        "eta_b": 0.01,
        "divergence_rad": 1e-5,
        "min_elevation_deg": 20.0,
        "time_step_s": 1.0,
        "fine_time_step_s": 2e-4,
        "fine_window_s": 5.0,
        "bob_aperture_model": "gaussian",
        "legacy_beam_width": False,
    },
    "constants": {
        "earth_mu": 3.986004418e14,
        "earth_radius_m": 6.371e6,
        "earth_angular_velocity_rad_s": 7.2921159e-5,
    },
    "sweep": [],
}

_PRESET_OVERRIDES: dict[str, dict[str, Any]] = {
    "micius-leo": {},
    "micius-meo": {
        "label": "micius-meo",
        "geometry": {"dist_bob_m": 1e7, "dist_eve_m": 1e7, "exclusion_radius_m": 100.0},
    },
    "micius-geo": {
        "label": "micius-geo",
        "geometry": {"dist_bob_m": 3.6e7, "dist_eve_m": 3.6e7, "exclusion_radius_m": 340.0},
    },
}

PRESET_NAMES = tuple(_PRESET_OVERRIDES)

_SECTIONS = ("detector", "geometry", "link", "operating", "orbit", "constants")


def _merge(base: dict[str, Any], override: dict[str, Any], violations: list[str]) -> dict[str, Any]:
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in override.items():
        if key not in merged:
            violations.append(f"unknown key {key!r}")
            continue
        if key in _SECTIONS:
            if not isinstance(value, dict):
                violations.append(f"section {key!r} must be an object")
                continue
            section = merged[key]
            for sub_key, sub_value in value.items():
                if sub_key not in section:
                    violations.append(f"unknown key {key}.{sub_key!r}")
                else:
                    section[sub_key] = sub_value
        else:
            merged[key] = value
    return merged


def _number(raw: dict[str, Any], section: str, key: str, violations: list[str],
            allow_none: bool = False) -> Any:
    value = raw[key]
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{section}.{key} must be a number, got {value!r}")
        return None
    return float(value)


def config_from_dict(data: dict[str, Any], label: str | None = None) -> ScenarioConfig:
    """Build a fully validated config; unset fields take preset defaults."""
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([f"top-level document must be an object, got {type(data).__name__}"])
    raw = _merge(_DEFAULTS, data, violations)
    if label is not None:
        raw["label"] = label
    if not isinstance(raw["label"], str) or not raw["label"]:
        violations.append("label must be a non-empty string")

    det_raw = raw["detector"]
    geo_raw = raw["geometry"]
    link_raw = raw["link"]
    op_raw = raw["operating"]
    orbit_raw = raw["orbit"]
    const_raw = raw["constants"]

    for section, keys in (
        ("detector", ("p_dark", "eta_optical", "stray_mean")),
        ("geometry", ("dist_bob_m", "dist_eve_m", "diam_bob_m", "diam_eve_m",
                      "divergence_rad", "eta_b", "exclusion_radius_m")),
        ("link", ("clock_rate_hz", "wavelength_m")),
        ("constants", ("earth_mu", "earth_radius_m", "earth_angular_velocity_rad_s")),
    ):
        section_raw = raw[section]
        for key in keys:
            value = _number(section_raw, section, key, violations)
            if value is not None:
                section_raw[key] = value

    for key in ("received_mean_photons", "gamma", "q"):
        op_raw[key] = _number(op_raw, "operating", key, violations, allow_none=(key != "received_mean_photons"))

    for key in ("alice_altitude_m", "eve_orbit_offset_m", "eve_telescope_diameter_m",
                "diam_bob_m", "eta_b", "divergence_rad", "min_elevation_deg",
                "time_step_s", "fine_time_step_s", "fine_window_s"):
        value = _number(orbit_raw, "orbit", key, violations)
        if value is not None:
            orbit_raw[key] = value
    if not isinstance(orbit_raw["bob_aperture_model"], str):
        violations.append("orbit.bob_aperture_model must be a string")
    if not isinstance(orbit_raw["legacy_beam_width"], bool):
        violations.append("orbit.legacy_beam_width must be a boolean")

    axes: list[SweepAxis] = []
    sweep_raw = raw["sweep"]
    if not isinstance(sweep_raw, list):
        violations.append("sweep must be an array of axis objects")
        sweep_raw = []
    for i, axis_raw in enumerate(sweep_raw):
        if not isinstance(axis_raw, dict):
            violations.append(f"sweep[{i}] must be an object")
            continue
        unknown = set(axis_raw) - {"param", "min", "max", "points", "scale"}
        for key in sorted(unknown):
            violations.append(f"unknown key sweep[{i}].{key!r}")
        try:
            axes.append(
                SweepAxis(
                    param=axis_raw.get("param", ""),
                    lo=float(axis_raw.get("min", 0.0)),
                    hi=float(axis_raw.get("max", 0.0)),
                    points=int(axis_raw.get("points", 0)),
                    scale=axis_raw.get("scale", "linear"),
                )
            )
        except (TypeError, ValueError) as exc:
            violations.append(f"sweep[{i}]: {exc}")
    if len(axes) > 2:
        violations.append(f"at most 2 sweep axes supported, got {len(axes)}")

    if violations:
        raise ConfigError(violations)

    try:
        detector = DetectorModel(
            p_dark=det_raw["p_dark"],
            eta_optical=det_raw["eta_optical"],
            stray_mean=det_raw["stray_mean"],
        )
    except ValueError as exc:
        violations.append(f"detector: {exc}")
    try:
        geometry = LinkGeometry(
            dist_bob=geo_raw["dist_bob_m"],
            dist_eve=geo_raw["dist_eve_m"],
            diam_bob=geo_raw["diam_bob_m"],
            diam_eve=geo_raw["diam_eve_m"],
            divergence_full_angle=geo_raw["divergence_rad"],
            eta_b=geo_raw["eta_b"],
            exclusion_radius=geo_raw["exclusion_radius_m"],
        )
    except ValueError as exc:
        violations.append(f"geometry: {exc}")
    try:
        link = ClockedLink(clock_rate=link_raw["clock_rate_hz"], wavelength=link_raw["wavelength_m"])
    except ValueError as exc:
        violations.append(f"link: {exc}")
    try:
        operating = OperatingPoint(
            received_mean_photons=op_raw["received_mean_photons"],
            gamma=op_raw["gamma"],
            q=op_raw["q"],
        )
    except ValueError as exc:
        violations.append(f"operating: {exc}")
    try:
        orbit = OrbitScenario(
            alice_altitude=orbit_raw["alice_altitude_m"],
            eve_orbit_offset=orbit_raw["eve_orbit_offset_m"],
            eve_telescope_diameter=orbit_raw["eve_telescope_diameter_m"],
            diam_bob=orbit_raw["diam_bob_m"],
            eta_b=orbit_raw["eta_b"],
            divergence_full_angle=orbit_raw["divergence_rad"],
            min_elevation=math.radians(orbit_raw["min_elevation_deg"]),
            time_step=orbit_raw["time_step_s"],
            fine_time_step=orbit_raw["fine_time_step_s"],
            fine_window=orbit_raw["fine_window_s"],
            bob_aperture_model=orbit_raw["bob_aperture_model"],
            legacy_beam_width=orbit_raw["legacy_beam_width"],
        )
    except ValueError as exc:
        violations.append(f"orbit: {exc}")
    try:
        constants = PhysicalConstants(
            earth_mu=const_raw["earth_mu"],
            earth_radius=const_raw["earth_radius_m"],
            earth_angular_velocity=const_raw["earth_angular_velocity_rad_s"],
        )
    except ValueError as exc:
        violations.append(f"constants: {exc}")

    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(
        label=raw["label"],
        detector=detector,
        geometry=geometry,
        link=link,
        operating=operating,
        orbit=orbit,
        constants=constants,
        sweep_axes=tuple(axes),
    )


def preset_config(name: str) -> ScenarioConfig:
    """One of the built-in orbit-class presets."""
    if name not in _PRESET_OVERRIDES:
        raise ConfigError([f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"])
    return config_from_dict(_PRESET_OVERRIDES[name])


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
    return config_from_dict(data)


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Fully resolved config as a JSON-serialisable dict (for run echoing)."""
    return {
        "label": config.label,
        "detector": {
            "p_dark": config.detector.p_dark,
            "eta_optical": config.detector.eta_optical,
            "stray_mean": config.detector.stray_mean,
        },
        "geometry": {
            "dist_bob_m": config.geometry.dist_bob,
            "dist_eve_m": config.geometry.dist_eve,
            "diam_bob_m": config.geometry.diam_bob,
            "diam_eve_m": config.geometry.diam_eve,
            "divergence_rad": config.geometry.divergence_full_angle,
            "eta_b": config.geometry.eta_b,
            "exclusion_radius_m": config.geometry.exclusion_radius,
        },
        "link": {
            "clock_rate_hz": config.link.clock_rate,
            "wavelength_m": config.link.wavelength,
        },
        "operating": {
            "received_mean_photons": config.operating.received_mean_photons,
            "gamma": config.operating.gamma,
            "q": config.operating.q,
        },
        "orbit": {
            "alice_altitude_m": config.orbit.alice_altitude,
            "eve_orbit_offset_m": config.orbit.eve_orbit_offset,
            "eve_telescope_diameter_m": config.orbit.eve_telescope_diameter,
            "diam_bob_m": config.orbit.diam_bob,
            "eta_b": config.orbit.eta_b,
            "divergence_rad": config.orbit.divergence_full_angle,
            "min_elevation_deg": math.degrees(config.orbit.min_elevation),
            "time_step_s": config.orbit.time_step,
            "fine_time_step_s": config.orbit.fine_time_step,
            "fine_window_s": config.orbit.fine_window,
            "bob_aperture_model": config.orbit.bob_aperture_model,
            "legacy_beam_width": config.orbit.legacy_beam_width,
        },
        "constants": {
            "earth_mu": config.constants.earth_mu,
            "earth_radius_m": config.constants.earth_radius,
            "earth_angular_velocity_rad_s": config.constants.earth_angular_velocity,
        },
        "sweep": [
            {"param": a.param, "min": a.lo, "max": a.hi, "points": a.points, "scale": a.scale}
            for a in config.sweep_axes
        ],
    }


def resolved_gamma(config: ScenarioConfig) -> float:
    """Operating degradation: explicit override or derived from geometry."""
    if config.operating.gamma is not None:
        return config.operating.gamma
    gamma = gamma_partial(config.geometry)
    if not 0.0 < gamma < 1.0:
        raise ConfigError(
            [
                f"geometry yields degradation {gamma:.4g}, outside (0, 1); "
                "no secrecy is possible at this operating point"
            ]
        )
    return gamma


CAPACITY_SWEEP_OUTPUTS = (
    "gamma",
    "received_mean_photons",
    "q",
    "info_bob",
    "info_eve_helstrom",
    "holevo_eve",
    "private_capacity",
    "dw_rate",
    "epsilon_star",
    "phi_deg",
    "private_rate_bps",
    "dw_rate_bps",
)


def capacity_row(point: SecrecyPoint, clock_rate: float) -> list[float]:
    """The :data:`CAPACITY_SWEEP_OUTPUTS` columns for one evaluated point."""
    eve = BinaryCoherentEnsemble(
        mean_photons=point.gamma * point.received_mean_photons, prior_q=point.q
    )
    return [
        point.gamma,
        point.received_mean_photons,
        point.q,
        point.info_bob,
        point.info_eve_helstrom,
        point.holevo_eve,
        point.private_capacity,
        point.dw_rate,
        helstrom_error(eve),
        math.degrees(distinguishability_angle(eve.mean_photons)),
        point.private_capacity * clock_rate,
        point.dw_rate * clock_rate,
    ]


def _apply_cell(config: ScenarioConfig, assignments: dict[str, float]) -> ScenarioConfig:
    detector, geometry, operating = config.detector, config.geometry, config.operating
    for param, value in assignments.items():
        if param == "received_mean_photons":
            operating = replace(operating, received_mean_photons=value)
        elif param == "gamma":
            operating = replace(operating, gamma=value)
        elif param == "q":
            operating = replace(operating, q=value)
        elif param == "stray_mean":
            detector = replace(detector, stray_mean=value)
        elif param == "p_dark":
            detector = replace(detector, p_dark=value)
        elif param == "dist_bob_m":
            geometry = replace(geometry, dist_bob=value)
        elif param == "exclusion_radius_m":
            geometry = replace(geometry, exclusion_radius=value)
        else:
            raise ConfigError([f"unknown sweep parameter {param!r}"])
    return replace(config, detector=detector, geometry=geometry, operating=operating)


def _evaluate_cell(config: ScenarioConfig) -> SecrecyPoint:
    gamma = resolved_gamma(config)
    mu = config.operating.received_mean_photons
    if config.operating.q is None:
        return private_capacity(config.detector, mu, gamma)
    return private_capacity_fixed(config.detector, mu, gamma, config.operating.q)


def _grid_cells(axes: Sequence[SweepAxis]) -> list[dict[str, float]]:
    if len(axes) == 1:
        return [{axes[0].param: v} for v in axes[0].grid()]
    outer, inner = axes
    return [{outer.param: u, inner.param: v} for u in outer.grid() for v in inner.grid()]


def sweep(
    config: ScenarioConfig, axes: Sequence[SweepAxis] | None = None
) -> tuple[list[str], list[list[float]]]:
    """Row-major grid evaluation of the secrecy quantities.

    Returns ``(header, rows)``; the first columns repeat the axis values,
    the rest are the evaluated outputs at that cell.
    """
    axes = list(axes if axes is not None else config.sweep_axes)
    if not 1 <= len(axes) <= 2:
        raise ConfigError([f"sweep needs 1 or 2 axes, got {len(axes)}"])
    for axis in axes:
        if axis.param not in CAPACITY_SWEEP_PARAMS:
            raise ConfigError(
                [f"unknown sweep parameter {axis.param!r}; "
                 f"choose from {', '.join(CAPACITY_SWEEP_PARAMS)}"]
            )
    header = [axis.param for axis in axes] + list(CAPACITY_SWEEP_OUTPUTS)
    clock = config.link.clock_rate
    rows = []
    for assignments in _grid_cells(axes):
        point = _evaluate_cell(_apply_cell(config, assignments))
        rows.append([assignments[axis.param] for axis in axes] + capacity_row(point, clock))
    return header, rows


def exclusion_sweep(
    config: ScenarioConfig, axis: SweepAxis
) -> tuple[list[str], list[list[float]]]:
    """Exclusion radii for both interceptor models along one axis."""
    if axis.param not in EXCLUSION_SWEEP_PARAMS:
        raise ConfigError(
            [f"exclusion sweep parameter must be one of {', '.join(EXCLUSION_SWEEP_PARAMS)}, "
             f"got {axis.param!r}"]
        )
    geometry = config.geometry
    header = [axis.param, "radius_partial_m", "radius_total_m"]
    rows = []
    for value in axis.grid():
        gamma_target = value if axis.param == "gamma_target" else 0.1
        dist = value if axis.param == "dist_bob_m" else geometry.dist_bob
        rows.append(
            [
                value,
                exclusion_radius_partial(
                    gamma_target,
                    dist,
                    geometry.eta_b,
                    geometry.diam_eve / geometry.diam_bob,
                    geometry.divergence_full_angle,
                ),
                exclusion_radius_total(
                    gamma_target, dist, geometry.diam_bob, geometry.divergence_full_angle
                ),
            ]
        )
    return header, rows


TABLE1_HEADER = (
    "configuration",
    "distance_km",
    "channel_loss_db",
    "plob_rate_bps",
    "exclusion_radius_m",
    "gamma",
    "private_rate_bps",
)


def emit_table1(configs: Sequence[ScenarioConfig] | None = None) -> list[ReportRow]:
    """Summary rows per orbit class.

    Per row: free-space loss in dB, the repeaterless key-rate bound at that
    loss alone (receiver-side losses excluded), the partial-model exclusion
    radius for a 0.1 degradation target, and the photon-number-optimised
    private rate at the daytime stray-light default.
    """
    if configs is None:
        configs = [preset_config(name) for name in PRESET_NAMES]
    rows = []
    for config in configs:
        geometry = config.geometry
        loss = bob_free_space(geometry)
        gamma_target = 0.1
        radius = exclusion_radius_partial(
            gamma_target,
            geometry.dist_bob,
            geometry.eta_b,
            geometry.diam_eve / geometry.diam_bob,
            geometry.divergence_full_angle,
        )
        _, best = optimal_signal_strength(config.detector, gamma_target)
        rows.append(
            ReportRow(
                configuration=config.label,
                distance_km=geometry.dist_bob / 1e3,
                channel_loss_db=fraction_to_db(loss),
                plob_rate_bps=plob_bound(loss) * config.link.clock_rate,
                exclusion_radius_m=radius,
                gamma=gamma_target,
                private_rate_bps=best.private_capacity * config.link.clock_rate,
            )
        )
    return rows


def format_cell(value: Any) -> str:
    """Deterministic text form: floats at 9 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(stream: IO[str], header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """RFC-4180-style CSV with a mandatory header row."""
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])


def rows_to_json(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[dict[str, Any]]:
    return [dict(zip(header, row)) for row in rows]
