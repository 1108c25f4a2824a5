"""Sweeps and report tables over a scenario configuration, and their writers.

Each table is ``(header, rows)``, a list of rows, computed from a
:class:`~wiretap_space.config.ScenarioConfig`.  All tabular output is
deterministic: row-major grid order, fixed column sets, and 9-significant-digit
formatting, so identical configs produce byte-identical files.  A sweep's rows
are tuples zipped from its columns: the axis columns from the grids, the
kernel's columns with its echoes of the inputs replaced by the sweep's own
floats, and the 4 columns :func:`_derived_columns` adds (its one-point form is
:func:`capacity_row`), so that cells repeating a value share one float.  Each
exclusion row comes from :func:`~wiretap_space.linkbudget.radius_vs_gamma_curve`.
:func:`write_csv` and :func:`write_json` stream any table row by row.
The ``capacity`` table is :func:`sweep` with no axis, and only the
kernel's columns check ``dw_rate <= private_capacity``.  A sweep checks
each axis value once, by its field's rule, with no section built for it: no
rule of the sections a capacity axis sets (``detector``, ``geometry``,
``operating``) joins two fields, only ``orbit``'s offset rule does.  The
first invalid cell in row-major order still raises its own message.  The
module loads no numpy: :func:`sweep` (past its checks) and
:func:`emit_table1` import the secrecy kernel when they run.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import struct
from dataclasses import fields
from typing import IO, Any, Iterable, Sequence

from ._common import _RANGES, ConfigError, SecrecyPoint, _distinguishability_angle, _helstrom_error
from .config import _FIELD_BY_KEY, _SECTIONS, PRESET_NAMES, ScenarioConfig, SweepAxis
from .config import preset_config, resolved_gamma, with_values
from .config import config_from_dict  # unused here: bench/ reads and traces scenario_io.config_from_dict
from .linkbudget import (
    DEFAULT_GAMMA_TARGET,
    bob_free_space,
    fraction_to_db,
    radius_vs_gamma_curve,
)

__all__ = [
    "emit_table1",
    "capacity_row",
    "sweep",
    "exclusion_sweep",
    "format_cell",
    "write_csv",
    "write_json",
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


_POINT_FIELDS = tuple(f.name for f in fields(SecrecyPoint))
# A point's fields, then the interceptor's error and angle and the two rates.
CAPACITY_SWEEP_OUTPUTS = (*_POINT_FIELDS, "epsilon_star", "phi_deg", "private_rate_bps", "dw_rate_bps")


def _derived_columns(columns: Sequence[Sequence[float]], clock_rate: float) -> list[list[float]]:
    """The 4 :data:`CAPACITY_SWEEP_OUTPUTS` columns past the point's fields from the point's
    columns, in :class:`~wiretap_space.secrecy.SecrecyPoint` field order: the interceptor's
    Helstrom error and angle at her ``gamma * mu`` photons, by their scalar closed forms, and
    the two rates in bits per second.  The angle depends on the photon number alone, so it is
    taken once per distinct one, keyed on its bits (``-0.0`` and ``0.0`` give ``-0.0`` and
    ``0.0``), and the cells that share a photon number share its float; where none repeats,
    as along a ``gamma`` axis, the keys are not built."""
    gamma, mu, q, *_, private_capacity, dw_rate = columns
    n_eve = list(map(operator.mul, gamma, mu))
    if len(set(n_eve)) == len(n_eve):  # no two equal, -0.0 and 0.0 included: one angle each
        phi = list(map(math.degrees, map(_distinguishability_angle, n_eve)))
    else:
        bits = memoryview(struct.pack(f"{len(n_eve)}d", *n_eve)).cast("q").tolist()
        angle: dict[int, float] = {}
        phi = [angle[key] if key in angle else angle.setdefault(key, math.degrees(_distinguishability_angle(n)))
               for key, n in zip(bits, n_eve)]
    clock = itertools.repeat(clock_rate)
    return [list(map(_helstrom_error, n_eve, q)), phi,
            list(map(operator.mul, private_capacity, clock)), list(map(operator.mul, dw_rate, clock))]


def capacity_row(values: Sequence[float], clock_rate: float) -> list[float]:
    """The :data:`CAPACITY_SWEEP_OUTPUTS` columns from an evaluated point's
    values, in :class:`~wiretap_space.secrecy.SecrecyPoint` field order:
    :func:`_derived_columns` of one point."""
    return [*values, *(value for (value,) in _derived_columns([[v] for v in values], clock_rate))]


def _axis_grids(axes: Sequence[SweepAxis]) -> list[list[float]]:
    """The grid of each axis, once their product is known to fit :data:`MAX_SWEEP_CELLS`."""
    cells = math.prod(axis.points for axis in axes)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError([f"sweep grid has {cells} cells; at most {MAX_SWEEP_CELLS} are allowed"])
    return [axis.grid() for axis in axes]


def sweep(
    config: ScenarioConfig, axes: Sequence[SweepAxis] | None = None
) -> tuple[list[str], list[tuple[float, ...]]]:
    """Row-major grid evaluation of the secrecy quantities over 0, 1 or 2 axes.

    Returns ``(header, rows)``, the rows a list of tuples; the first columns
    repeat the axis values, the rest are the evaluated outputs at that cell.
    ``axes=None`` takes the config's; with no axis the table is the
    ``capacity`` command's row, the config's one cell.  Axes that cannot
    reach the output raise.  Each axis value is checked once, by its field's
    rule in ``_RANGES`` (no rule of ``detector``, ``geometry`` or
    ``operating``, the sections an axis sets, joins two fields), and the
    first invalid cell in row-major order, or the first whose degradation is
    outside [0, 1), raises its own message through :func:`with_values`.  Sections are built only for the degradation of each
    distinct geometry value; a ``gamma`` axis value is its own.  Then one
    evaluation of the kernel's columns
    (:func:`~wiretap_space.secrecy._point_columns`, which alone checks the
    rate invariant) covers the whole grid, and :func:`_derived_columns` adds
    the rest, column by column.  The rows hold the sweep's own floats where the
    kernel echoes an input (``gamma``, ``received_mean_photons`` and a given
    ``q``), bit for bit the echo.
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
    rules = (_SECTIONS[section]._rules[f.attr] for section, f in map(_FIELD_BY_KEY.get, params))
    valid = [list(map(_RANGES[rule], grid)) for rule, grid in zip(rules, grids)]
    columns = dict(zip(params, _axis_columns(grids)))
    size = math.prod(map(len, grids))
    invalid = (k for k, ok in enumerate(itertools.product(*valid)) if not all(ok))
    cells = size if all(map(all, valid)) else next(invalid)  # those before the first invalid one
    if "gamma" not in columns:  # else each axis value is its own degradation
        keys = list(zip(*(columns[p] for p in geometry))) if geometry else [()] * size
        gamma_of = {key: float(resolved_gamma(with_values(config, zip(geometry, key))))
                    for key in dict.fromkeys(keys[:cells])}  # each distinct key once, in row-major order
    if cells < size:
        with_values(config, ((p, column[cells]) for p, column in columns.items()))  # raises its message
    gamma = columns["gamma"] if "gamma" in columns else list(map(gamma_of.__getitem__, keys))
    from .secrecy import _point_columns  # numpy, once every config error is reported
    operating, detector = config.operating, config.detector
    mu = columns.get("received_mean_photons", operating.received_mean_photons)
    q = columns.get("q", operating.q)  # None unless q is set or swept
    points = _point_columns(mu, gamma, q, columns.get("p_dark", detector.p_dark), detector.eta_optical,
                            columns.get("stray_mean", detector.stray_mean))
    # The kernel echoes its inputs as fresh floats of the same bits; the rows take the sweep's own:
    # a column as it is (an axis's floats, or the degradation's), one value as one float per cell.
    echoed = (gamma, mu) if q is None else (gamma, mu, q)
    points[:len(echoed)] = [v if isinstance(v, list) else [float(v)] * size for v in echoed]
    derived = _derived_columns(points, config.link.clock_rate)
    return [*params, *CAPACITY_SWEEP_OUTPUTS], list(zip(*columns.values(), *points, *derived))


def _axis_columns(grids: Sequence[list[float]]) -> list[list[float]]:
    """The axis columns of the row-major grid of ``grids``, of the grids' own floats: each
    value once per cell of the later axes, the whole once per cell of the earlier ones."""
    columns = []
    for i, grid in enumerate(grids):
        inner, outer = math.prod(map(len, grids[i + 1:])), math.prod(map(len, grids[:i]))
        repeated = itertools.chain.from_iterable(map(itertools.repeat, grid, itertools.repeat(inner)))
        columns.append(list(repeated) * outer)
    return columns


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


_FLOAT = frozenset([float])


def write_json(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """``json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"``, written one row
    at a time.
    A row of finite floats only, one per header column, is one ``%``-format of the header's
    template: json prints a finite float as ``float.__repr__``, and the template keeps its rule
    for a repeated key, which holds its first position and its last value.  Any other row is
    the encoder's own text for its object, indented one level."""
    keys = dict(zip(header, range(len(header))))  # each key at its first position, to its last column
    template = "  {\n" + ",\n".join(f"    {json.dumps(key).replace('%', '%%')}: %r" for key in keys) + "\n  }"
    picks = tuple(keys.values())
    pick = tuple if len(picks) == len(header) else lambda row: tuple(map(row.__getitem__, picks))
    width = len(header) if keys else -1  # a row of no key is the encoder's "{}"
    prefix = "[\n"
    for row in rows:
        stream.write(prefix)
        prefix = ",\n"
        # A finite sum has finite terms; one that overflows sends a finite row to the encoder, as printed.
        if len(row) == width and _FLOAT.issuperset(map(type, row)) and math.isfinite(sum(row)):
            stream.write(template % pick(row))
        else:
            stream.write("  " + json.dumps(dict(zip(header, row)), indent=2).replace("\n", "\n  "))
    stream.write("[]\n" if prefix == "[\n" else "\n]\n")
