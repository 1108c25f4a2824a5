"""Command-line interface.

Subcommands: ``capacity``, ``sweep``, ``linkbudget``, ``exclusion``,
``orbit``, ``table1``.  Value flags such as ``--q`` override config fields,
and every run echoes the resolved configuration to stderr, so results are
reproducible from the log alone.  :func:`main` loads the config, echoes it,
computes the command's table (each ``_run_*`` returns one) and writes it
(only :func:`_write` writes).  Exit codes: 0 on success, 2 for a
``ConfigError`` (an invalid config, flag or axis, or an unwritable ``--out``
path), 3 for a numerical failure (an offset bracket with no sign change, a
value no float can hold) or an internal error (any other ``ValueError``).
A reader that closes stdout early (``| head``) ends the run with exit 0.
The process prints each warning as one line, ``warning: <Category>: <message>``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from typing import Sequence

from .linkbudget import DEFAULT_GAMMA_TARGET, bob_free_space, eve_free_space, fraction_to_db, gamma_partial
from .numerics import BracketError, ConfigError
from .orbitsim import alignment_periods, integrated_gamma, required_orbital_exclusion
from .scenario_io import (
    ScenarioConfig,
    SweepAxis,
    config_to_dict,
    emit_table1,
    exclusion_sweep,
    load_config,
    parse_axis,
    preset_config,
    PRESET_NAMES,
    resolved_gamma,
    rows_to_json,
    sweep,
    with_values,
    write_csv,
)
from .secrecy import optimal_signal_strength

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The config key each value flag overrides.
_FLAG_KEYS = {"photons": "received_mean_photons", "gamma": "gamma", "q": "q",
              "offset": "eve_orbit_offset_m"}


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a finite number, as in configs."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        metavar="PATH",
        help="JSON config file or preset name (%s); defaults to micius-leo"
        % ", ".join(PRESET_NAMES),
    )
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="wiretap-space",
        description="Secrecy rates, link budgets and orbital-pass analysis "
        "for OOK coherent-state satellite downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", parents=[common], help="evaluate one operating point")
    cap.add_argument("--photons", type=_finite_float, help="received mean photon number")
    cap.add_argument("--gamma", type=_finite_float, help="channel degradation override")
    cap.add_argument(
        "--q", type=_finite_float, help="fix the input probability instead of optimising"
    )
    cap.add_argument(
        "--optimize-photons",
        action="store_true",
        help="search the received photon number for the best capacity",
    )

    sw = sub.add_parser("sweep", parents=[common], help="grid sweep to CSV/JSON")
    sw.add_argument(
        "--axis",
        action="append",
        metavar="PARAM:MIN:MAX:POINTS[:SCALE]",
        help="sweep axis (repeat for a 2-D grid); overrides the config's axes",
    )

    sub.add_parser("linkbudget", parents=[common], help="static link budget for the geometry")

    exc = sub.add_parser("exclusion", parents=[common], help="exclusion radii, both models")
    exc.add_argument(
        "--gamma-target", type=_finite_float, help=f"degradation target (default {DEFAULT_GAMMA_TARGET})"
    )
    exc.add_argument(
        "--axis",
        metavar="PARAM:MIN:MAX:POINTS[:SCALE]",
        help="sweep gamma_target or dist_bob_m instead of a single row",
    )

    orb = sub.add_parser("orbit", parents=[common], help="simulate one orbital pass")
    orb.add_argument("--offset", type=_finite_float, help="interceptor orbit offset in metres")
    orb.add_argument(
        "--solve-gamma",
        type=_finite_float,
        metavar="GAMMA",
        help="also solve for the offset achieving this integrated degradation",
    )

    sub.add_parser("table1", parents=[common], help="orbit-class comparison table, or the --config's row")
    return parser


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(
            [f"axis spec must be PARAM:MIN:MAX:POINTS[:SCALE], got {text!r}"]
        )
    try:
        return parse_axis(*parts)
    except ValueError as exc:
        raise ConfigError([f"axis spec {text!r}: {exc}"]) from exc


def _load(args: argparse.Namespace) -> ScenarioConfig:
    name = PRESET_NAMES[0] if args.config is None else args.config
    config = preset_config(name) if name in PRESET_NAMES else load_config(name)
    flags = [(key, getattr(args, dest, None)) for dest, key in _FLAG_KEYS.items()]
    return with_values(config, [(key, value) for key, value in flags if value is not None])


def _echo_config(config: ScenarioConfig) -> None:
    print("resolved-config: " + json.dumps(config_to_dict(config)), file=sys.stderr)


def _write(args: argparse.Namespace, header: Sequence[str], rows, summary: dict | None = None) -> None:
    """Write one command's table to ``--out``, opened only now, or stdout.

    The rows stream out as CSV or, with ``--format json``, as row objects.
    ``summary`` (the orbit pass's) is echoed to stderr and is the JSON
    document in place of the rows.
    """
    if summary is not None:
        print("pass-summary: " + json.dumps(summary), file=sys.stderr)
    try:
        stream = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ConfigError([f"cannot write output {args.out!r}: {exc}"]) from exc
    with stream if args.out else contextlib.nullcontext():
        if args.format == "csv":
            write_csv(stream, header, rows)
        else:
            document = rows_to_json(header, rows) if summary is None else summary
            stream.write(json.dumps(document, indent=2) + "\n")


def _run_capacity(args: argparse.Namespace, config: ScenarioConfig):
    if args.optimize_photons:
        gamma = resolved_gamma(config)  # a bad degradation is reported before an ignored flag
        ignored = [flag for flag, value in (("--photons", args.photons), ("--q", args.q)) if value is not None]
        if args.q is None and config.operating.q is not None:
            ignored.append("operating.q")
        if ignored:
            raise ConfigError([f"{name} has no effect with --optimize-photons, which searches the "
                               "photon number and q" for name in ignored])
        mu, point = optimal_signal_strength(config.detector, gamma)
        config = with_values(config, [("received_mean_photons", mu), ("q", point.q)])
    return sweep(config, [])


def _run_sweep(args: argparse.Namespace, config: ScenarioConfig):
    axes = [_parse_axis(a) for a in args.axis] if args.axis else config.sweep_axes
    if not axes:
        raise ConfigError(["sweep needs 1 or 2 axes, got 0"])
    return sweep(config, axes)


def _run_linkbudget(args: argparse.Namespace, config: ScenarioConfig):
    geometry = config.geometry
    loss = bob_free_space(geometry)
    row = {
        "configuration": config.label,
        "dist_bob_m": geometry.dist_bob,
        "dist_eve_m": geometry.dist_eve,
        "bob_free_space": loss,
        "channel_loss_db": fraction_to_db(loss),
        "eve_free_space": eve_free_space(geometry),
        "gamma_partial": gamma_partial(geometry),
        "exclusion_radius_m": geometry.exclusion_radius,
    }
    return list(row), [list(row.values())]


def _run_exclusion(args: argparse.Namespace, config: ScenarioConfig):
    return exclusion_sweep(config, _parse_axis(args.axis) if args.axis else None, args.gamma_target)


def _run_orbit(args: argparse.Namespace, config: ScenarioConfig):
    profile = integrated_gamma(config.orbit, config.constants)
    revisit, intercept_period = alignment_periods(config.orbit, config.constants)
    visible = profile.times[profile.eta_eve > 1e-3]
    window = float(visible[-1] - visible[0]) if visible.size else 0.0
    summary = {
        "pass_half_duration_s": profile.pass_half_duration,
        "integrated_gamma": profile.integrated_gamma,
        "integrated_eta_bob_s": profile.integrated_eta_bob,
        "integrated_eta_eve_s": profile.integrated_eta_eve,
        "convergence_delta": profile.convergence_delta,
        "bob_revisit_s": revisit,
        "eve_intercept_period_s": intercept_period,
        "eve_intercept_window_s": window,
        "samples": int(profile.times.size),
    }
    if args.solve_gamma is not None:
        summary["required_offset_m"] = required_orbital_exclusion(
            config.orbit, config.constants, gamma_target=args.solve_gamma
        )
    columns = {"t_s": profile.times, "eta_bob": profile.eta_bob, "eta_eve": profile.eta_eve,
               "d_bob_m": profile.d_bob, "d_eve_m": profile.d_eve, "offset_m": profile.beam_offset}
    return list(columns), zip(*columns.values()), summary


def _run_table1(args: argparse.Namespace, config: ScenarioConfig):
    """The three presets' table, or with ``--config`` the loaded config's row."""
    return emit_table1(None if args.config is None else [config])


# Each runner computes its command's table, ``(header, rows)``, plus the pass
# summary for ``orbit``; only :func:`_write` writes.
_RUNNERS = {
    "capacity": _run_capacity,
    "sweep": _run_sweep,
    "linkbudget": _run_linkbudget,
    "exclusion": _run_exclusion,
    "orbit": _run_orbit,
    "table1": _run_table1,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        _echo_config(config)
        table = _RUNNERS[args.command](args, config)
        _write(args, *table)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except (BracketError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main_entry() -> None:
    # One line per warning, without the caller's path and line; in-process main() callers keep theirs.
    warnings.formatwarning = lambda message, category, *_: f"warning: {category.__name__}: {message}\n"
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``) and wants no more; the
        # rest goes to the null device, so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
