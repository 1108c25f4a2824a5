import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wiretap_space
from wiretap_space import numerics, secrecy
from oracles import mp_distinguishability_angle, mp_helstrom_error
from wiretap_space.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from wiretap_space.linkbudget import LinkBudgetWarning, radius_vs_gamma_curve
from wiretap_space.scenario_io import (
    CAPACITY_SWEEP_OUTPUTS,
    CAPACITY_SWEEP_PARAMS,
    MAX_SWEEP_CELLS,
    PRESET_NAMES,
    capacity_row,
    config_from_dict,
    config_to_dict,
    format_cell,
    preset_config,
    resolved_gamma,
)
from wiretap_space.secrecy import optimal_signal_strength, private_capacity, private_capacity_fixed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A cheap run of each command.
_COMMANDS = {
    "capacity": ["capacity"],
    "sweep": ["sweep", "--axis", "q:0.1:0.9:3"],
    "linkbudget": ["linkbudget"],
    "exclusion": ["exclusion", "--gamma-target", "0.2"],
    "orbit": ["orbit", "--offset", "20000"],
    "table1": ["table1", "--config", "micius-geo"],
}


class TestCapacityCommand:
    def test_default_config(self, capsys):
        code, out, err = run_cli(capsys, "capacity")
        assert code == EXIT_OK
        assert "resolved-config:" in err
        reader = csv.DictReader(io.StringIO(out))
        row = next(reader)
        assert float(row["gamma"]) == pytest.approx(0.0679, abs=0.001)
        assert float(row["private_capacity"]) > 0.7

    def test_explicit_point_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--gamma", "0.1", "--photons", "4", "--q", "0.5",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["private_capacity"] == pytest.approx(0.680, abs=0.01)
        assert rows[0]["epsilon_star"] == pytest.approx(0.213, abs=0.005)
        assert rows[0]["phi_deg"] == pytest.approx(35.0, abs=0.5)

    def test_strong_interceptor_epsilon_star_is_not_zero(self, capsys):
        # 1 - sqrt(1 - x) printed 0 here; the value is ~4.2e-20
        code, out, _ = run_cli(capsys, "capacity", "--photons", "100", "--gamma", "0.4")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["epsilon_star"] == format_cell(mp_helstrom_error(40.0, float(row["q"])))

    def test_optimize_photons(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--gamma", "0.1", "--optimize-photons", "--format", "json"
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["received_mean_photons"] == pytest.approx(4.0, abs=1.5)
        assert rows[0]["private_rate_bps"] == pytest.approx(680e6, abs=20e6)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("gamma", [None, 0.05])
    @pytest.mark.parametrize("mode", ["fixed q", "optimised q", "optimised photons"])
    def test_row_is_the_library_point_float_for_float(self, capsys, preset, gamma, mode):
        flags = {"fixed q": ["--photons", "2.5", "--q", "0.3"], "optimised q": ["--photons", "2.5"],
                 "optimised photons": ["--optimize-photons"]}[mode]
        gamma_flag = [] if gamma is None else ["--gamma", str(gamma)]
        code, out, _ = run_cli(capsys, "capacity", "--config", preset, "--format", "json", *flags, *gamma_flag)
        assert code == EXIT_OK
        config = preset_config(preset)
        detector, g = config.detector, resolved_gamma(config) if gamma is None else gamma
        point = {"fixed q": lambda: private_capacity_fixed(detector, 2.5, g, 0.3),
                 "optimised q": lambda: private_capacity(detector, 2.5, g),
                 "optimised photons": lambda: optimal_signal_strength(detector, g)[1]}[mode]()
        (row,) = json.loads(out)
        assert list(row) == list(CAPACITY_SWEEP_OUTPUTS)
        assert list(row.values()) == capacity_row(astuple(point), config.link.clock_rate)

    def test_bad_degradation_is_reported_before_an_ignored_flag(self, capsys, tmp_path):
        path = tmp_path / "open.json"
        path.write_text(json.dumps({"geometry": {"exclusion_radius_m": 0, "eta_b": 0.001}}))
        code, out, err = run_cli(capsys, "capacity", "--optimize-photons", "--q", "0.3", "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.splitlines()[1:] == [
            "config error: geometry yields degradation 4000, outside [0, 1); "
            "no secrecy is possible at this operating point"
        ]


class TestZeroDegradation:
    """A degradation of 0 means the interceptor collects nothing: the best case."""

    def test_far_exclusion_zone_prints_its_row(self, capsys, tmp_path):
        # The exclusion tail underflows to 0 at 1 km; this exited 2.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"geometry": {"exclusion_radius_m": 1000}}))
        code, out, _ = run_cli(capsys, "capacity", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["gamma"], row["info_eve_helstrom"], row["holevo_eve"]) == ("0", "0", "0")
        assert row["private_capacity"] == row["dw_rate"] == row["info_bob"] == "0.933648768"

    def test_photon_search_credits_the_interceptor_nothing(self, capsys, tmp_path):
        # The Helstrom angle's rounding residue printed 3.17662181e-27 here.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"geometry": {"exclusion_radius_m": 1000}}))
        code, out, _ = run_cli(capsys, "capacity", "--optimize-photons", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["gamma"], row["info_eve_helstrom"], row["holevo_eve"]) == ("0", "0", "0")
        assert row["private_capacity"] == row["info_bob"]

    @pytest.mark.parametrize(
        "argv", [["capacity", "--gamma", "0"], ["sweep", "--axis", "gamma:0:0.5:3"]]
    )
    def test_flag_and_axis_follow_the_same_rule(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["gamma"], row["private_capacity"]) == ("0", row["info_bob"])

    @pytest.mark.parametrize("gamma", ["1", "-0.1"])
    def test_outside_zero_one_exits_2(self, capsys, gamma):
        code, out, err = run_cli(capsys, "capacity", f"--gamma={gamma}")
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"config error: gamma must be in [0, 1), got {float(gamma)}" in err


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "geo.json"
        path.write_text(json.dumps({"geometry": {"dist_bob_m": 3.6e7, "dist_eve_m": 3.6e7}}))
        code, out, err = run_cli(capsys, "linkbudget", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["channel_loss_db"]) == pytest.approx(51.1, abs=0.1)
        echoed = json.loads(err.split("resolved-config: ", 1)[1].splitlines()[0])
        assert echoed["geometry"]["dist_bob_m"] == pytest.approx(3.6e7)

    def test_preset_name(self, capsys):
        code, out, _ = run_cli(capsys, "linkbudget", "--config", "micius-meo")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["dist_bob_m"]) == pytest.approx(1e7)

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"detector": {"p_dark": -1.0}}))
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "config error" in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ([{"label": "a"}], "top-level document must be an object, got list"),
            ({"sweep": [{"param": "q", "min": 0.1, "max": 0.9, "points": 3}] * 3},
             "at most 2 sweep axes supported, got 3"),
        ],
    )
    def test_malformed_document_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")

    def test_unparseable_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, _ = run_cli(capsys, "capacity", "--config", str(path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, data, field",
        [
            ("capacity", {"operating": {"received_mean_photons": float("inf")}}, "operating.received_mean_photons"),
            ("capacity", {"detector": {"stray_mean": float("nan")}}, "detector.stray_mean"),
            ("orbit", {"orbit": {"divergence_rad": float("inf")}}, "orbit.divergence_rad"),
            ("linkbudget", {"geometry": {"dist_bob_m": 10**400}}, "geometry.dist_bob_m"),
        ],
    )
    def test_non_finite_number_exits_2(self, capsys, tmp_path, command, data, field):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: {field} must be finite" in err

    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"earth_mu": -1}, "constants: earth_mu must be > 0, got -1.0"),
            ({"earth_radius_m": 0}, "constants: earth_radius must be > 0, got 0.0"),
        ],
    )
    def test_invalid_constants_exit_2(self, capsys, tmp_path, constants, message):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"constants": constants}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: {message}" in err

    @pytest.mark.parametrize(
        "command, data",
        [
            pytest.param("linkbudget", {"geometry": {"dist_bob_m": 1e300}}, id="linkbudget-data0"),
            # The degradation truly overflows: (a_E/a_B)^2 is 4e600.
            pytest.param("capacity", {"geometry": {"diam_bob_m": 1e-300}}, id="capacity-data2"),
        ],
    )
    def test_float_overflow_exits_3(self, capsys, tmp_path, command, data):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == EXIT_NUMERIC
        assert "numerical failure: " in err

    def test_underflowing_tail_prints_zero_degradation(self, capsys, tmp_path):
        # The footprint is narrower than the receiver's aperture: it is
        # collected whole, with a warning, and the exclusion-cone tail
        # underflows to 0, so the interceptor collects nothing.
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"geometry": {"divergence_rad": 1e-300}}))
        with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
            code, out, _ = run_cli(capsys, "linkbudget", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["eve_free_space"], row["gamma_partial"]) == ("0", "0")

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, "linkbudget", "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        assert out_path.read_text().startswith("configuration,")

    @pytest.mark.parametrize("key", ["time_step_s", "fine_time_step_s", "fine_window_s"])
    def test_pass_grid_keys_are_unknown(self, capsys, tmp_path, key):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"orbit": {key: 1.0}}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: unknown key orbit.{key!r}" in err

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_unwritable_out_exits_2(self, capsys, tmp_path, command):
        out_path = tmp_path / "missing" / "row.csv"
        code, out, err = run_cli(capsys, *_COMMANDS[command], "--out", str(out_path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: cannot write output {str(out_path)!r}" in err

    @pytest.mark.parametrize(
        "extra, data, ignored",
        [
            (["--q", "0.3"], {}, ["--q"]),
            (["--photons", "2"], {}, ["--photons"]),
            ([], {"operating": {"q": 0.3}}, ["operating.q"]),
            (["--photons", "2", "--q", "0.3"], {"operating": {"q": 0.4}}, ["--photons", "--q"]),
        ],
    )
    def test_inputs_the_photon_search_ignores_exit_2(self, capsys, tmp_path, extra, data, ignored):
        # --q 0.3 printed the searched q 0.513 with exit 0.
        path = tmp_path / "operating.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "capacity", "--optimize-photons", "--config", str(path), *extra)
        assert code == EXIT_CONFIG
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("config error")] == [
            f"config error: {name} has no effect with --optimize-photons, which searches the photon number and q"
            for name in ignored
        ]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("capacity", "--photons", "inf"),
            ("capacity", "--photons", "nan"),
            ("capacity", "--gamma", "-inf"),
            ("capacity", "--q", "NaN"),
            ("capacity", "--q", "half"),
            ("exclusion", "--gamma-target", "inf"),
            ("orbit", "--offset", "nan"),
            ("orbit", "--solve-gamma", "1e999"),
        ],
    )
    def test_non_finite_flag_exits_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number, got {value!r}" in err


class TestOutFile:
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_out_file_holds_the_bytes_of_stdout(self, capsys, tmp_path, command, output_format):
        argv = [*_COMMANDS[command], "--format", output_format]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        path = tmp_path / "table.out"
        assert run_cli(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", err)
        assert path.read_bytes() == out.encode("utf-8")

    def test_out_is_not_opened_when_the_computation_fails(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "exclusion", "--gamma-target", "1.5", "--out", str(path))
        assert code == EXIT_CONFIG
        assert not path.exists()


def _echoed(err):
    return json.loads(err.split("resolved-config: ", 1)[1].splitlines()[0])


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "command, flags",
        [
            (["capacity"], ["--photons", "7", "--q", "0.3", "--gamma", "0.2"]),
            (["orbit", "--format", "json"], ["--offset", "20000"]),
        ],
    )
    def test_echo_replays_value_flags(self, capsys, tmp_path, command, flags):
        code, out, err = run_cli(capsys, *command, *flags)
        assert code == EXIT_OK
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(_echoed(err)))
        assert run_cli(capsys, *command, "--config", str(path))[:2] == (EXIT_OK, out)

    def test_echo_replays_seeded_elevations(self, capsys, tmp_path):
        # An echo of math.degrees(angle) read back as another angle for 5% of
        # elevations: 49.175 came back as 49.175000000000004, and the replay
        # printed a different pass.
        seeded = np.random.default_rng(49175).uniform(10.0, 80.0, 24).tolist()
        path, echo = tmp_path / "elevation.json", tmp_path / "echo.json"
        for elevation in [49.175, *seeded]:
            path.write_text(json.dumps({"orbit": {"min_elevation_deg": elevation}}))
            code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
            assert code == EXIT_OK, elevation
            echo.write_text(json.dumps(_echoed(err)))
            assert run_cli(capsys, "orbit", "--format", "json", "--config", str(echo))[:2] == (EXIT_OK, out), elevation

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_q_flag_is_checked_like_the_config(self, capsys, q):
        # operating.q and a q axis reject 0 and 1; the flag used to print a row
        code, out, err = run_cli(capsys, "capacity", "--q", q)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"config error: q must be in (0, 1), got {float(q)}" in err

    def test_failed_invariant_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("dw_rate exceeds private_capacity")

        monkeypatch.setattr(secrecy, "_prior_terms", broken)
        code, out, err = run_cli(capsys, "capacity")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert "internal error: dw_rate exceeds private_capacity" in err
        assert "config error" not in err

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (["orbit"], {"orbit": {"min_elevation_deg": 90}}, "pass window is empty; lower min_elevation"),
            (["orbit"], {"constants": {"earth_angular_velocity_rad_s": 1.0}},
             "transmitter must move faster than the ground station rotates"),
            (["orbit"], {"constants": {"earth_radius_m": 1e300}},
             "orbit_radius must exceed the Earth radius 1e+300, got 1e+300"),
            (["orbit"], {"constants": {"earth_radius_m": 1e20, "earth_angular_velocity_rad_s": 0},
                         "orbit": {"eve_orbit_offset_m": 0.001}},
             "degenerate configuration: equal angular rates"),
            (["orbit", "--solve-gamma", "1.5"], {}, "gamma_target must be in (0, 1), got 1.5"),
            (["exclusion", "--gamma-target", "0.9"], {"geometry": {"eta_b": 1.0, "diam_eve_m": 0.1}},
             "no exclusion radius needed"),
            (["exclusion", "--gamma-target", "1.5"], {}, "gamma_target must be in (0, 1), got 1.5"),
            # D_E / D_B underflows to 0: any interceptor that small meets the target
            (["exclusion"], {"geometry": {"diam_bob_m": 1e300, "diam_eve_m": 1e-300}}, "no exclusion radius needed"),
        ],
    )
    def test_user_input_failing_deep_in_a_computation_exits_2(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"config error: {message}" in err


class TestSweepCommand:
    def test_axis_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep",
            "--axis", "received_mean_photons:1:8:4:log",
            "--config", "micius-leo",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4

    def test_faint_interceptor_phi_is_not_zero(self, capsys):
        # arccos(exp(-n/2)) printed phi_deg 0 on 49 rows of this grid
        code, out, _ = run_cli(
            capsys, "sweep", "--format", "json",
            "--axis", "received_mean_photons:0.001:100:24:log",
            "--axis", "exclusion_radius_m:11:30:12",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 288
        for row in rows:
            expected = math.degrees(mp_distinguishability_angle(row["gamma"] * row["received_mean_photons"]))
            assert format_cell(row["phi_deg"]) == format_cell(expected)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gamma:0.1:inf:3", "max must be finite, got 'inf'"),
            ("gamma:nan:0.5:3", "min must be finite, got 'nan'"),
            ("gamma:0.1:0.5:2.7", "invalid literal for int()"),
        ],
    )
    def test_axis_spec_rejections(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "sweep", "--axis", spec)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: axis spec {spec!r}: {message}" in err

    @pytest.mark.parametrize(
        "specs, cells",
        [
            (["gamma:0.1:0.5:1000000000000"], 10**12),
            (["gamma:0.1:0.5:1000", "q:0.1:0.9:1000"], 10**6),
            (["gamma:0.1:0.5:2", f"q:0.1:0.9:{MAX_SWEEP_CELLS // 2 + 1}"], MAX_SWEEP_CELLS + 2),
        ],
    )
    def test_oversized_grid_exits_2(self, capsys, specs, cells):
        code, out, err = run_cli(capsys, "sweep", *(f"--axis={spec}" for spec in specs))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: sweep grid has {cells} cells; at most {MAX_SWEEP_CELLS} are allowed" in err

    def test_oversized_config_grid_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"sweep": [{"param": "gamma", "min": 0.1, "max": 0.5, "points": 10**9}]}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error: sweep grid has 1000000000 cells" in err

    @pytest.mark.parametrize(
        "specs, message",
        [
            (["received_mean_photons:0.001:100:4:log", "exclusion_radius_m:1:30:12"],
             "geometry yields degradation 378.4, outside [0, 1); no secrecy is possible at this operating point"),
            # Row-major: the first bad cell is (11 m, 2e6 m), not the last (30 m, 4e6 m).
            (["exclusion_radius_m:11:30:4", "dist_bob_m:1e6:4e6:4"],
             "geometry yields degradation 98.8, outside [0, 1); no secrecy is possible at this operating point"),
            (["dist_bob_m:-1000:2e6:5"], "dist_bob must be > 0, got -1000.0"),
            (["received_mean_photons:0.1:20:3:log", "dist_bob_m:-2e6:2e6:4"], "dist_bob must be > 0, got -2000000.0"),
        ],
    )
    def test_first_invalid_cell_exits_2(self, capsys, specs, message):
        # Cells are validated in row-major order before the batched evaluation.
        code, out, err = run_cli(capsys, "sweep", *(f"--axis={spec}" for spec in specs))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.splitlines()[1:] == [f"config error: {message}"]

    def test_broken_invariant_in_a_cell_exits_3(self, capsys, monkeypatch):
        # A Holevo term far below the measured one puts dw_rate above the
        # private capacity in the third cell; the sweep checks it on arrays.
        holevo = secrecy.holevo_bound

        def broken(s, q):
            chi = holevo(s, q).copy()
            chi[2] = -1.0
            return chi

        monkeypatch.setattr(secrecy, "holevo_bound", broken)
        code, out, err = run_cli(capsys, "sweep", "--axis", "received_mean_photons:1:4:4")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert re.fullmatch(r"internal error: dw_rate \S+ exceeds private_capacity \S+", err.splitlines()[-1])

    def test_log_axis_ends_on_its_bounds(self, capsys):
        # 10 ** log10(max) is 1.0 here, which q rejects, and 20.000000000000004 for 20.
        code, out, _ = run_cli(capsys, "sweep", "--axis", "q:0.03271920953925088:0.9999999999999999:2:log")
        assert code == EXIT_OK
        assert [row["q"] for row in csv.DictReader(io.StringIO(out))] == ["0.0327192095", "1"]
        code, out, _ = run_cli(capsys, "sweep", "--format", "json", "--axis", "received_mean_photons:0.1:20:3:log")
        assert code == EXIT_OK
        photons = [row["received_mean_photons"] for row in json.loads(out)]
        assert (photons[0], photons[-1]) == (0.1, 20.0)

    def test_two_axes_on_one_parameter_exit_2(self, capsys):
        # The second axis overrode the first, whose values the first column printed.
        code, out, err = run_cli(capsys, "sweep", "--axis", "gamma:-0.5:0.2:2", "--axis", "gamma:0.3:0.4:2")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.splitlines()[1:] == ["config error: both sweep axes set 'gamma'; the first would have no effect"]

    @pytest.mark.parametrize(
        "config, specs, source",
        [
            ({"operating": {"gamma": 0.1}}, ["exclusion_radius_m:10:20:3"], "operating.gamma"),
            ({"operating": {"gamma": 0.1}}, ["received_mean_photons:1:4:2", "dist_bob_m:1e6:2e6:2"], "operating.gamma"),
            ({}, ["gamma:0.1:0.2:2", "exclusion_radius_m:10:20:3"], "the gamma axis"),
            ({}, ["dist_bob_m:1e6:2e6:2", "gamma:0.1:0.2:2"], "the gamma axis"),
        ],
    )
    def test_geometry_axis_under_fixed_degradation_exits_2(self, capsys, tmp_path, config, specs, source):
        # The geometry reaches the output only through the degradation: these
        # grids printed identical rows.
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), *(f"--axis={spec}" for spec in specs))
        assert (code, out) == (EXIT_CONFIG, "")
        param = next(spec.split(":")[0] for spec in specs if spec.startswith(("dist_bob_m", "exclusion_radius_m")))
        assert err.splitlines()[1:] == [
            f"config error: sweep axis {param!r} has no effect: the degradation is fixed by {source}"
        ]

    def test_bad_axis_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--axis", "nonsense")
        assert code == EXIT_CONFIG

    def test_missing_axes_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.splitlines()[1:] == ["config error: sweep needs 1 or 2 axes, got 0"]


class TestLinkbudgetCommand:
    def test_short_range_row_is_self_consistent(self, capsys, tmp_path):
        # Both footprints are smaller than the apertures: every fraction clamps at 1.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"geometry": {"dist_bob_m": 50000, "dist_eve_m": 50000, "exclusion_radius_m": 0}}))
        with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
            code, out, _ = run_cli(capsys, "linkbudget", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert [row[k] for k in ("bob_free_space", "channel_loss_db", "eve_free_space", "gamma_partial")] == [
            "1", "0", "1", "100",
        ]

    @pytest.mark.parametrize("command", ["capacity", "linkbudget"])
    def test_huge_apertures_collect_the_whole_footprint(self, capsys, tmp_path, command):
        # Both apertures dwarf the 12 m footprint: gamma is tail / eta_b, and
        # no squared diameter overflows on the way.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"geometry": {"diam_bob_m": 1e300, "diam_eve_m": 1e300}}))
        expected = contextlib.nullcontext() if command == "capacity" else pytest.warns(LinkBudgetWarning)
        with expected:
            code, out, _ = run_cli(capsys, command, "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["gamma" if command == "capacity" else "gamma_partial"] == "0.0169856677"

    def test_receiver_underflow_exits_3(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"geometry": {"diam_bob_m": 1e-200}}))
        code, out, err = run_cli(capsys, "linkbudget", "--config", str(path))
        assert (code, out) == (EXIT_NUMERIC, "")
        assert "numerical failure: receiver fraction underflows to 0" in err


class TestExclusionCommand:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "exclusion", "--gamma-target", "0.1")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["radius_partial_m"]) == pytest.approx(12.2, abs=0.1)
        assert float(row["radius_total_m"]) > float(row["radius_partial_m"])

    def test_filled_apertures_radius_meets_the_target(self, capsys, tmp_path):
        # Both 0.5 m footprints are narrower than the receiver's 1 m aperture;
        # the radius inverts the filled-aperture law, so the link budget at
        # that radius gives the target back.
        geometry = {"dist_bob_m": 50000, "dist_eve_m": 50000, "diam_eve_m": 0.5}
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"geometry": geometry}))
        code, out, _ = run_cli(capsys, "exclusion", "--gamma-target", "0.1", "--config", str(path))
        assert code == EXIT_OK
        radius = next(csv.DictReader(io.StringIO(out)))["radius_partial_m"]
        assert radius == "0.464615274"
        path.write_text(json.dumps({"geometry": {**geometry, "exclusion_radius_m": float(radius)}}))
        with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
            code, out, _ = run_cli(capsys, "linkbudget", "--config", str(path))
        assert code == EXIT_OK
        assert float(next(csv.DictReader(io.StringIO(out)))["gamma_partial"]) == pytest.approx(0.1, rel=1e-6)

    def test_distance_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "exclusion", "--axis", "dist_bob_m:500000:36000000:4:log"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4

    @pytest.mark.parametrize("target", ["0.5", "0.1"])
    def test_distance_axis_holds_gamma_target(self, capsys, target):
        code, out, _ = run_cli(
            capsys, "exclusion", "--gamma-target", target, "--axis", "dist_bob_m:1e6:2e6:2"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        geometry = config_from_dict({}).geometry
        for row, dist in zip(rows, (1e6, 2e6), strict=True):
            ((_, partial, total),) = radius_vs_gamma_curve(replace(geometry, dist_bob=dist), [float(target)])
            assert row["radius_partial_m"] == format_cell(partial)
            assert row["radius_total_m"] == format_cell(total)

    def test_gamma_target_with_its_own_axis_exits_2(self, capsys):
        # The flag was ignored: the axis's radii printed with exit 0.
        code, out, err = run_cli(
            capsys, "exclusion", "--axis", "gamma_target:0.05:0.5:3", "--gamma-target", "0.7"
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.splitlines()[1:] == ["config error: gamma target 0.7 has no effect on a gamma_target axis"]

    def test_oversized_axis_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "exclusion", "--axis", "gamma_target:0.01:0.5:200001")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error: sweep grid has 200001 cells" in err

    def test_tiny_target_has_exact_radius(self, capsys):
        code, out, _ = run_cli(capsys, "exclusion", "--gamma-target", "1e-300")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["radius_total_m"] == "223.705738"

    def test_huge_receiver_aperture_prints_its_row(self, capsys, tmp_path):
        # (D_B / (theta d))^2 overflows a float; the total model's right side
        # is then the target itself.  This exited 3 with an overflow error.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"geometry": {"diam_bob_m": 1e300}}))
        code, out, _ = run_cli(capsys, "exclusion", "--config", str(path))
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["radius_partial_m"] == "7.73538972"
        # theta d sqrt(-ln(gamma) / 2), with theta d = 12 m
        assert row["radius_total_m"] == format_cell(12.0 * math.sqrt(0.5 * math.log(10.0))) == "12.8757962"

    def test_unrepresentable_radius_exits_3(self, capsys, tmp_path):
        # gamma (1 - exp(-2 (D_B/(theta d))^2)) underflows to 0 at this range
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"geometry": {"dist_bob_m": 1e300}}))
        code, out, err = run_cli(capsys, "exclusion", "--config", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "numerical failure: exclusion radius cannot be represented" in err


class TestOrbitCommand:
    def test_profile_csv_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "pass.csv"
        code, _, err = run_cli(capsys, "orbit", "--out", str(out_path))
        assert code == EXIT_OK
        summary = json.loads(err.split("pass-summary: ", 1)[1].splitlines()[0])
        assert summary["integrated_gamma"] < 0.1
        assert summary["pass_half_duration_s"] == pytest.approx(373.2, abs=1.0)
        header = out_path.read_text().splitlines()[0]
        assert header == "t_s,eta_bob,eta_eve,d_bob_m,d_eve_m,offset_m"

    def test_json_summary_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "summary.json"
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        printed = json.loads(err.split("pass-summary: ", 1)[1].splitlines()[0])
        assert json.loads(out_path.read_text()) == printed

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--format", "json", "--offset", "20000")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["integrated_gamma"] < 0.1
        assert summary["eve_intercept_window_s"] < 1.0

    def test_non_integer_altitude_succeeds(self, capsys, tmp_path):
        path = tmp_path / "ephemeris.json"
        path.write_text(json.dumps({"orbit": {"alice_altitude_m": 1406588.6041677513}}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_OK, err
        assert json.loads(out)["pass_half_duration_s"] > 0.0

    @pytest.mark.parametrize("solve", [[], ["--solve-gamma", "0.1"]])
    @pytest.mark.parametrize("altitude", [1e200, 1e300])
    def test_orbit_too_wide_to_cube_exits_2(self, capsys, tmp_path, altitude, solve):
        # The cube of the orbit radius overflowed: exit 3, "numerical failure".
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"orbit": {"alice_altitude_m": altitude, "eve_orbit_offset_m": 1e5}}))
        code, out, err = run_cli(capsys, "orbit", "--config", str(path), *solve)
        assert (code, out) == (EXIT_CONFIG, "")
        assert "config error: transmitter must move faster than the ground station rotates" in err

    @pytest.mark.parametrize("offset", ["1e-9", "1e-13"])
    def test_offset_below_floor_exits_2(self, capsys, tmp_path, offset):
        # Below 1 mm the pass geometry rounds: 1e-9 m used to print an
        # integrated_gamma of 4783 (4464 at 1e-6 m), 1e-13 m "equal angular rates".
        floor = "eve_orbit_offset must be in [0.001 m, alice_altitude)"
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--offset", offset)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: {floor}, got {float(offset)}" in err
        path = tmp_path / "close.json"
        path.write_text(json.dumps({"orbit": {"eve_orbit_offset_m": float(offset)}}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: orbit: {floor}, got {float(offset)}" in err

    def test_beam_far_narrower_than_the_disk_prints_finite_json(self, capsys, tmp_path):
        # 9 cm below the transmitter the interceptor sees a picometre beam on
        # a 1.2 m disk; the pass integral used to print NaN and exit 0.
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"orbit": {
            "alice_altitude_m": 534385.6530111203, "eve_orbit_offset_m": 0.08699603240212532,
            "eve_telescope_diameter_m": 1.2471911255204324, "divergence_rad": 1.021380458115991e-06,
            "legacy_beam_width": True,
        }}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_OK, err

        def reject(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")

        summary = json.loads(out, parse_constant=reject)
        assert summary["integrated_gamma"] > 0.0

    def test_wide_disk_on_a_narrow_beam(self, capsys, tmp_path):
        # The disk rim crosses a beam 2e5 times narrower than the disk.  The
        # noncentral chi-square CDF was NaN here and the run exited 3.
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"orbit": {
            "alice_altitude_m": 854952.7561328075, "eve_orbit_offset_m": 0.9689265089512085,
            "eve_telescope_diameter_m": 0.8796605273624306, "divergence_rad": 4.045491271072542e-06,
            "min_elevation_deg": 38.577238641982206,
        }}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code == EXIT_OK, err

        def reject(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")

        summary = json.loads(out, parse_constant=reject)
        assert summary["integrated_gamma"] > 0.0
        # The interceptor sits on the beam axis and collects at most all of it.
        assert 0.0 < summary["integrated_eta_eve_s"] <= 2.0 * summary["pass_half_duration_s"]

    def test_non_finite_disk_fraction_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "_rim_fraction", lambda a, b, d: np.full(np.shape(a), math.nan))
        code, out, err = run_cli(capsys, "orbit", "--format", "json")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "numerical failure: Gaussian disk fraction is not finite" in err

    def test_solve_gamma_reports_required_offset(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--format", "json", "--solve-gamma", "0.1")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert 12e3 <= summary["required_offset_m"] <= 20e3

    @pytest.mark.parametrize("altitude", [1.5e5, 2e5])
    def test_solve_below_the_offset_bracket_exits_2(self, capsys, tmp_path, altitude):
        # The solve probed a 200 km offset, which the orbit rejects: the run
        # printed "internal error" about an offset the user never gave.
        path = tmp_path / "low.json"
        path.write_text(json.dumps({"orbit": {"alice_altitude_m": altitude}}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path), "--solve-gamma", "0.1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.splitlines()[-1] == (
            "config error: the offset solve searches 1-200 km below the transmitter, "
            f"so alice_altitude must exceed 200000 m, got {altitude}"
        )

    def test_solve_just_above_the_offset_bracket(self, capsys, tmp_path):
        path = tmp_path / "low.json"
        path.write_text(json.dumps({"orbit": {"alice_altitude_m": 200001.0}}))
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path), "--solve-gamma", "0.1")
        assert code == EXIT_OK, err
        assert 1e3 <= json.loads(out)["required_offset_m"] <= 2e5


class TestTable1Command:
    def test_three_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["configuration"] for row in rows] == [
            "micius-leo", "micius-meo", "micius-geo",
        ]
        geo = rows[-1]
        assert float(geo["exclusion_radius_m"]) == pytest.approx(366.6, abs=1.0)

    def test_config_file_gives_its_own_row(self, capsys, tmp_path):
        path = tmp_path / "day.json"
        path.write_text(json.dumps({"detector": {"stray_mean": 0.01}, "link": {"clock_rate_hz": 1e6}}))
        code, out, err = run_cli(capsys, "table1", "--config", str(path))
        assert code == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(out))
        # The stock table prints 680964196 at the presets' detector and clock.
        assert float(row["private_rate_bps"]) < 1e6
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(_echoed(err)))
        assert run_cli(capsys, "table1", "--config", str(echo))[:2] == (EXIT_OK, out)

    def test_preset_config_gives_its_row_alone(self, capsys):
        stock = run_cli(capsys, "table1")[1].splitlines()
        code, out, _ = run_cli(capsys, "table1", "--config", "micius-geo")
        assert (code, out.splitlines()) == (EXIT_OK, [stock[0], stock[-1]])


def _package_env() -> dict:
    src = str(Path(wiretap_space.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_does_not_load_scipy_integrate():
    # The package needs numpy only: importing it, a pass integral and an
    # offset solve load no scipy module, so scipy.integrate neither.
    probe = (
        "import sys, wiretap_space.cli\n"
        "from wiretap_space.orbitsim import OrbitScenario, integrated_gamma, required_orbital_exclusion\n"
        "integrated_gamma(OrbitScenario())\n"
        "required_orbital_exclusion(OrbitScenario(), gamma_target=0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["orbit"], ["sweep", "--axis", "received_mean_photons:0.01:10:1500"]])
def test_closed_stdout_exits_quietly(argv):
    # A reader that stops after the first line (``| head -1``) closes the
    # pipe while the command is still writing (both tables hold over 200 kB,
    # more than a pipe buffers): exit 0, no traceback.
    with subprocess.Popen([sys.executable, "-m", "wiretap_space.cli", *argv], env=_package_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        header = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait() == EXIT_OK, err
    assert header.startswith(b"t_s," if argv[0] == "orbit" else b"received_mean_photons,")
    assert "Traceback" not in err and "Error" not in err


def test_warnings_print_one_line_free_of_the_install_path(tmp_path, capsys):
    # The default format printed the caller's absolute path and line, then
    # its source line, so stderr changed with the install directory.
    config = tmp_path / "near.json"
    config.write_text(json.dumps({"geometry": {"dist_bob_m": 1000.0}}))
    package = Path(wiretap_space.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "copy" / "wiretap_space", ignore=shutil.ignore_patterns("__pycache__"))
    line = "warning: LinkBudgetWarning: beam footprint smaller than receiver aperture (ratio 1e+04); clamped to 1"
    for argv, code in ((["linkbudget"], EXIT_OK), (["table1"], EXIT_NUMERIC)):
        errs = []
        for root in (package.parent, tmp_path / "copy"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")])))
            result = subprocess.run([sys.executable, "-m", "wiretap_space.cli", *argv, "--config", str(config)],
                                    cwd=tmp_path, env=env, capture_output=True, text=True)
            assert result.returncode == code, result.stderr
            errs.append(result.stderr)
        assert errs[0] == errs[1]
        assert line in errs[0].splitlines()
    # main() in process leaves the warning format as it found it
    before = warnings.formatwarning
    with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
        assert run_cli(capsys, "linkbudget", "--config", str(config))[0] == EXIT_OK
    assert warnings.formatwarning is before


# Fuzzing: arbitrary JSON values in every config field and arbitrary --axis
# strings must end in exit 0, 2 or 3, never in an uncaught exception.
_EXTREMES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 10**400, float("inf"), float("-inf"), float("nan")]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10**6),
    st.floats(),
    st.sampled_from(_EXTREMES),
    st.text(max_size=6),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
_DEFAULT_DOC = config_to_dict(config_from_dict({}))


def _field_values(default):
    """Mostly the default or a nearby number, sometimes any JSON value."""
    near = (
        st.floats(0.1, 10.0).map(lambda f: default * f)
        if isinstance(default, float)
        else st.floats(0.01, 0.99)
    )
    return st.one_of(st.just(default), near, _JSON_VALUES)


_SECTIONS = {
    section: st.fixed_dictionaries({}, optional={key: _field_values(value) for key, value in fields.items()})
    for section, fields in _DEFAULT_DOC.items()
    if isinstance(fields, dict)
}
_AXIS_POINTS = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([2.7, 3.0, True, float("inf"), float("nan"), "3", None, 10**9, 10**12]),
)
_AXIS_NUMBERS = st.one_of(st.floats(0.01, 1.0), _JSON_SCALARS)
_AXIS_OBJECTS = st.fixed_dictionaries(
    {
        "param": st.sampled_from(CAPACITY_SWEEP_PARAMS + ("gamma_target", "bogus")),
        "min": _AXIS_NUMBERS,
        "max": _AXIS_NUMBERS,
        "points": _AXIS_POINTS,
    },
    optional={"scale": st.sampled_from(["linear", "log", "cubic"])},
)
_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{section: strategy | _JSON_VALUES for section, strategy in _SECTIONS.items()},
        "label": _JSON_SCALARS,
        "sweep": st.lists(_AXIS_OBJECTS, max_size=3) | _JSON_VALUES,
        "bogus": _JSON_VALUES,
    },
)
_SPEC_PART = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e300", "1e-300", "", "x", "0.1", "0.5"]),
    st.text(alphabet="0123456789.-+einfa", max_size=6),
)
_AXIS_SPECS = st.one_of(
    st.text(max_size=12).filter(lambda text: text.count(":") < 3),
    st.tuples(
        st.sampled_from(CAPACITY_SWEEP_PARAMS + ("gamma_target", "bogus")),
        _SPEC_PART,
        _SPEC_PART,
        st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["2.7", "inf", "nan", "x", "", "1000000000000"])),
        st.sampled_from([(), ("linear",), ("log",), ("cubic",)]),
    ).map(lambda parts: ":".join([*parts[:4], *parts[4]])),
)


def _run_quietly(argv):
    """``main``'s exit code and stderr, argparse rejections included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(["capacity", "linkbudget", "exclusion", "sweep", "orbit", "table1"]),
    data=_CONFIGS,
    specs=st.lists(_AXIS_SPECS, max_size=2),
)
def test_arbitrary_configs_end_in_a_defined_exit_code(tmp_path_factory, command, data, specs):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += [f"--axis={spec}" for spec in specs]
    elif command == "exclusion" and specs:
        argv.append(f"--axis={specs[0]}")
    elif command == "orbit":
        argv += ["--format", "json"]
    code, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    assert "internal error" not in err


# The value flags take the same strings as axis bounds.
_VALUE_FLAGS = {
    "capacity": ("--photons", "--gamma", "--q"),
    "orbit": ("--offset", "--solve-gamma"),
    "exclusion": ("--gamma-target",),
}
_FLAG_ARGVS = st.sampled_from(sorted(_VALUE_FLAGS)).flatmap(
    lambda command: st.dictionaries(st.sampled_from(_VALUE_FLAGS[command]), _SPEC_PART, min_size=1).map(
        lambda flags: [command, "--format", "json", *(f"{flag}={value}" for flag, value in flags.items())]
    )
)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_FLAG_ARGVS)
def test_arbitrary_value_flags_end_in_a_defined_exit_code(argv):
    code, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    assert "internal error" not in err


# Extreme but valid magnitudes, each field at its default, tiny or huge.
_GEOMETRY_EXTREMES = {
    key: (None, 1e-300, 1e300)
    for key in ("dist_bob_m", "dist_eve_m", "diam_bob_m", "diam_eve_m", "divergence_rad", "exclusion_radius_m")
}
_ORBIT_EXTREMES = {
    "alice_altitude_m": (None, 1e-300, 1e300),
    "eve_orbit_offset_m": (None, 1e-3, 5.99e5),
    "eve_telescope_diameter_m": (None, 1e-300, 1e300),
    "diam_bob_m": (None, 1e-300, 1e300),
    "divergence_rad": (None, 1e-300, 1e300),
    "eta_b": (None, 1e-300, 1e300),
}

_CONSTANTS_EXTREMES = {
    "earth_mu": (None, 1e-300, 1e300),
    "earth_radius_m": (None, 1e-300, 1e300),
    "earth_angular_velocity_rad_s": (None, 0.0, 1e300),
}
_CONSTANTS_PROBE_ORBITS = {"alice_altitude_m": (None, 1e-300, 1e200, 1e300), "eve_orbit_offset_m": (None, 1e-3)}


def _extreme_sections(extremes):
    for values in itertools.product(*extremes.values()):
        yield {key: value for key, value in zip(extremes, values) if value is not None}


def test_extreme_link_geometries_print_no_errno_and_no_nan(capsys, tmp_path):
    # A Python ** 2 that overflowed printed "numerical failure: (34, 'Numerical
    # result out of range')" for 612 of these runs.
    path = tmp_path / "geometry.json"
    for geometry in _extreme_sections(_GEOMETRY_EXTREMES):
        path.write_text(json.dumps({"geometry": geometry}))
        for command in ("linkbudget", "capacity", "exclusion", "table1"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, out, err = run_cli(capsys, command, "--config", str(path))
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (command, geometry)
            assert "internal error" not in err and not re.search(r"\(\d+, '", err), (command, geometry, err)
            # A footprint that underflowed to 0 was a divisor in 288 of these
            # runs, and a degradation of 0 * inf ended 417 of them.  A footprint
            # narrower than the aperture (no free-space loss) gave table1 an
            # "internal error" from the repeaterless bound in 297.
            assert "division by zero" not in err and "0 * inf" not in err, (command, geometry, err)
            assert not re.search(r"\b(nan|inf)\b", out, flags=re.I), (command, geometry, out)


def test_extreme_orbits_print_no_nan_or_infinity(capsys, tmp_path):
    # 1 - exp(-2 a^2 / w^2) was 0/0 with a tiny aperture and divergence, and
    # 36 of these printed NaN in the JSON with exit 0.  Of the constants
    # probe, 14 runs squared an orbit radius beyond a float in the pass
    # window and printed the errno text "(34, 'Numerical result out of range')".
    constants_probe = (
        {"constants": constants, "orbit": orbit}
        for constants in _extreme_sections(_CONSTANTS_EXTREMES)
        for orbit in _extreme_sections(_CONSTANTS_PROBE_ORBITS)
    )
    path = tmp_path / "orbit.json"
    for data in itertools.chain(({"orbit": orbit} for orbit in _extreme_sections(_ORBIT_EXTREMES)), constants_probe):
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_cli(capsys, "orbit", "--format", "json", "--config", str(path))
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), data
        assert "internal error" not in err and not re.search(r"\(\d+, '", err), (data, err)
        assert "NaN" not in out and "Infinity" not in out, data


@pytest.mark.parametrize("altitude", [1e-300, 1.5e5, 2e5, 2.00001e5, None, 1e300])
def test_extreme_orbits_solve_without_internal_error(capsys, tmp_path, altitude):
    # At 150 and 200 km the offset solve probed a 200 km offset that the
    # orbit rejects, and the run printed "internal error" with exit 3.
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"orbit": {} if altitude is None else {"alice_altitude_m": altitude}}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, "orbit", "--format", "json", "--solve-gamma", "0.1", "--config", str(path))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    assert "internal error" not in err, err
    assert "NaN" not in out and "Infinity" not in out
