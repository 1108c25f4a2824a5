import csv
import dataclasses
import io
import itertools
import json
import math
import random
import re
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wiretap_space.cli import main
from wiretap_space.linkbudget import radius_vs_gamma_curve
from wiretap_space.orbitsim import OrbitScenario
from wiretap_space.receiver import DetectorModel
from wiretap_space._common import _check_fields
from wiretap_space.scenario_io import (
    _FIELD_BY_KEY,
    _SCHEMA,
    CAPACITY_SWEEP_OUTPUTS,
    CAPACITY_SWEEP_PARAMS,
    MAX_SWEEP_CELLS,
    ConfigError,
    OperatingPoint,
    SweepAxis,
    capacity_row,
    config_from_dict,
    config_to_dict,
    emit_table1,
    format_cell,
    exclusion_sweep,
    load_config,
    preset_config,
    resolved_gamma,
    rows_to_json,
    sweep,
    with_values,
    write_csv,
)
from wiretap_space import secrecy
from wiretap_space.secrecy import private_capacity_fixed, secrecy_points


class TestConfigLoading:
    def test_empty_object_gives_leo_defaults(self):
        config = config_from_dict({})
        assert config.label == "micius-leo"
        assert config.geometry.dist_bob == pytest.approx(1.2e6)
        assert config.geometry.diam_bob == 1.0
        assert config.geometry.diam_eve == 2.0
        assert config.geometry.divergence_full_angle == pytest.approx(1e-5)
        assert config.geometry.eta_b == pytest.approx(0.01)
        assert config.detector.stray_mean == pytest.approx(1e-4)
        assert config.detector.p_dark == pytest.approx(1e-7)
        assert config.link.clock_rate == pytest.approx(1e9)
        assert config.link.wavelength == pytest.approx(850e-9)

    def test_geo_override_keeps_other_defaults(self):
        config = config_from_dict({"geometry": {"dist_bob_m": 3.6e7}})
        assert config.geometry.dist_bob == pytest.approx(3.6e7)
        assert config.geometry.dist_eve == pytest.approx(1.2e6)
        assert config.detector.p_dark == pytest.approx(1e-7)

    def test_malformed_type_names_field(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"geometry": {"dist_bob_m": "far away"}})
        assert any("geometry.dist_bob_m" in v for v in info.value.violations)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"geometry": {"dist_bob": 1.0}})
        assert any("dist_bob" in v for v in info.value.violations)

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(
                {"detector": {"p_dark": 2.0}, "geometry": {"eta_b": 0.0}}
            )
        text = " ".join(info.value.violations)
        assert "p_dark" in text and "eta_b" in text

    def test_every_key_and_type_violation_reported_in_order(self):
        # Unknown keys and non-object sections in document order, then the
        # label, the field types in schema order, then the sweep axes.
        with pytest.raises(ConfigError) as info:
            config_from_dict({
                "orbit": {"min_elevation_deg": "x", "bogus": 1}, "zzz": 1, "link": [], "label": "",
                "detector": {"p_dark": True},
                "sweep": [{"param": "q", "min": 0.1, "max": 0.9, "points": 3, "extra": 1, "b": 2}, 5],
            })
        assert info.value.violations == [
            "unknown key orbit.'bogus'",
            "unknown key 'zzz'",
            "section 'link' must be an object",
            "label must be a non-empty string",
            "detector.p_dark must be a number, got True",
            "orbit.min_elevation_deg must be a number, got 'x'",
            "unknown key sweep[0].'b'",
            "unknown key sweep[0].'extra'",
            "sweep[1] must be an object",
        ]

    def test_sections_take_their_dataclass_defaults(self):
        config = config_from_dict({"orbit": {"min_elevation_deg": 30.0}, "operating": {"q": None}})
        assert config.orbit == OrbitScenario(min_elevation=math.radians(30.0))
        assert config.operating == OperatingPoint()
        assert config.detector == DetectorModel()

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"detector": {"p_dark": 2, "stray_mean": -1}},
             "detector: p_dark must be in [0, 1], got 2.0; stray_mean must be >= 0, got -1.0"),
            ({"link": {"clock_rate_hz": 0, "wavelength_m": -1}},
             "link: clock_rate must be > 0, got 0.0; wavelength must be > 0, got -1.0"),
            ({"operating": {"received_mean_photons": -1, "gamma": 1, "q": 1}},
             "operating: received_mean_photons must be >= 0, got -1.0; gamma must be in [0, 1), got 1.0; "
             "q must be in (0, 1), got 1.0"),
            ({"orbit": {"min_elevation_deg": 100}},
             "orbit: min_elevation must be in (0, pi/2], got 1.7453292519943295 rad (100 deg)"),
        ],
    )
    def test_a_section_reports_every_violation(self, data, message):
        # Each of these sections stopped at its first problem.
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.violations == [message]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"orbit": {"divergence_rad": value}})
        assert info.value.violations == [f"orbit.divergence_rad must be finite, got {value!r}"]

    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"earth_mu": -1}, "earth_mu must be > 0, got -1.0"),
            ({"earth_radius_m": 0}, "earth_radius must be > 0, got 0.0"),
            ({"earth_angular_velocity_rad_s": -1e-5}, "earth_angular_velocity must be >= 0, got -1e-05"),
        ],
    )
    def test_constants_validated(self, constants, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"constants": constants})
        assert info.value.violations == [f"constants: {message}"]

    def test_type_errors_follow_section_order(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"constants": {"earth_mu": "x"}, "orbit": {"legacy_beam_width": 1}})
        assert info.value.violations == [
            "orbit.legacy_beam_width must be a boolean",
            "constants.earth_mu must be a number, got 'x'",
        ]

    @pytest.mark.parametrize(
        "axis, message",
        [
            ({"points": float("inf")}, "points must be a whole number, got inf"),
            ({"points": 2.7}, "points must be a whole number, got 2.7"),
            ({"points": True}, "points must be a whole number, got True"),
            ({"min": True}, "min must be a number, got True"),
            ({"max": float("nan")}, "max must be finite, got nan"),
        ],
    )
    def test_sweep_axis_types_rejected(self, axis, message):
        data = {"sweep": [{"param": "gamma", "min": 0.1, "max": 0.5, "points": 3, **axis}]}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.violations == [f"sweep[0]: {message}"]

    def test_whole_float_points_accepted(self):
        config = config_from_dict({"sweep": [{"param": "gamma", "min": 0.1, "max": 0.5, "points": 3.0}]})
        assert config.sweep_axes == (SweepAxis(param="gamma", lo=0.1, hi=0.5, points=3),)

    def test_readme_schema_table_matches(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Configuration schema", 1)[1]
        rows = re.findall(r"^\| `([^`]+)` \| [^|]* \| ([^|]*) \| ([^|]*) \|", section, flags=re.MULTILINE)
        keys = ["label"] + [
            f"{name}.{f.key}" for name, (_, fields) in _SCHEMA.items() for f in fields
        ] + ["sweep"]
        assert [field for field, _, _ in rows] == keys
        resolved = config_to_dict(config_from_dict({}))
        rules = {f"{name}.{f.key}": cls._rules.get(f.attr) for name, (cls, fields) in _SCHEMA.items() for f in fields}
        for field, cell, range_cell in rows:
            default = resolved
            for part in field.split("."):
                default = default[part]
            text = cell.strip().strip("`")
            assert (text if field == "label" else json.loads(text)) == default, field
            # The Range column is the field's declared rule; a section's own rule is in words.
            rule, range_cell = rules.get(field), range_cell.strip()
            if rule is None:
                assert range_cell == "-", field
            elif callable(rule):
                assert range_cell not in ("", "-"), field
            else:
                assert range_cell == f"`{rule}`", field

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"label": "custom", "link": {"clock_rate_hz": 5e8}}))
        config = load_config(str(path))
        assert config.label == "custom"
        assert config.link.clock_rate == pytest.approx(5e8)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"label": }')
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert any("line 1" in v for v in info.value.violations)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize(
        "content, reason",
        [
            # json.load raises Python's int-string-limit ValueError past 4300 digits.
            ('{"sweep": [{"param": "gamma", "min": 0.1, "max": 0.5, "points": ' + "1" * 5000 + "}]}",
             "Exceeds the limit (4300 digits)"),
            (b'{"label": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["5000-digit-points", "not-utf8", "deep-nesting"],
    )
    def test_unreadable_json_is_a_config_error_naming_the_file(self, tmp_path, capsys, content, reason):
        # Each was an internal error, exit 3.
        if reason.startswith("Exceeds") and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no integer digit limit")
        path = tmp_path / "big.json"
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        (violation,) = info.value.violations
        assert violation.startswith(f"config {str(path)!r} is not valid JSON: ") and reason in violation
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    def test_presets(self):
        assert preset_config("micius-meo").geometry.dist_bob == pytest.approx(1e7)
        assert preset_config("micius-geo").geometry.exclusion_radius == pytest.approx(340.0)
        with pytest.raises(ConfigError):
            preset_config("micius-heo")

    def test_round_trip_through_dict(self):
        config = preset_config("micius-geo")
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_round_trip_of_every_field(self):
        # (section, JSON key, attribute, value): each of the 27 fields set off its default.
        rows = [
            ("detector", "p_dark", "p_dark", 2e-7),
            ("detector", "eta_optical", "eta_optical", 0.5),
            ("detector", "stray_mean", "stray_mean", 0.01),
            ("geometry", "dist_bob_m", "dist_bob", 2e6),
            ("geometry", "dist_eve_m", "dist_eve", 2.5e6),
            ("geometry", "diam_bob_m", "diam_bob", 1.5),
            ("geometry", "diam_eve_m", "diam_eve", 3.0),
            ("geometry", "divergence_rad", "divergence_full_angle", 2e-5),
            ("geometry", "eta_b", "eta_b", 0.02),
            ("geometry", "exclusion_radius_m", "exclusion_radius", 25.0),
            ("link", "clock_rate_hz", "clock_rate", 5e8),
            ("link", "wavelength_m", "wavelength", 1.55e-6),
            ("operating", "received_mean_photons", "received_mean_photons", 2.0),
            ("operating", "gamma", "gamma", 0.2),
            ("operating", "q", "q", 0.3),
            ("orbit", "alice_altitude_m", "alice_altitude", 5e5),
            ("orbit", "eve_orbit_offset_m", "eve_orbit_offset", 2e4),
            ("orbit", "eve_telescope_diameter_m", "eve_telescope_diameter", 1.5),
            ("orbit", "diam_bob_m", "diam_bob", 1.2),
            ("orbit", "eta_b", "eta_b", 0.05),
            ("orbit", "divergence_rad", "divergence_full_angle", 3e-5),
            ("orbit", "min_elevation_deg", "min_elevation", 35.0),
            ("orbit", "bob_aperture_model", "bob_aperture_model", "footprint"),
            ("orbit", "legacy_beam_width", "legacy_beam_width", True),
            ("constants", "earth_mu", "earth_mu", 3.9e14),
            ("constants", "earth_radius_m", "earth_radius", 6.4e6),
            ("constants", "earth_angular_velocity_rad_s", "earth_angular_velocity", 7e-5),
        ]
        doc = {"label": "all-fields"}
        for section, key, _, value in rows:
            doc.setdefault(section, {})[key] = value
        doc["sweep"] = [
            {"param": "received_mean_photons", "min": 0.5, "max": 8.0, "points": 3, "scale": "log"},
            {"param": "stray_mean", "min": 1e-5, "max": 1e-3, "points": 2, "scale": "linear"},
        ]
        config = config_from_dict(doc)
        assert json.dumps(config_to_dict(config)) == json.dumps(doc)  # the same values, in the same order
        for section, _, attr, value in rows:
            expected = math.radians(value) if attr == "min_elevation" else value
            assert getattr(getattr(config, section), attr) == expected, (section, attr)
        assert config.sweep_axes == (
            SweepAxis("received_mean_photons", 0.5, 8.0, 3, "log"), SweepAxis("stray_mean", 1e-5, 1e-3, 2),
        )

    def test_elevation_echo_converts_back_to_the_stored_angle(self):
        # math.degrees echoed an angle that math.radians took to another one
        # for 518 of 10,007 seeded elevations (49.175 as 49.175000000000004).
        config, rng = config_from_dict({}), random.Random(20261019)
        for _ in range(100_000):
            stored = math.radians(90.0 * (1.0 - rng.random()))  # (0, 90] degrees, as a config holds it
            echoed = config_to_dict(replace(config, orbit=replace(config.orbit, min_elevation=stored)))
            assert math.radians(echoed["orbit"]["min_elevation_deg"]) == stored
        assert config_to_dict(config)["orbit"]["min_elevation_deg"] == 20.0

    def test_resolved_gamma_from_geometry(self):
        config = config_from_dict({})
        assert resolved_gamma(config) == pytest.approx(0.0679, abs=0.001)

    def test_resolved_gamma_override(self):
        config = config_from_dict({"operating": {"gamma": 0.1}})
        assert resolved_gamma(config) == 0.1

    def test_resolved_gamma_accepts_zero(self):
        # The exclusion tail underflows: the interceptor collects nothing.
        assert resolved_gamma(config_from_dict({"geometry": {"exclusion_radius_m": 1000.0}})) == 0.0
        assert resolved_gamma(config_from_dict({"operating": {"gamma": 0.0}})) == 0.0

    def test_resolved_gamma_rejects_no_secrecy(self):
        config = config_from_dict(
            {"geometry": {"exclusion_radius_m": 0.0, "dist_eve_m": 6e5}}
        )
        with pytest.raises(ConfigError):
            resolved_gamma(config)


class TestWithValues:
    def test_sets_fields_by_json_key_in_json_units(self):
        pairs = [("eve_orbit_offset_m", 2e4), ("min_elevation_deg", 30.0), ("q", 0.3)]
        expected = {"orbit": {"eve_orbit_offset_m": 2e4, "min_elevation_deg": 30.0}, "operating": {"q": 0.3}}
        assert with_values(config_from_dict({}), pairs) == config_from_dict(expected)

    def test_shared_key_sets_the_first_section(self):
        config = with_values(config_from_dict({}), [("eta_b", 0.5)])
        assert (config.geometry.eta_b, config.orbit.eta_b) == (0.5, 0.01)

    def test_rejection_carries_the_section_message(self):
        with pytest.raises(ConfigError) as info:
            with_values(config_from_dict({}), [("dist_bob_m", -1.0)])
        assert info.value.violations == ["dist_bob must be > 0, got -1.0"]


class TestTable1:
    def test_rows_match_published_scales(self):
        header, rows = emit_table1()
        by_label = {row[0]: dict(zip(header, row)) for row in rows}
        leo = by_label["micius-leo"]
        assert leo["channel_loss_db"] == pytest.approx(22.0, abs=0.5)
        assert leo["plob_rate_bps"] == pytest.approx(10e6, rel=0.5)
        assert leo["exclusion_radius_m"] == pytest.approx(12.2, abs=0.6)
        assert leo["private_rate_bps"] == pytest.approx(680e6, abs=20e6)
        meo = by_label["micius-meo"]
        assert meo["channel_loss_db"] == pytest.approx(40.0, abs=0.1)
        assert meo["exclusion_radius_m"] == pytest.approx(102.0, abs=5.0)
        assert meo["private_rate_bps"] == pytest.approx(680e6, abs=20e6)
        geo = by_label["micius-geo"]
        assert abs(geo["exclusion_radius_m"] - 340.0) / 340.0 < 0.10
        assert geo["private_rate_bps"] == pytest.approx(680e6, abs=20e6)


class TestSweep:
    def test_photon_sweep_peaks_near_four(self):
        config = config_from_dict({"operating": {"gamma": 0.1}})
        axis = SweepAxis(param="received_mean_photons", lo=0.01, hi=20.0, points=64, scale="log")
        header, rows = sweep(config, [axis])
        cap_col = header.index("private_capacity")
        mu_col = header.index("received_mean_photons")
        best = max(rows, key=lambda row: row[cap_col])
        assert best[cap_col] == pytest.approx(0.68, abs=0.02)
        assert best[mu_col] == pytest.approx(4.0, abs=1.5)

    def test_two_axis_grid_row_major(self):
        config = config_from_dict({"operating": {"gamma": 0.1, "q": 0.5}})
        axes = [
            SweepAxis(param="received_mean_photons", lo=1.0, hi=4.0, points=2, scale="linear"),
            SweepAxis(param="stray_mean", lo=1e-7, hi=1e-4, points=3, scale="log"),
        ]
        header, rows = sweep(config, axes)
        assert len(rows) == 6
        assert [row[0] for row in rows] == [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
        assert rows[0][1] == pytest.approx(1e-7)
        assert rows[2][1] == pytest.approx(1e-4)
        # the high-capacity region of the (photons, stray) plane covers the
        # daytime operating point
        cap_col = header.index("private_capacity")
        daytime = rows[-1]  # photons=4, stray=1e-4
        assert daytime[cap_col] >= 0.5

    def test_optimal_q_stays_near_uniform(self):
        config = config_from_dict({"operating": {"gamma": 0.1}})
        axis = SweepAxis(param="received_mean_photons", lo=1.0, hi=10.0, points=5, scale="log")
        header, rows = sweep(config, [axis])
        q_col = header.index("q")
        assert all(0.4 <= row[q_col] <= 0.6 for row in rows)

    def test_no_axis_is_the_capacity_row(self, capsys):
        config = config_from_dict({"operating": {"gamma": 0.1}})
        header, rows = sweep(config, [])
        assert (header, len(rows)) == (list(CAPACITY_SWEEP_OUTPUTS), 1)
        assert sweep(config) == (header, rows)  # the config has no axis either
        assert main(["capacity", "--gamma", "0.1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == rows_to_json(header, rows)

    def test_three_axes_rejected(self):
        axes = [SweepAxis(param=p, lo=0.1, hi=0.2, points=2) for p in ("q", "gamma", "stray_mean")]
        with pytest.raises(ConfigError) as info:
            sweep(config_from_dict({}), axes)
        assert info.value.violations == ["at most 2 sweep axes, got 3"]

    def test_unknown_parameter_rejected(self):
        config = config_from_dict({})
        with pytest.raises(ConfigError):
            sweep(config, [SweepAxis(param="altitude", lo=1.0, hi=2.0, points=2)])

    def test_the_sections_an_axis_sets_check_each_field_alone(self):
        # sweep validates each axis value once, which holds while no rule of these sections reads a second field.
        sections = {_FIELD_BY_KEY[param][0] for param in CAPACITY_SWEEP_PARAMS}
        assert sections == {"detector", "geometry", "operating"}
        for section in sections:
            cls = _SCHEMA[section][0]
            assert cls.__post_init__ is _check_fields, section
            assert all(isinstance(rule, str) for rule in cls._rules.values()), section
            assert list(cls._rules) == [f.name for f in dataclasses.fields(cls)], section

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis(param="gamma", lo=0.1, hi=0.5, points=1)
        with pytest.raises(ValueError):
            SweepAxis(param="gamma", lo=-1.0, hi=0.5, points=4, scale="log")
        with pytest.raises(ValueError):
            SweepAxis(param="gamma", lo=0.5, hi=0.1, points=4)

    @pytest.mark.parametrize(
        "section, param, lo, hi",
        [
            ("operating", "received_mean_photons", 1.0, 4.0),
            ("operating", "gamma", 0.05, 0.2),
            ("operating", "q", 0.3, 0.6),
            ("detector", "stray_mean", 1e-6, 1e-3),
            ("detector", "p_dark", 1e-8, 1e-6),
            ("geometry", "dist_bob_m", 1.0e6, 1.3e6),
            ("geometry", "exclusion_radius_m", 11.0, 14.0),
        ],
    )
    def test_each_parameter_reaches_its_field(self, section, param, lo, hi):
        base = {"operating": {"q": 0.5}}
        header, rows = sweep(config_from_dict(base), [SweepAxis(param=param, lo=lo, hi=hi, points=2)])
        for value, row in zip((lo, hi), rows):
            direct = config_from_dict({**base, section: {**base.get(section, {}), param: value}})
            point = private_capacity_fixed(
                direct.detector,
                direct.operating.received_mean_photons,
                resolved_gamma(direct),
                direct.operating.q,
            )
            assert row == [value, *capacity_row(astuple(point), direct.link.clock_rate)]

    def test_capacity_columns_are_the_point_fields_then_the_derived_ones(self):
        assert CAPACITY_SWEEP_OUTPUTS == (
            "gamma", "received_mean_photons", "q", "info_bob", "info_eve_helstrom", "holevo_eve",
            "private_capacity", "dw_rate", "epsilon_star", "phi_deg", "private_rate_bps", "dw_rate_bps",
        )

    def test_config_axes_on_one_parameter_rejected(self):
        config = config_from_dict({"sweep": [
            {"param": "q", "min": 0.1, "max": 0.2, "points": 2},
            {"param": "q", "min": 0.3, "max": 0.4, "points": 2},
        ]})
        with pytest.raises(ConfigError, match="both sweep axes set 'q'; the first would have no effect"):
            sweep(config)

    @pytest.mark.parametrize("param", ["dist_bob_m", "exclusion_radius_m"])
    def test_config_geometry_axis_under_fixed_gamma_rejected(self, param):
        config = config_from_dict({
            "operating": {"gamma": 0.1},
            "sweep": [{"param": param, "min": 11.0, "max": 12.0, "points": 2}],
        })
        with pytest.raises(ConfigError, match=f"sweep axis '{param}' has no effect"):
            sweep(config)

    def test_deterministic_output(self):
        config = config_from_dict({"operating": {"gamma": 0.1}})
        axis = SweepAxis(param="received_mean_photons", lo=0.5, hi=8.0, points=6, scale="log")
        outputs = []
        for _ in range(2):
            header, rows = sweep(config, [axis])
            buffer = io.StringIO()
            write_csv(buffer, header, rows)
            outputs.append(buffer.getvalue().encode())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_grid_pins_its_endpoints(self, scale):
        # Computed ends round: lo + (hi - lo) and 10 ** log10(hi) miss the
        # bounds on many of these axes, and a q axis ending at 1 - 2^-53 hit 1.
        rng = random.Random(f"endpoints:{scale}")
        for _ in range(500):
            lo = 10.0 ** rng.uniform(-9.0, 6.0)
            hi = lo * 10.0 ** rng.uniform(1e-6, 6.0)
            grid = SweepAxis(param="q", lo=lo, hi=hi, points=rng.randint(2, 40), scale=scale).grid()
            assert (grid[0], grid[-1]) == (lo, hi)
            assert grid == sorted(grid)


def test_grid_end_points_are_floats():
    # Library-built axes may take int bounds; the end cells print as the inner ones do.
    for axis in (SweepAxis("received_mean_photons", 1, 10**3, 3, "log"), SweepAxis("q", 0, 1, 5)):
        grid = axis.grid()
        assert all(type(v) is float for v in grid)
        assert (grid[0], grid[-1]) == (axis.lo, axis.hi)
    header, rows = sweep(config_from_dict({}), [SweepAxis("received_mean_photons", 1, 10**9, 3, "log")])
    buffer = io.StringIO()
    write_csv(buffer, header, rows)
    assert [line.split(",")[0] for line in buffer.getvalue().splitlines()[1:]] == ["1", "31622.7766", "1e+09"]


def _per_cell(config, axes):
    """The grid cell by cell: ``with_values``, ``resolved_gamma``, a one-cell
    ``secrecy_points`` and ``capacity_row``; the first cell that fails raises."""
    params = [axis.param for axis in axes]
    rows = []
    for values in itertools.product(*(axis.grid() for axis in axes)):
        cell = with_values(config, zip(params, values))
        detector = cell.detector
        (point,) = secrecy_points(cell.operating.received_mean_photons, resolved_gamma(cell),
                                  cell.operating.q, detector.p_dark, detector.eta_optical, detector.stray_mean)
        rows.append([*values, *capacity_row(astuple(point), cell.link.clock_rate)])
    return rows


# Valid ranges of each swept parameter: (lo, hi, scale).
_VALID_RANGES = {
    "received_mean_photons": (1e-3, 50.0, "log"),
    "gamma": (0.01, 0.6, "linear"),
    "q": (0.05, 0.95, "linear"),
    "stray_mean": (1e-7, 1e-2, "log"),
    "p_dark": (1e-9, 1e-5, "log"),
    "dist_bob_m": (0.9e6, 1.4e6, "linear"),  # derived gamma inside (0, 1)
    "exclusion_radius_m": (11.0, 30.0, "linear"),
}


def _seeded_axis(rng, param, points):
    lo, hi, scale = _VALID_RANGES[param]
    if scale == "log":
        a, b = sorted(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)) for _ in range(2))
    else:
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    return SweepAxis(param=param, lo=a, hi=b, points=points, scale=scale)


def _fails_alike(config, axes):
    """``sweep`` raises exactly what the cell-by-cell evaluation raises."""
    with pytest.raises(ConfigError) as expected:
        _per_cell(config, axes)
    with pytest.raises(ConfigError) as got:
        sweep(config, axes)
    assert got.value.violations == expected.value.violations
    (message,) = got.value.violations
    return message


_GEOMETRY = ("dist_bob_m", "exclusion_radius_m")
_AXIS_SETS = [(p,) for p in CAPACITY_SWEEP_PARAMS] + [
    pair for pair in itertools.permutations(CAPACITY_SWEEP_PARAMS, 2)
    if not ("gamma" in pair and set(pair) & set(_GEOMETRY))
]


class TestColumnSweep:
    """The sweep validates each axis value once and evaluates columns; its rows
    and its errors are those of the cell-by-cell evaluation, bit for bit."""

    @pytest.mark.parametrize("params", _AXIS_SETS, ids="-".join)
    def test_rows_equal_the_cell_by_cell_path(self, params):
        rng = random.Random(f"columns:{params}")
        for gamma, q in itertools.product((None, 0.2), (None, 0.3)):
            if gamma is not None and set(params) & set(_GEOMETRY):
                continue  # a geometry axis under a fixed degradation is rejected
            config = config_from_dict({"operating": {"gamma": gamma, "q": q}})
            axes = [_seeded_axis(rng, param, points) for param, points in zip(params, (3, 2))]
            header, rows = sweep(config, axes)
            assert header == [*params, *CAPACITY_SWEEP_OUTPUTS]
            assert repr(rows) == repr(_per_cell(config, axes))

    # An invalid range of each parameter: its first invalid value is the
    # grid's first (lower bounds) or a later one (upper bounds).
    _INVALID = {
        "received_mean_photons": SweepAxis("received_mean_photons", -2.0, 4.0, 4),
        "gamma": SweepAxis("gamma", 0.5, 1.5, 3),
        "q": SweepAxis("q", 0.5, 1.5, 3),
        "stray_mean": SweepAxis("stray_mean", -1e-3, 1e-3, 3),
        "p_dark": SweepAxis("p_dark", 0.5, 2.0, 3),
        "dist_bob_m": SweepAxis("dist_bob_m", -1e6, 2e6, 4),
        "exclusion_radius_m": SweepAxis("exclusion_radius_m", -10.0, 20.0, 4),
    }

    @pytest.mark.parametrize("param", CAPACITY_SWEEP_PARAMS)
    def test_invalid_value_on_either_axis(self, param):
        config = config_from_dict({})
        bad = self._INVALID[param]
        _fails_alike(config, [bad])
        for other in CAPACITY_SWEEP_PARAMS:
            if other == param or "gamma" in (param, other) and {param, other} & set(_GEOMETRY):
                continue
            good = _seeded_axis(random.Random(f"invalid:{param}:{other}"), other, 3)
            _fails_alike(config, [bad, good])
            _fails_alike(config, [good, bad])

    def test_derived_degradation_leaves_its_range_mid_grid(self):
        config = config_from_dict({})
        axis = SweepAxis("dist_bob_m", 1e6, 4e6, 4)  # 0.00104 at 1e6 m, 48.8 at 2e6 m
        message = _fails_alike(config, [axis])
        assert message.startswith("geometry yields degradation 48.82, outside [0, 1)")

    @pytest.mark.parametrize("outer, inner", [
        # The degradation fails at the first cell, before the first invalid value.
        (SweepAxis("exclusion_radius_m", 1.0, 30.0, 4), SweepAxis("q", 0.5, 1.5, 3)),
        (SweepAxis("q", 0.5, 1.5, 3), SweepAxis("exclusion_radius_m", 1.0, 30.0, 4)),
        # An invalid value at the first cell comes before its degradation.
        (SweepAxis("received_mean_photons", -1.0, 3.0, 3), SweepAxis("exclusion_radius_m", 1.0, 30.0, 4)),
        (SweepAxis("dist_bob_m", 1e6, 4e6, 4), SweepAxis("q", 0.5, 1.5, 3)),
    ])
    def test_degradation_and_invalid_values_in_row_major_order(self, outer, inner):
        _fails_alike(config_from_dict({}), [outer, inner])

    def test_two_invalid_values_in_one_section_are_joined(self):
        axes = [SweepAxis("gamma", 1.2, 1.5, 2), SweepAxis("q", 1.1, 1.3, 2)]
        message = _fails_alike(config_from_dict({}), axes)
        assert message == "gamma must be in [0, 1), got 1.2; q must be in (0, 1), got 1.1"

    @pytest.mark.parametrize("first, second", [("received_mean_photons", "stray_mean"),
                                               ("stray_mean", "received_mean_photons")])
    def test_two_invalid_values_in_two_sections(self, first, second):
        axes = [SweepAxis(first, -2.0, -1.0, 2), SweepAxis(second, -2.0, -1.0, 2)]
        message = _fails_alike(config_from_dict({}), axes)
        owner = "received_mean_photons" if first == "received_mean_photons" else "stray_mean"
        assert message == f"{owner} must be >= 0, got -2.0"

    def test_broken_invariant_is_not_a_config_error(self, monkeypatch):
        # A Holevo term far below the measured one puts dw_rate above the
        # private capacity in one cell.
        holevo = secrecy.holevo_bound

        def broken(s, q):
            chi = holevo(s, q).copy()
            chi[2] = -1.0
            return chi

        monkeypatch.setattr(secrecy, "holevo_bound", broken)
        axis = SweepAxis("received_mean_photons", 1.0, 4.0, 4)
        with pytest.raises(ValueError, match=r"^dw_rate .* exceeds private_capacity ") as caught:
            sweep(config_from_dict({}), [axis])
        assert not isinstance(caught.value, ConfigError)


class TestExclusionSweep:
    def test_gamma_axis(self):
        config = config_from_dict({})
        axis = SweepAxis(param="gamma_target", lo=0.05, hi=0.9, points=5, scale="log")
        header, rows = exclusion_sweep(config, axis)
        assert header == ["gamma_target", "radius_partial_m", "radius_total_m"]
        partials = [row[1] for row in rows]
        assert all(b < a for a, b in zip(partials, partials[1:]))

    def test_distance_axis_linear_scaling(self):
        config = config_from_dict({})
        axis = SweepAxis(param="dist_bob_m", lo=1e6, hi=2e6, points=2)
        _, rows = exclusion_sweep(config, axis)
        assert rows[1][1] == pytest.approx(2.0 * rows[0][1], rel=1e-9)

    def test_distance_axis_holds_gamma_target(self):
        config = config_from_dict({})
        axis = SweepAxis(param="dist_bob_m", lo=1e6, hi=2e6, points=2)
        _, loose = exclusion_sweep(config, axis, gamma_target=0.5)
        _, tight = exclusion_sweep(config, axis, gamma_target=0.1)
        assert all(a[1] < b[1] and a[2] < b[2] for a, b in zip(loose, tight, strict=True))
        assert exclusion_sweep(config, axis)[1] == tight

    @pytest.mark.parametrize("target", [None, 0.3])
    def test_no_axis_is_the_row_at_the_target(self, target):
        config = config_from_dict({})
        (row,) = radius_vs_gamma_curve(config.geometry, [0.1 if target is None else target])
        assert exclusion_sweep(config, gamma_target=target) == (
            ["gamma_target", "radius_partial_m", "radius_total_m"],
            [row],
        )

    def test_gamma_axis_rejects_a_target(self):
        axis = SweepAxis(param="gamma_target", lo=0.05, hi=0.5, points=3)
        with pytest.raises(ConfigError, match="gamma target 0.1 has no effect on a gamma_target axis"):
            exclusion_sweep(config_from_dict({}), axis, gamma_target=0.1)

    def test_rejects_capacity_parameter(self):
        config = config_from_dict({})
        with pytest.raises(ConfigError):
            exclusion_sweep(config, SweepAxis(param="q", lo=0.1, hi=0.5, points=3))

    def test_grid_size_capped(self):
        config = config_from_dict({})
        axis = SweepAxis(param="gamma_target", lo=0.01, hi=0.5, points=MAX_SWEEP_CELLS)
        assert len(exclusion_sweep(config, axis)[1]) == MAX_SWEEP_CELLS
        with pytest.raises(ConfigError, match=f"at most {MAX_SWEEP_CELLS} are allowed"):
            exclusion_sweep(config, replace(axis, points=MAX_SWEEP_CELLS + 1))


class TestWriters:
    def test_csv_is_rfc4180_style(self):
        buffer = io.StringIO()
        write_csv(buffer, ["a", "b"], [[1.0, 2.5], [3.0, 0.123456789123]])
        text = buffer.getvalue()
        assert text.startswith("a,b\r\n")
        assert "0.123456789" in text
        assert text.endswith("\r\n")

    def test_nine_significant_digits(self):
        buffer = io.StringIO()
        write_csv(buffer, ["x"], [[1.0 / 3.0]])
        assert "0.333333333" in buffer.getvalue()

    def test_json_rows(self):
        rows = rows_to_json(["a", "b"], [[1, 2]])
        assert rows == [{"a": 1, "b": 2}]


def _csv_module_lines(header, rows):
    """``csv.writer`` over the unquoted cell texts: the oracle of :func:`write_csv`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    for row in [header, *rows]:
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row])
    return buffer.getvalue()


_CELL_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t;\'') + ["\u00b5"]), max_size=6)
_CELL_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)
_CELL = st.one_of(_CELL_TEXT, _CELL_FLOAT, st.integers())


class TestCsvAgainstTheCsvModule:
    @given(
        header=st.lists(_CELL_TEXT, min_size=1, max_size=5),
        rows=st.lists(st.lists(_CELL, min_size=0, max_size=5), max_size=6),
    )
    def test_same_text_as_csv_writer(self, header, rows):
        buffer = io.StringIO()
        write_csv(buffer, header, rows)
        assert buffer.getvalue() == _csv_module_lines(header, rows)

    @pytest.mark.parametrize(
        "row",
        [[""], ["", ""], ["", "", ""], ["a,b", ""], ['say "hi"', 1.5], ["line\nbreak", "cr\r"], ['"'], [","],
         [math.nan, -0.0], [math.inf, -math.inf, 5e-324, 1e300], []],
    )
    def test_edge_rows(self, row):
        buffer = io.StringIO()
        write_csv(buffer, ["label", "x,y"], [row])
        assert buffer.getvalue() == _csv_module_lines(["label", "x,y"], [row])

    @pytest.mark.parametrize("kind", ["float", "float64"])
    def test_float_rows_format_each_cell_as_format_cell(self, kind):
        # Seeded bit patterns cover every exponent: subnormals, infinities and NaNs
        # among them; the corners are spelled out.
        bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000 - 6, dtype=np.uint64, endpoint=False)
        values = np.concatenate((bits.view(np.float64), [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]))
        rows = values.reshape(-1, 16)  # a 2-axis sweep row's width
        rows = rows.tolist() if kind == "float" else [list(row) for row in rows]
        assert all(type(v) is (float if kind == "float" else np.float64) for v in rows[0])
        buffer = io.StringIO()
        write_csv(buffer, ["h"], rows)
        assert buffer.getvalue() == "".join(",".join(map(format_cell, row)) + "\r\n" for row in [["h"], *rows])

    def test_float_rows_beside_other_rows(self):
        rows = [[1.5, 2.0], [1.5, 2_000_000_000], [True, 0.25], ['say "hi"', 1e9], [0.5], [0.5, 0.25, 0.125],
                [np.float64(1e-9), 3.0], [""], [], [1e300, np.float64(-0.0)], [1.0, ""]]
        buffer = io.StringIO()
        write_csv(buffer, [""], rows)
        assert buffer.getvalue() == _csv_module_lines([""], rows)
        assert buffer.getvalue().split("\r\n")[:4] == ['""', "1.5,2", "1.5,2000000000", "True,0.25"]

    def test_quoted_cells_read_back(self):
        cells = ["a,b", 'q"q', "x\ny", "x\r\ny", "", "plain"]
        buffer = io.StringIO()
        write_csv(buffer, cells, [cells])
        assert list(csv.reader(io.StringIO(buffer.getvalue(), newline=""))) == [cells, cells]
        assert [format_cell(c) for c in cells] == ['"a,b"', '"q""q"', '"x\ny"', '"x\r\ny"', "", "plain"]
