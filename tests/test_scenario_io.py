import io
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from wiretap_space.scenario_io import (
    _SCHEMA,
    MAX_SWEEP_CELLS,
    ConfigError,
    SweepAxis,
    capacity_row,
    config_from_dict,
    config_to_dict,
    emit_table1,
    exclusion_sweep,
    load_config,
    preset_config,
    resolved_gamma,
    rows_to_json,
    sweep,
    with_values,
    write_csv,
)
from wiretap_space.secrecy import private_capacity_fixed


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
        rows = re.findall(r"^\| `([^`]+)` \| [^|]* \| ([^|]*) \|", section, flags=re.MULTILINE)
        keys = ["label"] + [
            f"{name}.{f.key}" for name, (_, fields) in _SCHEMA.items() for f in fields
        ] + ["sweep"]
        assert [field for field, _ in rows] == keys
        resolved = config_to_dict(config_from_dict({}))
        for field, cell in rows:
            default = resolved
            for part in field.split("."):
                default = default[part]
            text = cell.strip().strip("`")
            assert (text if field == "label" else json.loads(text)) == default, field

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

    def test_presets(self):
        assert preset_config("micius-meo").geometry.dist_bob == pytest.approx(1e7)
        assert preset_config("micius-geo").geometry.exclusion_radius == pytest.approx(340.0)
        with pytest.raises(ConfigError):
            preset_config("micius-heo")

    def test_round_trip_through_dict(self):
        config = preset_config("micius-geo")
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

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
        rows = emit_table1()
        by_label = {row.configuration: row for row in rows}
        leo = by_label["micius-leo"]
        assert leo.channel_loss_db == pytest.approx(22.0, abs=0.5)
        assert leo.plob_rate_bps == pytest.approx(10e6, rel=0.5)
        assert leo.exclusion_radius_m == pytest.approx(12.2, abs=0.6)
        assert leo.private_rate_bps == pytest.approx(680e6, abs=20e6)
        meo = by_label["micius-meo"]
        assert meo.channel_loss_db == pytest.approx(40.0, abs=0.1)
        assert meo.exclusion_radius_m == pytest.approx(102.0, abs=5.0)
        assert meo.private_rate_bps == pytest.approx(680e6, abs=20e6)
        geo = by_label["micius-geo"]
        assert abs(geo.exclusion_radius_m - 340.0) / 340.0 < 0.10
        assert geo.private_rate_bps == pytest.approx(680e6, abs=20e6)


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

    def test_unknown_parameter_rejected(self):
        config = config_from_dict({})
        with pytest.raises(ConfigError):
            sweep(config, [SweepAxis(param="altitude", lo=1.0, hi=2.0, points=2)])

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
            assert row == [value, *capacity_row(point, direct.link.clock_rate)]

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
