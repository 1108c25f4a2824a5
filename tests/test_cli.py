import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wiretap_space
from wiretap_space.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_optimize_photons(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--gamma", "0.1", "--optimize-photons", "--format", "json"
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["received_mean_photons"] == pytest.approx(4.0, abs=1.5)
        assert rows[0]["private_rate_bps"] == pytest.approx(680e6, abs=20e6)


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

    def test_unparseable_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, _ = run_cli(capsys, "capacity", "--config", str(path))
        assert code == EXIT_CONFIG

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, "linkbudget", "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        assert out_path.read_text().startswith("configuration,")


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

    def test_bad_axis_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--axis", "nonsense")
        assert code == EXIT_CONFIG

    def test_missing_axes_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep")
        assert code == EXIT_CONFIG


class TestExclusionCommand:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "exclusion", "--gamma-target", "0.1")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["radius_partial_m"]) == pytest.approx(12.2, abs=0.1)
        assert float(row["radius_total_m"]) > float(row["radius_partial_m"])

    def test_distance_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "exclusion", "--axis", "dist_bob_m:500000:36000000:4:log"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4

    def test_unreachable_target_exits_3(self, capsys):
        # degradation target so small the bisection bracket cannot contain it
        code, _, err = run_cli(capsys, "exclusion", "--gamma-target", "1e-300")
        assert code == EXIT_NUMERIC
        assert "numerical failure" in err


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

    def test_solve_gamma_reports_required_offset(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--format", "json", "--solve-gamma", "0.1")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert 12e3 <= summary["required_offset_m"] <= 20e3


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


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate costs about half a second of every CLI start.
    src = str(Path(wiretap_space.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, wiretap_space.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
