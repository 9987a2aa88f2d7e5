"""End-to-end tests of the command-line interface and its file outputs."""

from __future__ import annotations

import errno
import gc
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    plot_data_per_cell,
    records_csv_per_cell,
    records_json_per_cell,
    read_records_csv,
    reference_tuning_dips,
    sweep_records,
)
from tunedline import cli
from tunedline.cli import main
from tunedline.config import bundled_config_path, load_sweep_config
from tunedline.reporting import CSV_FIELDS, dips_report_json

RESONANT_CONFIG = """
[line]
L = 1.0 mH/km
C = 1.1111111111111112e-08 F/km
length = 500 km

[load]
kind = admittance
c_load = {c_load!r} F

[source]
voltage = 220 kV

[sweep]
f_start = 50 Hz
f_end = 1000 Hz
n_points = 951
model = lossless
""".format(c_load=1.0 / (300.0 * 2.0 * math.pi * 75.0))


# A 2000 km line far into its stopband: the exact model's cosh overflows
# at 2400 Hz, and the lossless pi-cascade(100) product overflows to
# inf/nan above 12500 Hz (its 12500 Hz row is still finite).
STOPBAND_CONFIG = """
[line]
r = {r} ohm/km
L = 5 mH/km
C = 50 nF/km
length = 2000 km

[load]
kind = admittance
g_load = 1 mS

[source]
voltage = 220 kV

[sweep]
f_start = {f_start} Hz
f_end = {f_end} Hz
n_points = 3
model = {model}
"""
# what each OVERFLOW_CASES run prints, formatted with its config file and frequency
FLOAT_RANGE_ERROR = "error: solution out of float range at f = {frequency} Hz\n"
OVERFLOW_CASES = [
    pytest.param(
        STOPBAND_CONFIG.format(r=500, f_start=2400, f_end=2500, model="exact"), 2400.0,
        FLOAT_RANGE_ERROR, id="exact",
    ),
    pytest.param(
        STOPBAND_CONFIG.format(r=0, f_start=12500, f_end=25000, model="pi-cascade(100)"),
        18750.0, FLOAT_RANGE_ERROR, id="pi-cascade",
    ),
    # 2*pi*f overflows to inf at 5e307 Hz, and math.cos(inf) raises ValueError
    pytest.param(
        STOPBAND_CONFIG.format(r=0, f_start=50, f_end=1e308, model="lossless"), 5e307,
        FLOAT_RANGE_ERROR, id="infinite-angle",
    ),
    # length / N rounds to 0 km (5e-324 / 2 == 0.0): a zero-length section
    # is no line, so the config is rejected before any point is solved
    pytest.param(
        bundled_config_path("experiment_500km").read_text()
        .replace("length = 500 km", "length = 5e-324 km")
        .replace("model = lossless", "model = pi-cascade(2)"),
        50.0,
        "error: {cfg_file}: length / pi_sections underflows to a zero-length section\n",
        id="section-length-underflow",
    ),
    # the tuned row's per-phase cells are finite (p_r = 7.5e307 W), and
    # its three-phase p_r*3 would overflow to an inf cell
    pytest.param(
        STOPBAND_CONFIG.replace("L = 5 mH/km", "L = 1.0 mH/km")
        .replace("C = 50 nF/km", "C = 1.1111111111111112e-08 F/km")
        .replace("length = 2000 km", "length = 500 km")
        .replace("g_load = 1 mS", "g_load = 1 S")
        .replace("voltage = 220 kV", "voltage = 1.5e154 V")
        .format(r=0, f_start=299, f_end=301, model="lossless"),
        300.0, FLOAT_RANGE_ERROR, id="three-phase-overflow",
    ),
]

# 1 followed by 400 zeros: an int that float() cannot hold
HUGE_INT = 10**400
# 1 followed by 5000 zeros: more digits than int() accepts (4300 by default)
TOO_MANY_DIGITS = "1" + "0" * 5000
# a key, section name or line of 3000 characters
LONG_NAME = "k" * 3000


class TestTuningCommand:
    def test_length_query_table(self, capsys):
        assert main(["tuning", "--length", "500"]) == 0
        out = capsys.readouterr().out
        assert "300" in out and "600" in out and "900" in out
        assert "Hz" in out

    def test_frequency_query_json(self, capsys):
        assert main(["tuning", "--frequency", "50", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in rows] == [3000.0, 6000.0, 9000.0]
        assert all(r["unit"] == "km" for r in rows)

    def test_csv_format(self, capsys):
        assert main(["tuning", "--length", "300", "--n-max", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,value_hz"
        assert lines[1].startswith("1,500") and lines[2].startswith("2,1000")

    def test_custom_velocity(self, capsys):
        assert main(["tuning", "--length", "500", "--velocity", "2.9e5",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] == pytest.approx(290.0, rel=1e-12)

    def test_mutually_exclusive_args(self, capsys):
        assert main(["tuning", "--length", "500", "--frequency", "50"]) == 2
        assert main(["tuning"]) == 2

    def test_invalid_length(self, capsys):
        assert main(["tuning", "--length", "-5"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["tuning", "--length", "0"]) == 2
        assert capsys.readouterr().err == "error: length must be positive\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--length", "1e-310", "--format", "json"],
             "tuning frequency for length 1e-310 km is out of float range"),
            (["--frequency", "1e-310", "--format", "csv"],
             "tuned length at frequency 1e-310 Hz is out of float range"),
        ],
    )
    def test_results_out_of_float_range_exit_2(self, capsys, argv, message):
        # n*v/(2x) overflows to inf, which JSON cannot carry and CSV would print as inf
        assert main(["tuning", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSolveCommand:
    def test_tuned_point_reports_zero_regulation(self, capsys):
        code = main(["solve", "--config", "experiment_500km", "--frequency", "300",
                     "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert abs(row["delta_v"]) < 1e-9
        assert row["vr_kv"] == pytest.approx(220.0, rel=1e-9)
        assert row["singular"] is False

    def test_quarter_wave_matches_phasor_oracle(self, capsys, tmp_path):
        # pure capacitive bank: strip the resistive component from the
        # bundled experiment and check against the frozen linear solve
        text = bundled_config_path("experiment_500km").read_text()
        cfg_file = tmp_path / "cap_only.ini"
        cfg_file.write_text(text.replace("rated_p = 100 MW\n", ""))
        code = main(["solve", "--config", str(cfg_file), "--frequency", "150",
                     "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        # from the oracle: vr = -68306.95..., ir = -j 423.39..., is = -j 227.69...
        assert row["vr_kv"] == pytest.approx(abs(-68306.95184812373) * math.sqrt(3) / 1e3, rel=1e-12)
        assert row["p_r_mw"] == pytest.approx(0.0, abs=1e-9)
        q_r = 3.0 * (-68306.95184812373) * 423.3901974057256 / 1e6
        assert row["q_r_mvar"] == pytest.approx(q_r, rel=1e-9)

    def test_text_output(self, capsys):
        assert main(["solve", "--config", "experiment_500km", "--frequency", "150"]) == 0
        out = capsys.readouterr().out
        assert "P_r" in out and "Q_line" in out and "delta_v" in out

    def test_out_file(self, capsys, tmp_path):
        report = tmp_path / "point.json"
        assert main(["solve", "--config", "experiment_500km", "--frequency", "150",
                     "--out", str(report)]) == 0
        row = json.loads(report.read_text())
        assert row["f_hz"] == 150.0

    def test_singular_point_exits_3(self, capsys, tmp_path):
        cfg_file = tmp_path / "resonant.ini"
        cfg_file.write_text(RESONANT_CONFIG)
        code = main(["solve", "--config", str(cfg_file), "--frequency", "75"])
        assert code == 3
        assert "singular" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg_file = tmp_path / "broken.ini"
        cfg_file.write_text("[line]\nL = banana\n")
        assert main(["solve", "--config", str(cfg_file), "--frequency", "50"]) == 2

    def test_missing_config_exits_2(self, capsys):
        assert main(["solve", "--config", "nope.ini", "--frequency", "50"]) == 2

    def test_path_beside_an_ini_file_is_not_a_bundled_name(self, capsys, tmp_path):
        # only <dir>/alt.ini exists, so <dir>/alt is neither a file nor a bundled name
        (tmp_path / "alt.ini").write_text(bundled_config_path("experiment_300km").read_text())
        config = str(tmp_path / "alt")
        assert main(["solve", "--config", config, "--frequency", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config ")
        assert "is neither a file nor a bundled config name" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("frequency", ["0", "-5", "nan", "inf"])
    def test_bad_frequency_exits_2(self, capsys, frequency):
        assert main(["solve", "--config", "experiment_500km", "--frequency", frequency]) == 2
        assert "frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("text, frequency, error", OVERFLOW_CASES)
    def test_overflow_exits_2(self, capsys, tmp_path, text, frequency, error):
        cfg_file = tmp_path / "stopband.ini"
        cfg_file.write_text(text)
        assert main(["solve", "--config", str(cfg_file), "--frequency", str(frequency)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == error.format(cfg_file=cfg_file, frequency=frequency)

    def test_solve_matches_sweep_row(self, capsys):
        # solve is a one-point sweep: its report is the sweep's CSV row
        cfg = load_sweep_config(bundled_config_path("experiment_500km"))
        assert main(["solve", "--config", "experiment_500km", "--frequency", "437",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (record,) = [r for r in sweep_records(cfg) if r.f_hz == 437.0]
        assert report == record._asdict()


class TestSweepCommand:
    def test_outputs_and_dips(self, capsys, tmp_path):
        out = tmp_path / "results"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 0
        assert (out / "records.csv").is_file()
        assert (out / "dips.json").is_file()
        assert (out / "manifest.json").is_file()
        dips = json.loads((out / "dips.json").read_text())
        matched = sorted(d["f_detected"] for d in dips if d["n_matched"] > 0)
        assert matched == [300.0, 600.0, 900.0]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert "T" in manifest["timestamp"]
        for path in manifest["outputs"]:
            assert (tmp_path / path).exists() or path.startswith(str(out))

    def test_manifest_key_order_and_timestamp(self, capsys, tmp_path):
        out = tmp_path / "results"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["config_digest", "tool_version", "timestamp", "outputs"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", manifest["timestamp"])

    def test_300km_dips(self, capsys, tmp_path):
        out = tmp_path / "results300"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 0
        dips = json.loads((out / "dips.json").read_text())
        matched = sorted((d["n_matched"], d["f_detected"]) for d in dips if d["n_matched"])
        assert matched == [(1, 500.0), (2, 1000.0)]

    def test_csv_round_trip_is_exact(self, capsys, tmp_path):
        out = tmp_path / "rt"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 0
        cfg = load_sweep_config(bundled_config_path("experiment_500km"))
        assert read_records_csv(out / "records.csv") == sweep_records(cfg)

    @pytest.mark.parametrize("name", ["experiment_500km", "experiment_300km"])
    def test_bundled_records_csv_match_golden_hashes(self, capsys, tmp_path, name):
        golden_file = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        golden = json.loads(golden_file.read_text())[name]["records_csv_sha256"]
        out = tmp_path / name
        assert main(["sweep", "--config", name, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "records.csv").read_bytes()).hexdigest() == golden

    def test_byte_identical_reruns(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 0
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_digest_stable_and_config_sensitive(self, capsys, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["sweep", "--config", "experiment_500km", "--out", str(out)])
            digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
        assert digests[0] == digests[1]
        out300 = tmp_path / "c"
        main(["sweep", "--config", "experiment_300km", "--out", str(out300)])
        other = json.loads((out300 / "manifest.json").read_text())["config_digest"]
        assert other != digests[0]

    def test_json_format_and_plot_data(self, capsys, tmp_path):
        out = tmp_path / "full"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0
        rows = json.loads((out / "records.json").read_text())
        assert len(rows) == 951
        for quantity in ("p_r_mw", "q_r_mvar", "q_line_mvar"):
            dat = (out / f"{quantity}.dat").read_text().splitlines()
            assert dat[0].startswith("#")
            assert len(dat) == 952
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 6

    def test_singular_points_kept_in_csv(self, capsys, tmp_path):
        cfg_file = tmp_path / "resonant.ini"
        cfg_file.write_text(RESONANT_CONFIG)
        out = tmp_path / "res"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        rows = read_records_csv(out / "records.csv")
        singular = [r for r in rows if r[7]]
        assert [r[0] for r in singular] == [75.0]
        _, p_r_mw, q_r_mvar, q_line_mvar, vs_kv, vr_kv, delta_v, _ = singular[0]
        assert p_r_mw is None and q_r_mvar is None and q_line_mvar is None
        assert vr_kv is None and delta_v is None
        assert vs_kv == pytest.approx(220.0, rel=1e-12)

    def test_json_format_and_plot_data_with_singular_row(self, capsys, tmp_path):
        cfg_file = tmp_path / "resonant.ini"
        cfg_file.write_text(RESONANT_CONFIG)
        out = tmp_path / "res"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0
        rows = read_records_csv(out / "records.csv")
        records = json.loads((out / "records.json").read_text())
        assert all(list(r) == list(CSV_FIELDS) for r in records)
        assert [tuple(r.values()) for r in records] == rows
        (singular,) = [r for r in records if r["singular"]]
        assert singular["f_hz"] == 75.0
        assert [k for k, v in singular.items() if v is None] == [
            "p_r_mw", "q_r_mvar", "q_line_mvar", "vr_kv", "delta_v"
        ]
        for quantity in ("p_r_mw", "q_r_mvar", "q_line_mvar"):
            dat = (out / f"{quantity}.dat").read_text().splitlines()
            assert dat[0] == f"# f_hz {quantity}"
            assert len(dat) == 1 + 951 - 1
            assert 75.0 not in [float(line.split()[0]) for line in dat[1:]]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("voltage = 220 kV", "voltage = nan kV"),
            ("voltage = 220 kV", "voltage = inf kV"),
            ("rated_p = 100 MW", "rated_p = nan MW"),
            ("f_end = 1000 Hz", "f_end = inf Hz"),
            # ints beyond the float range, and an L*C that underflows to 0
            pytest.param("n_points = 951", f"n_points = {HUGE_INT}", id="n_points-huge"),
            pytest.param("model = lossless", f"model = pi-cascade({HUGE_INT})",
                         id="pi_sections-huge"),
            pytest.param("L = 1.0 mH/km\ng = 0 S/km\nC = 1.1111111111111112e-08 F/km",
                         "L = 1e-200 H/km\ng = 0 S/km\nC = 1e-200 F/km", id="LC-underflow"),
            # ints int() refuses to read: the error names the file and the
            # digit count instead of echoing 5001 digits
            pytest.param("n_points = 951", f"n_points = {TOO_MANY_DIGITS}",
                         id="n_points-5001-digits"),
            pytest.param("model = lossless", f"model = pi-cascade({TOO_MANY_DIGITS})",
                         id="pi_sections-5001-digits"),
            # text configparser reads, or cannot: names and lines are echoed
            # cut short, on one line
            pytest.param("length = 500 km", f"length = 500 km\n{LONG_NAME} = 1",
                         id="unknown-key-3000-characters"),
            pytest.param("[source]", f"[{LONG_NAME}]\nx = 1\n\n[source]",
                         id="unknown-section-3000-characters"),
            pytest.param("length = 500 km", f"length = 500 km\n{LONG_NAME} = 1\n{LONG_NAME} = 2",
                         id="duplicate-key-3000-characters"),
            pytest.param("[line]", f"{LONG_NAME}\n[line]", id="line-before-first-header"),
            pytest.param("[source]", "[source]\njunk without equals", id="line-without-equals"),
            pytest.param("[source]", "[source]\n  indented continuation",
                         id="indented-line-after-header"),
        ],
    )
    def test_non_finite_input_exits_2_without_output(self, capsys, tmp_path, old, new):
        text = bundled_config_path("experiment_500km").read_text()
        assert old in text
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(text.replace(old, new))
        out = tmp_path / "out"
        for argv in (["sweep", "--out", str(out)], ["solve", "--frequency", "300"]):
            assert main([*argv, "--config", str(cfg_file)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {cfg_file}: ")
            assert captured.err.count("\n") == 1
            assert len(captured.err) < len(f"error: {cfg_file}: ") + 150
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        # one name past the file-name limit, and a path of short components
        [LONG_NAME, "a/" * 1497 + "xx.ini"],
        ids=["name-3000-characters", "path-3000-characters"],
    )
    def test_overlong_config_argument_exits_2_without_output(self, capsys, tmp_path, config):
        assert len(config) == 3000
        out = tmp_path / "out"
        for argv in (["sweep", "--out", str(out)], ["solve", "--frequency", "300"]):
            assert main([*argv, "--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: config ")
            assert captured.err.count("\n") == 1
            assert len(captured.err.encode()) < 200
        assert not out.exists()

    def test_non_utf8_config_exits_2_naming_the_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "bom.ini"
        cfg_file.write_bytes(b"\xff\xfe" + bundled_config_path("experiment_500km").read_bytes())
        out = tmp_path / "out"
        for argv in (["sweep", "--out", str(out)], ["solve", "--frequency", "300"]):
            assert main([*argv, "--config", str(cfg_file)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert str(cfg_file) in captured.err
            assert captured.err.count("\n") == 1
            assert len(captured.err) < len(f"error: {cfg_file}: ") + 150
        assert not out.exists()

    @pytest.mark.parametrize("text, frequency, error", OVERFLOW_CASES)
    def test_overflow_exits_2_without_output(self, capsys, tmp_path, text, frequency, error):
        cfg_file = tmp_path / "stopband.ini"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "tunedline", "sweep", "--config", str(cfg_file),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == error.format(cfg_file=cfg_file, frequency=frequency)
        assert not (out / "records.csv").exists()

    def test_degenerate_grid_exits_2_without_output(self, capsys, tmp_path):
        text = bundled_config_path("experiment_500km").read_text()
        cfg_file = tmp_path / "degenerate.ini"
        cfg_file.write_text(text.replace("f_end = 1000 Hz", "f_end = 50.000000000001 Hz"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "ulp(f_end)" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "rated_v, rated_p",
        [
            ("0 kV", "rated_p = 100 MW"),  # rated_p / 0
            ("1e-200 V", "rated_p = 100 MW"),  # rated_v**2 underflows to 0
            ("1e200 V", "rated_p = 100 MW"),  # rated_v**2 overflows
            ("1e200 V", ""),  # rated_v**2 overflows in the capacitor sizing
            ("1e154 V", "rated_p = 100 MW"),  # 2*pi*f*rated_v**2 overflows: C = 0
            ("1e154 V", ""),  # 2*pi*f*rated_v**2 overflows: C = 0
        ],
    )
    def test_out_of_range_rating_exits_2_without_output(self, capsys, tmp_path, rated_v,
                                                        rated_p):
        text = bundled_config_path("experiment_500km").read_text()
        assert "rated_v = 220 kV" in text and "rated_p = 100 MW" in text
        cfg_file = tmp_path / "rating.ini"
        cfg_file.write_text(
            text.replace("rated_v = 220 kV", f"rated_v = {rated_v}")
            .replace("rated_p = 100 MW", rated_p)
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: [load]: ratings give a load out of float range\n"
        )
        assert not out.exists()

    def test_zero_pi_sections_exits_2_without_output(self, capsys, tmp_path):
        text = bundled_config_path("experiment_500km").read_text()
        cfg_file = tmp_path / "pi0.ini"
        cfg_file.write_text(text.replace("model = lossless", "model = pi-cascade(0)"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: pi_sections must be at least 1\n"
        )
        assert not out.exists()

    def test_two_points_write_rows_and_no_dips(self, capsys, tmp_path):
        # fewer than 3 usable rows: no dip can be located, and that is not an error
        text = bundled_config_path("experiment_500km").read_text()
        cfg_file = tmp_path / "two.ini"
        cfg_file.write_text(text.replace("n_points = 951", "n_points = 2"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert [row[0] for row in read_records_csv(out / "records.csv")] == [50.0, 1000.0]
        assert json.loads((out / "dips.json").read_text()) == []
        assert "tuning dips: 0 matched, 0 unmatched" in capsys.readouterr().out

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["sweep", "--config", "experiment_500km",
                     "--out", str(blocker / "sub")])
        assert code == 4
        assert "error" in capsys.readouterr().err

    def test_no_clean_partial_files_on_failure(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        main(["sweep", "--config", "experiment_500km", "--out", str(blocker / "sub")])
        leftovers = [p for p in tmp_path.rglob("*") if p != blocker]
        assert all(p.name.endswith(".partial") for p in leftovers)


class _FullDisk:
    """A file handle whose writes fail as on a full disk."""

    def write(self, text: str) -> None:
        raise OSError(errno.ENOSPC, "No space left on device")


class TestSweepOutputSet:
    """Each `sweep` run leaves one output set in its directory, or none."""

    def test_second_run_leaves_only_its_own_outputs(self, capsys, tmp_path):
        # the 500 km run's records.json and plot files would mix its dips
        # into the 300 km run's directory
        out = tmp_path / "out"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "records.csv"), str(out / "dips.json")]
        assert sorted(p.name for p in out.iterdir()) == ["dips.json", "manifest.json",
                                                         "records.csv"]
        fresh = tmp_path / "fresh"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(fresh)]) == 0
        for name in ("records.csv", "dips.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_other_files_in_the_directory_are_kept(self, capsys, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("notes.txt", "records.json.bak", "v_r.dat"):
            (out / name).write_text(name)
        (out / "plots").mkdir()
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "dips.json", "manifest.json", "notes.txt", "plots", "records.csv",
            "records.json.bak", "v_r.dat",
        ]
        assert (out / "v_r.dat").read_text() == "v_r.dat"

    @pytest.mark.parametrize("failing", ["records.csv", "dips.json", "manifest.json"])
    def test_failed_write_leaves_previous_run_unchanged(self, monkeypatch, capsys, tmp_path,
                                                        failing):
        out = tmp_path / "out"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_open_atomic = cli.open_atomic

        @contextmanager
        def open_atomic(path):
            with real_open_atomic(path) as fh:
                yield _FullDisk() if Path(path).name == failing else fh

        monkeypatch.setattr(cli, "open_atomic", open_atomic)
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 28] No space left on device\n"
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def grid_config(tmp_path, text: str, f_start: float, f_end: float, n_points: int):
    """text (a config on the bundled 50-1000 Hz, 951-point grid) on another grid."""
    for line in ("f_start = 50 Hz", "f_end = 1000 Hz", "n_points = 951"):
        assert line in text
    path = tmp_path / f"grid-{f_start!r}-{f_end!r}-{n_points}.ini"
    path.write_text(
        text.replace("f_start = 50 Hz", f"f_start = {f_start!r} Hz")
        .replace("f_end = 1000 Hz", f"f_end = {f_end!r} Hz")
        .replace("n_points = 951", f"n_points = {n_points}")
    )
    return path


class TestSweepStreaming:
    """`sweep` with CHUNK_POINTS set small, so every file spans many chunks."""

    CHUNKS = [1, 2, 3, 7]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("config", ["experiment_500km", "experiment_300km", "resonant"])
    def test_outputs_equal_whole_list_formatters(self, monkeypatch, capsys, tmp_path,
                                                 config, chunk):
        if config == "resonant":
            path = tmp_path / "resonant.ini"
            path.write_text(RESONANT_CONFIG)
        else:
            path = bundled_config_path(config)
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0

        cfg = load_sweep_config(path)
        records = sweep_records(cfg)
        expected = {
            "records.csv": records_csv_per_cell(records),
            "records.json": records_json_per_cell(records),
            "dips.json": dips_report_json(
                reference_tuning_dips(records, cfg.length, cfg.line.velocity)
            ),
            **{f"{q}.dat": text for q, text in plot_data_per_cell(records).items()},
        }
        assert any(r.singular for r in records) == (config == "resonant")
        assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "manifest.json"])
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode(), name

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("position", range(16))
    @pytest.mark.parametrize("f_center", [300.0, 75.0])
    def test_dips_on_chunk_boundaries(self, monkeypatch, capsys, tmp_path, chunk, position,
                                      f_center):
        # 16 points 1 Hz apart with f_center at index `position`: the 500 km
        # line's n=1 dip at 300 Hz, or the resonant config's singular row at
        # 75 Hz, lands first, last and inside a chunk, and on the sweep edges
        text = (bundled_config_path("experiment_500km").read_text() if f_center == 300.0
                else RESONANT_CONFIG)
        f_start = f_center - position
        config = grid_config(tmp_path, text, f_start, f_start + 15.0, 16)
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0

        cfg = load_sweep_config(config)
        records = sweep_records(cfg)
        assert records[position].f_hz == f_center
        assert records[position].singular == (f_center == 75.0)
        dips = reference_tuning_dips(records, cfg.length, cfg.line.velocity)
        if f_center == 300.0:
            assert (300.0, 1) in [(d.f_detected, d.n_matched) for d in dips]
        assert (out / "dips.json").read_text() == dips_report_json(dips)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_overflow_in_later_chunk_leaves_no_records(self, monkeypatch, capsys, tmp_path,
                                                       chunk):
        # 100..2500 Hz in 100 Hz steps: rows up to 1700 Hz are finite, so with
        # chunks of 7 or fewer the overflow comes after whole chunks were written
        cfg_file = tmp_path / "stopband.ini"
        cfg_file.write_text(
            STOPBAND_CONFIG.format(r=500, f_start=100, f_end=2500, model="exact")
            .replace("n_points = 3", "n_points = 25")
        )
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--format", "json", "--plot-data"]) == 2
        assert capsys.readouterr().err == (
            "error: solution out of float range at f = 1800.0 Hz\n"
        )
        assert list(out.iterdir()) == []

    def test_peak_memory_does_not_grow_with_n_points(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "CHUNK_POINTS", 256)
        text = bundled_config_path("experiment_500km").read_text()

        def peak_bytes(n_points: int) -> int:
            config = grid_config(tmp_path, text, 50.0, 1000.0, n_points)
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["sweep", "--config", str(config), "--out",
                             str(tmp_path / f"out-{n_points}"), "--format", "json",
                             "--plot-data"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(600)  # warm-up over three chunks: lazy imports and first-use caches
        small, large = peak_bytes(4_000), peak_bytes(40_000)
        assert large <= 1.5 * small, (small, large)


# decades by which extreme_config_texts scales each value: mostly a few,
# often hundreds, so that products and quotients leave the float range
decades = st.integers(min_value=-3, max_value=3) | st.integers(min_value=-330, max_value=330)
huge_ints = st.integers(min_value=1, max_value=400).map(lambda k: 10**k)


@st.composite
def scaled(draw, base: float) -> str:
    """base (a realistic value in base units) times 10**k, as config text."""
    mantissa, exponent = f"{base:e}".split("e")
    return f"{mantissa}e{int(exponent) + draw(decades)}"


@st.composite
def extreme_config_texts(draw) -> str:
    """Config text the parser accepts, each number a bundled value scaled by 10**k.

    A value that leaves the float range in the text itself (1e-400 reads
    as 0, 1e400 as inf) is left in: the parser accepts it, validation
    then decides.
    """
    model = draw(st.sampled_from(["lossless", "exact", "pi-cascade"])
                 | (st.integers(min_value=1, max_value=1000) | huge_ints).map(
                     lambda n: f"pi-cascade({n})"))
    lossy = model != "lossless" and draw(st.booleans())
    r, g = (draw(scaled(0.03)), draw(scaled(5e-9))) if lossy else ("0", "0")
    kind = draw(st.sampled_from(["admittance", "fixed-capacitance-rated", "impedance"]))
    c_load = draw(st.just("0") | scaled(6e-6))
    if kind == "admittance":
        load = f"g_load = {draw(st.just('0') | scaled(2e-3))}\nc_load = {c_load}"
    elif kind == "impedance":
        load = f"resistance = {draw(scaled(484.0))}\nc_load = {c_load}"
    else:
        load = (f"rated_q = {draw(scaled(1e8))}\nrated_v = {draw(scaled(220e3))}\n"
                f"rated_f = {draw(scaled(50.0))}\n"
                + draw(st.just("") | scaled(1e8).map(lambda p: f"rated_p = {p}\n")))
    f_start, f_end = sorted([float(draw(scaled(50.0))), float(draw(scaled(1000.0)))])
    n_points = draw(st.integers(min_value=2, max_value=10) | huge_ints)
    return (
        f"[line]\nr = {r}\nL = {draw(scaled(1e-3))}\ng = {g}\nC = {draw(scaled(1e-8))}\n"
        f"length = {draw(scaled(500.0))}\n\n[load]\nkind = {kind}\n{load}\n\n"
        f"[source]\nvoltage = {draw(scaled(220e3))}\n\n"
        f"[sweep]\nf_start = {f_start!r}\nf_end = {f_end!r}\nn_points = {n_points}\n"
        f"model = {model}\n"
    )


@given(text=extreme_config_texts(), frequency=scaled(300.0))
@settings(max_examples=300, deadline=None)
def test_property_solve_extreme_configs_exit_0_with_finite_cells_or_one_error_line(
    tmp_path_factory, text, frequency
):
    cfg_file = tmp_path_factory.mktemp("extreme") / "extreme.ini"
    cfg_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", "--config", str(cfg_file), "--frequency", frequency,
                     "--format", "json"])
    if code == 0:
        row = json.loads(out.getvalue())
        assert row["singular"] is False
        assert all(math.isfinite(row[key]) for key in CSV_FIELDS[:7]), row
        assert err.getvalue() == ""
    else:
        # 2: rejected config, frequency or float range; 3: a singular point
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tunedline", "tuning", "--length", "500", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,300"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
