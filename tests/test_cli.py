"""End-to-end tests of the command-line interface and its file outputs."""

from __future__ import annotations

import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bad_configs import BY_ID, LONG_NAME, ROWS, SPELLINGS, BadConfig, edited, load_edit
from conftest import (
    plot_data_per_cell,
    records_csv_per_cell,
    records_json_per_cell,
    read_records_csv,
    reference_tuning_dips,
    sweep_records,
)
from tunedline import __version__, cli, reporting
from tunedline.cli import main
from tunedline.config import bundled_config_path, load_sweep_config
from tunedline.reporting import CSV_FIELDS, config_digest, dips_report_json
from tunedline.sweep import SweepRecord, summarize

RESONANT_LOAD = load_edit(f"kind = admittance\nc_load = {1.0 / (300.0 * 2.0 * math.pi * 75.0)!r} F")
# the configs whose sweep outputs pinned_outputs.json pins: edits of the bundled text
PINNED_CONFIGS = {
    "resonant-lossless": [RESONANT_LOAD],
    "resonant-exact": [RESONANT_LOAD, (r"^model = .*", "model = exact")],
    "resonant-pi-cascade-37": [RESONANT_LOAD, (r"^model = .*", "model = pi-cascade(37)")],
    "two-points": [(r"^n_points = .*", "n_points = 2")],
    # three chunks of CHUNK_POINTS = 4096 records; the 75 Hz singular row opens the second
    "resonant-exact-8193": [RESONANT_LOAD, (r"^model = .*", "model = exact"),
                            (r"^f_end = .*", "f_end = 100 Hz"),
                            (r"^n_points = .*", "n_points = 8193")],
    # the shape of perfbench's sweep-exact-lossy workload
    "lossy-exact": [(r"^r = .*", "r = 0.03 ohm/km"), (r"^g = .*", "g = 5 nS/km"),
                    (r"^model = .*", "model = exact")],
    # the shape of perfbench's pi-cascade workload
    "lossy-pi-cascade-1000": [(r"^r = .*", "r = 0.03 ohm/km"), (r"^g = .*", "g = 5 nS/km"),
                              (r"^n_points = .*", "n_points = 201"),
                              (r"^model = .*", "model = pi-cascade(1000)")],
}
PINNED_OUTPUTS = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())
# the bundled 500 km line loaded by a pure capacitor that resonates with it at 75 Hz
RESONANT_CONFIG = edited(PINNED_CONFIGS["resonant-lossless"])
# The sweeps that fail part-way, and one config whose pi section rounds to
# 0 km, run one command per test: solve in
# TestSolveCommand::test_overflow_exits_2, sweep in
# TestSweepCommand::test_overflow_exits_2_without_output.
# test_rejected_spelling_exits_2_naming_the_key runs every other row.
FLOAT_RANGE_IDS = ["exact", "pi-cascade", "infinite-angle", "section-length-underflow",
                   "three-phase-overflow", "exact-later-chunk", "harmonic-index-overflow"]
FLOAT_RANGE_ROWS = [pytest.param(BY_ID[i], id=i) for i in FLOAT_RANGE_IDS]


def assert_cli_rejects(capsys, tmp_path, row: BadConfig, commands=("sweep", "solve")) -> None:
    """`sweep` and `solve` on row's config exit 2 with row's error line
    and no stdout.  A config error leaves no output directory; a sweep that
    fails part-way leaves an empty one, also in a process of its own."""
    cfg_file = row.write(tmp_path / "bad.ini")
    error = row.stderr(cfg_file)
    assert len(error) < len(f"error: {cfg_file}: ") + 150
    out = tmp_path / "out"
    argv = {"sweep": ["sweep", "--out", str(out), "--format", "json", "--plot-data"],
            "solve": ["solve", "--frequency", repr(row.frequency)]}
    for command in commands:
        assert main([*argv[command], "--config", str(cfg_file)]) == 2
        assert capsys.readouterr() == ("", error)
    if row.parser_rejects or "sweep" not in commands:
        assert not out.exists()
        return
    assert list(out.iterdir()) == []
    proc = subprocess.run([sys.executable, "-m", "tunedline", *argv["sweep"], "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)
    assert list(out.iterdir()) == []


# main() calls that reset what an earlier call set: the tuning group and its
# --n-max/--format defaults, an argparse error, and sweep's --format/--plot-data
REPEATED_CALLS = [
    ["tuning", "--length", "500", "--n-max", "2", "--format", "csv"],
    ["tuning", "--frequency", "50"],
    ["tuning", "--length", "500", "--frequency", "50"],
    ["tuning"],
    ["--version"],
    ["sweep", "--help"],
    ["sweep", "--config", "experiment_300km", "--out", "json", "--format", "json", "--plot-data"],
    ["sweep", "--config", "experiment_300km", "--out", "plain"],
    ["solve", "--config", "experiment_500km", "--frequency", "300"],
]


def test_repeated_main_calls_match_calls_with_a_fresh_parser(capsys, monkeypatch, tmp_path):
    def run(root: Path, fresh: bool) -> tuple[list, dict]:
        root.mkdir()
        monkeypatch.chdir(root)
        results = []
        for argv in REPEATED_CALLS:
            if fresh:
                cli.build_parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        # manifest.json holds a timestamp; every other file must be byte-identical
        files = {str(path.relative_to(root)): path.read_bytes()
                 for path in sorted(root.rglob("*"))
                 if path.is_file() and path.name != "manifest.json"}
        return results, files

    cli.build_parser.cache_clear()
    reused = run(tmp_path / "reused", fresh=False)
    parser = cli.build_parser()
    assert run(tmp_path / "fresh", fresh=True) == reused
    assert cli.build_parser() is not parser
    results, files = reused
    assert [code for code, _, _ in results] == [0, 0, 2, 2, 0, 0, 0, 0, 0]
    assert results[1][1].startswith("# tuned lengths at 50.0 Hz")
    assert results[2][2].endswith(
        "error: argument --frequency: not allowed with argument --length\n")
    assert results[3][2].endswith(
        "error: one of the arguments --length --frequency is required\n")
    assert sorted(name for name in files if name.startswith("plain/")) == [
        "plain/dips.json", "plain/records.csv"]
    assert files["plain/records.csv"] == files["json/records.csv"]


class TestTuningCommand:
    def test_length_query_table(self, capsys):
        assert main(["tuning", "--length", "500"]) == 0
        out = capsys.readouterr().out
        assert "300" in out and "600" in out and "900" in out
        assert "Hz" in out
        # the inputs round-trip, so distinct inputs print distinct headers
        assert main(["tuning", "--length", "500.0001", "--velocity", "299792.458"]) == 0
        assert capsys.readouterr().out.startswith(
            "# tuning frequencies for a 500.0001 km line (v = 299792.458 km/s)\n")

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

    @pytest.mark.parametrize("n_max", ["1001", "1" + "0" * 400])
    @pytest.mark.parametrize("query", [["--length", "500"], ["--frequency", "50"]])
    def test_n_max_above_bound_exits_2_before_solving(self, capsys, monkeypatch, n_max, query):
        def build(*args):
            raise AssertionError("solutions built for an --n-max above the bound")

        monkeypatch.setattr(cli, "tuning_frequencies", build)
        monkeypatch.setattr(cli, "tuned_lengths", build)
        assert main(["tuning", *query, "--n-max", n_max, "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "error: --n-max must be at most 1000\n")

    def test_n_max_at_bound(self, capsys):
        assert main(["tuning", "--length", "500", "--n-max", "1000", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == list(range(1, 1001))
        assert rows[-1]["value"] == 300000.0


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

    def test_text_output(self, capsys, tmp_path):
        assert main(["solve", "--config", "experiment_500km", "--frequency", "150"]) == 0
        out = capsys.readouterr().out
        assert "P_r" in out and "Q_line" in out and "delta_v" in out
        assert "\nmodel    = lossless, length = 500.0 km\n" in out
        # the frequency round-trips, so distinct points print distinct frequencies
        assert main(["solve", "--config", "experiment_500km", "--frequency", "300.0001"]) == 0
        assert capsys.readouterr().out.startswith("f        = 300.0001 Hz\n")
        # and so does the length
        cfg_file = tmp_path / "longer.ini"
        cfg_file.write_text(edited([(r"^length = .*", "length = 500.0001 km")]))
        assert main(["solve", "--config", str(cfg_file), "--frequency", "150"]) == 0
        assert "\nmodel    = lossless, length = 500.0001 km\n" in capsys.readouterr().out
        # the result depends on N, so the report names it
        cfg_file = tmp_path / "pi37.ini"
        cfg_file.write_text(edited([(r"^model = .*", "model = pi-cascade(37)")]))
        assert main(["solve", "--config", str(cfg_file), "--frequency", "150"]) == 0
        assert "\nmodel    = pi-cascade(37), length = 500.0 km\n" in capsys.readouterr().out

    def test_out_file(self, capsys, tmp_path):
        report = tmp_path / "point.json"
        assert main(["solve", "--config", "experiment_500km", "--frequency", "150",
                     "--out", str(report)]) == 0
        row = json.loads(report.read_text())
        assert row["f_hz"] == 150.0

    def test_out_directory_exits_4_before_printing(self, capsys, tmp_path):
        report = tmp_path / "report"
        report.mkdir()
        assert main(["solve", "--config", "experiment_500km", "--frequency", "150",
                     "--out", str(report)]) == 4
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{report}.partial' -> '{report}'\n"
        )
        assert list(tmp_path.iterdir()) == [report]
        assert list(report.iterdir()) == []

    def test_singular_point_exits_3(self, capsys, tmp_path):
        cfg_file = tmp_path / "resonant.ini"
        cfg_file.write_text(RESONANT_CONFIG)
        code = main(["solve", "--config", str(cfg_file), "--frequency", "75"])
        assert code == 3
        assert "singular" in capsys.readouterr().err

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

    @pytest.mark.parametrize("row", FLOAT_RANGE_ROWS)
    def test_overflow_exits_2(self, capsys, tmp_path, row):
        assert_cli_rejects(capsys, tmp_path, row, ["solve"])

    def test_solve_matches_sweep_row(self, capsys):
        # solve is a one-point sweep: its report is the sweep's CSV row
        cfg = load_sweep_config(bundled_config_path("experiment_500km"))
        assert main(["solve", "--config", "experiment_500km", "--frequency", "437",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (record,) = [r for r in sweep_records(cfg) if r.f_hz == 437.0]
        assert report == record._asdict()


class TestSweepCommand:
    def test_manifest_key_order_and_timestamp(self, capsys, tmp_path):
        out = tmp_path / "results"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["config_digest", "tool_version", "timestamp", "outputs"]
        cfg = load_sweep_config(bundled_config_path("experiment_300km"))
        assert manifest["config_digest"] == config_digest(cfg)
        assert manifest["tool_version"] == __version__
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", manifest["timestamp"])

    def test_csv_round_trip_is_exact(self, capsys, tmp_path):
        out = tmp_path / "rt"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 0
        cfg = load_sweep_config(bundled_config_path("experiment_500km"))
        assert read_records_csv(out / "records.csv") == sweep_records(cfg)

    @pytest.mark.parametrize("name", ["experiment_500km", "experiment_300km"])
    def test_bundled_records_csv_match_golden_hashes(self, capsys, tmp_path, name):
        golden_file = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        golden = json.loads(golden_file.read_text())[name]
        out = tmp_path / name
        assert main(["sweep", "--config", name, "--out", str(out), "--format", "json",
                     "--plot-data"]) == 0
        digest = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
        assert digest == golden["records_csv_sha256"]
        # every dip, the unmatched ones too
        dips = json.loads((out / "dips.json").read_text())
        assert [[d["n_matched"], d["f_detected"]] for d in dips] == golden["dips"]

    @pytest.mark.parametrize("name, edits", PINNED_CONFIGS.items())
    def test_outputs_match_pinned_hashes(self, capsys, tmp_path, name, edits):
        # the exit code, stdout and sha-256 of every output of sweep --format json
        # --plot-data; the bundled sweeps' records.csv hashes are in perfbench/golden.json
        cfg_file = tmp_path / "pinned.ini"
        cfg_file.write_text(edited(edits))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_file), "--out", str(out), "--format", "json",
                     "--plot-data"])
        outputs = [Path(p) for p in json.loads((out / "manifest.json").read_text())["outputs"]]
        entry = {"exit_code": code, "stdout": capsys.readouterr().out.replace(str(out), "<out>"),
                 "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}}
        assert entry == PINNED_OUTPUTS.get(name), json.dumps({name: entry}, indent=2)

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

    # every other row of the rejected-config table, through sweep and solve
    @pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS
                                     if row.id not in FLOAT_RANGE_IDS])
    def test_rejected_spelling_exits_2_naming_the_key(self, capsys, tmp_path, row):
        assert_cli_rejects(capsys, tmp_path, row)

    @pytest.mark.parametrize("row", FLOAT_RANGE_ROWS)
    def test_overflow_exits_2_without_output(self, capsys, tmp_path, row):
        assert_cli_rejects(capsys, tmp_path, row, ["sweep"])

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

    def test_utf8_config_reads_the_same_in_an_ascii_locale(self, capsys, tmp_path):
        # the config is read as UTF-8 whatever the locale's encoding, so a
        # non-ASCII comment changes nothing
        cfg_file = tmp_path / "em-dash.ini"
        cfg_file.write_bytes(edited([(r"\A", "# line \u2014 500 km\n")]).encode())
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "tunedline", "sweep", "--config",
             str(cfg_file), "--out", str(tmp_path / "ascii")],
            capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["sweep", "--config", "experiment_500km", "--out", str(tmp_path / "plain")]) == 0
        assert ((tmp_path / "ascii" / "records.csv").read_bytes()
                == (tmp_path / "plain" / "records.csv").read_bytes())

    def test_manifest_paths_are_utf8_in_any_locale(self, tmp_path):
        # a path is spelled as the UTF-8 reading of its bytes, not by the
        # locale that decoded --out; bytes that are not UTF-8 keep their escapes.
        # stdout spells it as its stream can carry it: raw bytes where it can,
        # backslash escapes where its encoding refuses them
        def manifest_outputs(out: bytes, stdout_dir: bytes, locale: str, **env) -> list:
            proc = subprocess.run(
                [sys.executable, "-X", "utf8=0", "-m", "tunedline", "sweep",
                 "--config", "experiment_300km", "--out", out],
                capture_output=True, env={**os.environ, "LC_ALL": locale, **env})
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout.startswith(
                b"wrote 951 records (0 singular) to %s/records.csv\n" % stdout_dir)
            with open(os.path.join(out, b"manifest.json"), "rb") as fh:
                outputs = json.load(fh)["outputs"]
            assert all(os.path.isfile(path) for path in outputs)
            return outputs

        out = os.fsencode(tmp_path) + "/d\u00e9".encode()
        expected = [f"{tmp_path}/d\u00e9/{name}" for name in ("records.csv", "dips.json")]
        assert (manifest_outputs(out, out, "C") == manifest_outputs(out, out, "C.UTF-8")
                == expected)
        escaped = os.fsencode(tmp_path) + b"/d\\xe9"
        assert manifest_outputs(out, escaped, "C.UTF-8", PYTHONIOENCODING="ascii") == expected
        latin1 = os.fsencode(tmp_path) + b"/d\xe9"
        assert manifest_outputs(latin1, latin1, "C.UTF-8")[0] == f"{tmp_path}/d\udce9/records.csv"
        escaped = os.fsencode(tmp_path) + b"/d\\udce9"
        assert (manifest_outputs(latin1, escaped, "C.UTF-8", PYTHONIOENCODING="utf-8")[0]
                == f"{tmp_path}/d\udce9/records.csv")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--format", "json", "--plot-data", "--out"],
        ["solve", "--frequency", "300", "--out"],
    ], ids=["sweep", "solve"])
    def test_no_text_io_uses_the_locale_encoding(self, tmp_path, argv):
        # every file the command reads or writes names its encoding
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "tunedline", *argv, str(tmp_path / "out"), "--config", "experiment_500km"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_two_points_write_rows_and_no_dips(self, capsys, tmp_path):
        # fewer than 3 usable rows: no dip can be located, and that is not an error
        cfg_file = tmp_path / "two.ini"
        cfg_file.write_text(edited(PINNED_CONFIGS["two-points"]))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert [row[0] for row in read_records_csv(out / "records.csv")] == [50.0, 1000.0]
        assert json.loads((out / "dips.json").read_text()) == []
        assert "tuning dips: 0 matched, 0 unmatched" in capsys.readouterr().out

    def test_dips_whose_harmonic_product_overflows_are_matched(self, capsys, tmp_path):
        # v = 1/sqrt(LC) ~ 1e155 km/s: at 1e307 Hz, 2*f*length overflows to inf
        # while 2*f*length/v ~ 1e155 is a finite harmonic index
        # the line of the table row harmonic-index-overflow with L = C = 1e-155 per km
        cfg_file = tmp_path / "fast.ini"
        fast_line = edited(BY_ID["harmonic-index-overflow"].edits)
        L_and_C = [(r"^L = .*", "L = 1e-155 H/km"), (r"^C = .*", "C = 1e-155 F/km")]
        cfg_file.write_text(edited(L_and_C, fast_line))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert "tuning dips: 2 matched, 0 unmatched" in capsys.readouterr().out
        cfg = load_sweep_config(cfg_file)
        dips = reference_tuning_dips(sweep_records(cfg), cfg.length, cfg.line.velocity)
        assert [d.n_matched for d in dips] == [
            pytest.approx(2.0 * (d.f_detected / cfg.line.velocity) * cfg.length, rel=1e-15)
            for d in dips
        ]
        assert (out / "dips.json").read_text() == dips_report_json(dips)

    def test_dips_whose_harmonic_index_overflows_are_unmatched(self, capsys, tmp_path):
        # v = 10 km/s: at 1e307 Hz, 2*f*length/v = 1e309 overflows, and so
        # does beta*length = pi*2*f*length/v: such a sweep stops at its first
        # point (the table row harmonic-index-overflow), so only hand-made
        # records reach `summarize` with such an index
        records = [SweepRecord(f, 1.0, 1.0, q, 220.0, 220.0, 1.0, False)
                   for f, q in [(1e307, 2.0), (1.5e307, 1.0), (2e307, 2.0)]]
        dips = summarize(records, 500.0, 10.0).dips
        assert [(d.f_detected, d.n_matched) for d in dips] == [(1.5e307, 0)]
        assert dips == reference_tuning_dips(records, 500.0, 10.0)

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["sweep", "--config", "experiment_500km",
                     "--out", str(blocker / "sub")])
        assert code == 4
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocker]
        # the error names the directory asked for, not the first one that cannot be made
        out = blocker / "sub" / "x"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: [Errno 20] Not a directory: '{out}'\n")


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

    @pytest.mark.parametrize("args, names", [
        (["--format", "json"], ["records.csv", "records.json", "dips.json"]),
        (["--plot-data"], ["records.csv", "dips.json", "p_r_mw.dat", "q_r_mvar.dat",
                           "q_line_mvar.dat"]),
    ], ids=["json", "plot-data"])
    def test_each_flag_alone_writes_the_files_of_both_flags(self, capsys, tmp_path, args,
                                                            names):
        # records.json and the plot files have their own rows whichever other flag is given
        both = tmp_path / "both"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(both),
                     "--format", "json", "--plot-data"]) == 0
        alone = tmp_path / "alone"
        assert main(["sweep", "--config", "experiment_300km", "--out", str(alone), *args]) == 0
        manifest = json.loads((alone / "manifest.json").read_text())
        assert manifest["outputs"] == [str(alone / name) for name in names]
        assert sorted(p.name for p in alone.iterdir()) == sorted([*names, "manifest.json"])
        for name in names:
            assert (alone / name).read_bytes() == (both / name).read_bytes(), name

    @pytest.mark.parametrize("out, spelled", [("d/", "d"), ("./d", "d"), ("d//x", "d/x"),
                                              (".", "")])
    def test_out_is_spelled_as_pathlib_spells_it(self, capsys, monkeypatch, tmp_path, out,
                                                 spelled):
        # stdout, the manifest and the directory check name the files as pathlib
        # joins them: d/ and ./d as d, d//x as d/x, and . as no directory at all
        monkeypatch.chdir(tmp_path)
        prefix = spelled and spelled + "/"
        assert main(["sweep", "--config", "experiment_300km", "--out", out]) == 0
        assert capsys.readouterr().out.startswith(
            f"wrote 951 records (0 singular) to {prefix}records.csv\n")
        manifest = json.loads((tmp_path / spelled / "manifest.json").read_text())
        assert manifest["outputs"] == [f"{prefix}records.csv", f"{prefix}dips.json"]
        (tmp_path / spelled / "dips.json").unlink()
        (tmp_path / spelled / "dips.json").mkdir()
        assert main(["sweep", "--config", "experiment_300km", "--out", out]) == 4
        assert capsys.readouterr() == (
            "", f"error: {prefix}dips.json is a directory, not an output file\n")

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

    @pytest.mark.parametrize("args", [[], ["--format", "json", "--plot-data"]],
                             ids=["csv", "json-plot-data"])
    @pytest.mark.parametrize("name", ["manifest.json", "records.csv", "records.json", "dips.json",
                                      "p_r_mw.dat", "q_r_mvar.dat", "q_line_mvar.dat"])
    def test_directory_at_an_output_name_exits_4_unchanged(self, capsys, tmp_path, name, args):
        # at a name the run writes, the directory would fail its rename; at a
        # name it does not, its unlink: either one after other files were committed
        out = tmp_path / "out"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out)]) == 0
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        (out / name / "kept.txt").write_text("kept")
        capsys.readouterr()

        def tree() -> dict:
            return {str(p.relative_to(out)): p.is_file() and hashlib.sha256(p.read_bytes()).digest()
                    for p in out.rglob("*")}

        before = tree()
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out), *args]) == 4
        assert capsys.readouterr() == (
            "", f"error: {out / name} is a directory, not an output file\n"
        )
        assert tree() == before

    @pytest.mark.parametrize("failing", ["records.csv", "dips.json", "manifest.json"])
    def test_failed_write_leaves_previous_run_unchanged(self, monkeypatch, capsys, tmp_path,
                                                        failing):
        out = tmp_path / "out"
        assert main(["sweep", "--config", "experiment_500km", "--out", str(out),
                     "--format", "json", "--plot-data"]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_open_atomic = reporting.open_atomic

        @contextmanager
        def open_atomic(path):
            with real_open_atomic(path) as fh:
                yield _FullDisk() if Path(path).name == failing else fh

        # cmd_sweep imports open_atomic from reporting when it runs
        monkeypatch.setattr(reporting, "open_atomic", open_atomic)
        assert main(["sweep", "--config", "experiment_300km", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 28] No space left on device\n"
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def grid_config(tmp_path, text: str, f_start: float, f_end: float, n_points: int):
    """text (a config on the bundled 50-1000 Hz, 951-point grid) on another grid."""
    path = tmp_path / f"grid-{f_start!r}-{f_end!r}-{n_points}.ini"
    path.write_text(edited([(r"^f_start = 50 Hz$", f"f_start = {f_start!r} Hz"),
                            (r"^f_end = 1000 Hz$", f"f_end = {f_end!r} Hz"),
                            (r"^n_points = 951$", f"n_points = {n_points}")], text))
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
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
        assert_cli_rejects(capsys, tmp_path, BY_ID["exact-later-chunk"], ["sweep"])

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
def extreme_config_texts(draw, n_points=st.integers(min_value=2, max_value=10) | huge_ints):
    """(text, rejected): config text, each number a bundled value scaled by
    10**k, and whether one of bad_configs.SPELLINGS was applied to it.

    The parser accepts the text when rejected is false.  A value that
    leaves the float range (1e400) is left in: the parser rejects it,
    while one that underflows (1e-400 reads as 0) is left to validation.
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
    text = (
        f"[line]\nr = {r}\nL = {draw(scaled(1e-3))}\ng = {g}\nC = {draw(scaled(1e-8))}\n"
        f"length = {draw(scaled(500.0))}\n\n[load]\nkind = {kind}\n{load}\n\n"
        f"[source]\nvoltage = {draw(scaled(220e3))}\n\n"
        f"[sweep]\nf_start = {f_start!r}\nf_end = {f_end!r}\nn_points = {draw(n_points)}\n"
        f"model = {model}\n"
    )
    # one config in four carries a rejected spelling
    spelling = draw(st.sampled_from([None] * (3 * len(SPELLINGS)) + SPELLINGS))
    if spelling is None:
        return text, False
    return edited(spelling.edits, text), True


@given(case=extreme_config_texts(), frequency=scaled(300.0))
@settings(max_examples=300, deadline=None)
def test_property_solve_extreme_configs_exit_0_with_finite_cells_or_one_error_line(
    tmp_path_factory, case, frequency
):
    text, rejected = case
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
    assert not rejected or code == 2


@given(case=extreme_config_texts(n_points=st.integers(min_value=2, max_value=10)))
@settings(max_examples=300, deadline=None)
def test_property_sweep_extreme_configs_exit_0_with_finite_or_flagged_rows_or_one_error_line(
    tmp_path_factory, case
):
    text, rejected = case
    tmp = tmp_path_factory.mktemp("extreme")
    cfg_file = tmp / "extreme.ini"
    cfg_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp / "out")])
    if code == 0:
        rows = read_records_csv(tmp / "out" / "records.csv")
        for row in rows:
            # a singular row keeps f_hz and vs_kv and leaves the solved cells empty
            assert (None in row[:7]) == row.singular, row
            assert all(math.isfinite(x) for x in row[:7] if x is not None), row
        assert err.getvalue() == ""
    else:
        # 2: rejected config or a point out of float range; never 1, a traceback
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not (tmp / "out" / "records.csv").exists()
    assert not rejected or code == 2
