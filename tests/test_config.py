"""Tests for config parsing and unit normalization."""

from __future__ import annotations

import configparser
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bad_configs import BY_ID, ROWS, BadConfig, edited, load_edit
from tunedline.cli import main
from tunedline.config import (
    ConfigError,
    _read_sections,
    bundled_config_names,
    bundled_config_path,
    load_sweep_config,
    parse_quantity,
    parse_sweep_config,
    resolve_config_arg,
)
from tunedline.reporting import config_digest
from tunedline.sweep import SweepConfig

# the bundled 500 km text, with C in nF/km and f_end in kHz
GOOD = edited([(r"^C = .*", "C = 11.111111111111112 nF/km"), (r"^f_end = .*", "f_end = 1 kHz")])


def test_parse_good_config():
    cfg = parse_sweep_config(GOOD)
    assert cfg.line.L == pytest.approx(1.0e-3, rel=1e-15)
    assert cfg.line.C == pytest.approx(1.1111111111111112e-8, rel=1e-15)
    assert cfg.line.r == 0.0 and cfg.line.g == 0.0
    assert cfg.length == 500.0
    assert cfg.source_voltage == 220e3
    assert cfg.f_start == 50.0 and cfg.f_end == 1000.0
    assert cfg.n_points == 951
    assert cfg.model == "lossless"
    assert cfg.load.c_load == pytest.approx(
        100e6 / (2.0 * math.pi * 50.0 * (220e3) ** 2), rel=1e-15
    )
    assert cfg.load.g_load == pytest.approx(100e6 / (220e3) ** 2, rel=1e-15)


def test_parse_quantity_units():
    assert parse_quantity("1.5", {"Hz": 1.0}, where="x") == 1.5
    assert parse_quantity("1.5 kHz", {"Hz": 1.0, "kHz": 1e3}, where="x") == 1500.0
    with pytest.raises(ConfigError):
        parse_quantity("1.5 MHz", {"Hz": 1.0, "kHz": 1e3}, where="x")
    with pytest.raises(ConfigError):
        parse_quantity("abc Hz", {"Hz": 1.0}, where="x")
    with pytest.raises(ConfigError):
        parse_quantity("1 2 Hz", {"Hz": 1.0}, where="x")


@pytest.mark.parametrize("text", ["5", "+5", "-5", "5.25", ".5", "-.5", "5e3", "5E-3",
                                  "+.5e+2", "007", "1e-400"])
def test_parse_quantity_reads_ascii_decimal(text):
    assert parse_quantity(text, {}, where="x") == float(text)


@pytest.mark.parametrize("text", ["1_000", "\u0665\u0660\u0660", "\uff15", "inf", "-Infinity",
                                  "nan", "1.", "5.e3", "0x1F4", "1e", "e5", "+-5", "1e5.0"])
def test_parse_quantity_rejects_other_spellings(text):
    # each is a float() accepts (underscores, non-ASCII digits, nan/inf) or one it refuses
    with pytest.raises(ConfigError, match=f"^x: {re.escape(repr(text))} is not a number$"):
        parse_quantity(f"{text} Hz", {"Hz": 1.0}, where="x")


@pytest.mark.parametrize("text", ["500\u00a0Hz", "500\u2003Hz", "500\x1fHz", "500 Hz x"])
def test_parse_quantity_separates_the_unit_by_ascii_blanks_only(text):
    # str.split() read the first three as 500 Hz
    with pytest.raises(ConfigError, match=f"^x: expected '<number> \\[unit\\]', got "
                                          f"{re.escape(repr(text))}$"):
        parse_quantity(text, {"Hz": 1.0}, where="x")
    assert parse_quantity(" 500 \t Hz\t", {"Hz": 1.0}, where="x") == 500.0


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e308 kHz", "2e305 kHz"])
def test_parse_quantity_rejects_values_out_of_float_range(text):
    with pytest.raises(ConfigError, match=f"^x: {re.escape(repr(text))} is out of float range$"):
        parse_quantity(text, {"Hz": 1.0, "kHz": 1e3}, where="x")


def assert_parse_rejects(tmp_path, row: BadConfig) -> None:
    """load_sweep_config on row's file raises the ConfigError of row's error
    line, or, for a config that a sweep rejects part-way, returns it."""
    cfg_file = row.write(tmp_path / "bad.ini")
    if not row.parser_rejects:
        assert type(load_sweep_config(cfg_file)) is SweepConfig
        return
    with pytest.raises(ConfigError) as excinfo:
        load_sweep_config(cfg_file)
    assert f"error: {excinfo.value}\n" == row.stderr(cfg_file)


@pytest.mark.parametrize("row", [
    *[pytest.param(row, id=row.id) for row in ROWS],
    # spellings the grammar accepts: a sign, and indentation by ASCII blanks,
    # which has no meaning after a key line too
    *[pytest.param(BadConfig(id, edits, None), id=id) for id, edits in [
        ("sign", [(r"^n_points = ", "n_points = +")]),
        ("indented-key-line", [(r"^L = ", "  \tL = ")]),
        ("indented-header-line", [(r"^\[load\]", "\t[load]")]),
    ]],
])
def test_config_grammar(tmp_path, row):
    if row.error is None:
        accepted = load_sweep_config(row.write(tmp_path / "accepted.ini"))
        assert accepted == load_sweep_config(bundled_config_path("experiment_500km"))
    else:
        assert_parse_rejects(tmp_path, row)


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """The sections configparser reads from text, set up so that it reads
    README's grammar on unindented lines: the reference for _read_sections."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="\n")
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


KNOWN_KEYS = ["r", "l", "g", "c", "length", "kind", "g_load", "c_load", "rated_q", "rated_v",
              "rated_f", "rated_p", "resistance", "voltage", "f_start", "f_end", "n_points",
              "model"]
blanks = st.text(alphabet=" \t", max_size=2)


@st.composite
def grammar_texts(draw) -> str:
    """INI text in README's grammar with no line indented: headers, known keys
    in mixed case, ASCII blanks around = and at line ends, values that may
    hold = ; or #, blank and comment lines, LF or CRLF line ends."""
    lines = []
    for name in draw(st.lists(st.sampled_from(["line", "load", "source", "sweep"]),
                              unique=True)):
        lines.append(f"[{name}]{draw(blanks)}")
        for key in draw(st.lists(st.sampled_from(KNOWN_KEYS), unique=True, max_size=4)):
            key = "".join(c.upper() if draw(st.booleans()) else c for c in key)
            value = draw(st.text(alphabet="05.e+- kmHzV=;#", max_size=8)).strip(" ")
            lines.append(f"{key}{draw(blanks)}={draw(blanks)}{value}{draw(blanks)}")
            lines.extend(draw(st.lists(st.sampled_from(["", " \t", "; note", "# a = b"]),
                                       max_size=2)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@given(text=grammar_texts())
@example(text=bundled_config_path("experiment_500km").read_text())
@settings(max_examples=300)
def test_property_read_sections_equals_configparser_on_the_grammar(text):
    assert _read_sections(text, "cfg.ini") == configparser_sections(text)


def test_crlf_line_ends_parse_as_lf():
    for name in bundled_config_names():
        text = bundled_config_path(name).read_text()
        assert "\r" not in text
        assert parse_sweep_config(text.replace("\n", "\r\n")) == parse_sweep_config(text)


BUNDLED_500KM = bundled_config_path("experiment_500km").read_text()
# all 29 characters str.isspace() accepts, ASCII and Unicode; the last is U+3000
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


@st.composite
def mutated_bundled_texts(draw) -> str:
    """The bundled 500 km text after one to three edits: a line dropped,
    duplicated or indented, a header repeated, the text emptied, or one
    ASCII or Unicode whitespace character inserted anywhere."""
    text = BUNDLED_500KM
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lines = text.split("\n")
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "indent", "header", "empty", "insert"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "indent":
            lines[i] = draw(st.sampled_from(WHITESPACE)) + lines[i]
        elif edit == "header":
            lines.insert(i, draw(st.sampled_from(["[line]", "[load]", "[source]", "[sweep]"])))
        elif edit == "empty":
            lines = [""]
        text = "\n".join(lines)
        if edit == "insert":
            at = draw(st.integers(min_value=0, max_value=len(text)))
            text = text[:at] + draw(st.sampled_from(WHITESPACE)) + text[at:]
    return text


@given(text=mutated_bundled_texts())
@example(text="")
@example(text=edited(BY_ID["repeated-section"].edits))
@example(text=edited(BY_ID["em-space-indent"].edits))
@settings(max_examples=500)
def test_property_mutated_ini_text_parses_or_raises_one_line_config_error(text):
    try:
        assert type(parse_sweep_config(text, origin="cfg.ini")) is SweepConfig
    except ConfigError as exc:  # any other exception fails the test
        assert str(exc).startswith("cfg.ini: ")
        assert str(exc).splitlines() == [str(exc)]


@given(text=mutated_bundled_texts())
@settings(max_examples=25, deadline=None)
def test_property_mutated_ini_text_solve_exits_0_2_or_3(tmp_path_factory, text):
    cfg_file = tmp_path_factory.mktemp("mutated") / "mutated.ini"
    cfg_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", "--config", str(cfg_file), "--frequency", "300"])
    # 0 with no error, 2 a rejected config, 3 a singular point; never 1, a traceback
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_admittance_load_kind():
    load = load_edit("kind = admittance\ng_load = 2 mS\nc_load = 6.6 uF")
    cfg = parse_sweep_config(edited([load], GOOD))
    assert cfg.load.g_load == pytest.approx(2e-3, rel=1e-15)
    assert cfg.load.c_load == pytest.approx(6.6e-6, rel=1e-15)


def test_impedance_load_kind():
    load = load_edit("kind = impedance\nresistance = 484 ohm\nc_load = 1 uF")
    cfg = parse_sweep_config(edited([load], GOOD))
    assert cfg.load.g_load == pytest.approx(1.0 / 484.0, rel=1e-15)


def test_model_variants():
    for text, model, sections in (
        (GOOD.replace("model = lossless", "model = exact"), "exact", 100),
        (GOOD.replace("model = lossless", "model = pi-cascade"), "pi-cascade", 100),
        (GOOD.replace("model = lossless", "model = pi-cascade(250)"), "pi-cascade", 250),
    ):
        cfg = parse_sweep_config(text)
        assert (cfg.model, cfg.pi_sections) == (model, sections)


def test_digest_hashes_the_resolved_load_only():
    def digest(load: str) -> str:
        return config_digest(parse_sweep_config(edited([load_edit(load)], GOOD)))

    impedance = digest("kind = impedance\nresistance = 0.5 ohm")
    assert impedance == digest("kind = admittance\ng_load = 2 S")
    assert impedance != digest("kind = admittance\ng_load = 2 S\nc_load = 1 uF")


@pytest.mark.parametrize(
    "name, digest",
    [
        ("experiment_500km", "a9fc22e0fb20fc9eef036b69839acc81548ce21b4421f8abf4d1a97cfd15ac02"),
        ("experiment_300km", "7120afffa09d3cc40a2de7c4f13db661b27fc4ff3d9b02dbc6bb41be50c1e988"),
    ],
)
def test_bundled_config_digests_are_pinned(name, digest):
    assert config_digest(load_sweep_config(bundled_config_path(name))) == digest


def test_bundled_configs():
    assert bundled_config_names() == ["experiment_300km", "experiment_500km"]
    for name in bundled_config_names():
        cfg = load_sweep_config(bundled_config_path(name))
        assert cfg.f_start == 50.0
        assert cfg.f_end == 1000.0
        assert cfg.n_points == 951
        assert cfg.line.is_lossless
    assert load_sweep_config(bundled_config_path("experiment_500km")).length == 500.0
    assert load_sweep_config(bundled_config_path("experiment_300km")).length == 300.0


def test_resolve_config_arg(tmp_path):
    own = tmp_path / "mine.ini"
    own.write_text(GOOD)
    assert resolve_config_arg(str(own)) == own
    assert resolve_config_arg("experiment_500km").name == "experiment_500km.ini"
    with pytest.raises(ConfigError):
        resolve_config_arg("no_such_config_anywhere")


def test_bundled_config_path_takes_only_a_name(tmp_path):
    assert bundled_config_path("experiment_500km.ini") == bundled_config_path("experiment_500km")
    (tmp_path / "alt.ini").write_text(GOOD)
    configs = bundled_config_path("experiment_500km").parent
    # paths that name an existing .ini file are still not bundled names
    for value in [str(tmp_path / "alt"), str(tmp_path / "alt.ini"), str(configs / "experiment_500km"),
                  "../configs/experiment_500km", "configs/experiment_500km.ini", "", ".ini"]:
        with pytest.raises(ConfigError, match="^no bundled config named "):
            bundled_config_path(value)


def test_load_missing_file():
    with pytest.raises(ConfigError):
        load_sweep_config("/nonexistent/path/config.ini")


@pytest.mark.parametrize("value", ["x" * 3000, "a/" * 1497 + "xx.ini"],
                         ids=["name-3000-characters", "path-3000-characters"])
def test_resolve_overlong_config_arg_is_cut_short(value):
    # a name past the file-name limit is no file, not an OSError
    with pytest.raises(ConfigError) as excinfo:
        resolve_config_arg(value)
    assert str(excinfo.value).startswith(f"config {value[:20]!r}... (3000 characters) is neither ")
