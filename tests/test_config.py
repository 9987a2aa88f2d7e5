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

GOOD = """
[line]
r = 0 ohm/km
L = 1.0 mH/km
g = 0 S/km
C = 11.111111111111112 nF/km
length = 500 km

[load]
kind = fixed-capacitance-rated
rated_q = 100 MVAr
rated_v = 220 kV
rated_f = 50 Hz
rated_p = 100 MW

[source]
voltage = 220 kV

[sweep]
f_start = 50 Hz
f_end = 1 kHz
n_points = 951
model = lossless
"""


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_points = 951", "n_points = +951", None),
        ("n_points = 951", "n_points = 9_51", "[sweep] n_points: '9_51' is not an integer"),
        ("model = lossless", "model = pi-cascade(\u0663\u0667)",
         "[sweep] model must be exact, lossless, pi-cascade or pi-cascade(N), "
         "got 'pi-cascade(\u0663\u0667)'"),
        ("length = 500 km", "length =\n  500 km",
         "line 8: '  500 km' is neither a [section] header nor a key = value line"),
        ("[line]", "[DEFAULT]\nmodel = lossless\n[line]", "unknown section(s): 'DEFAULT'"),
        # named once, not wrapped again as a LineParameters error
        ("L = 1.0 mH/km", "L = abc mH/km", "[line] l: 'abc' is not a number"),
        # the reader's own errors name the line; a key is read in lower case
        ("[line]", "x = 1\n[line]", "line 2: 'x = 1' comes before the first [section] header"),
        ("length = 500 km", "length = 500 km\nLength = 400 km",
         "line 8: key 'length' repeats in section 'line'"),
        ("[sweep]", "[line]\n[sweep]", "line 19: section 'line' repeats"),
        # only ASCII blanks are stripped, and only a whole line is a header
        ("length = 500 km", "length\u00a0= 500 km", "[line] length is required"),
        ("length = 500 km", "length =\u00a0500 km",
         "[line] length: expected '<number> [unit]', got '\\xa0500 km'"),
        ("length = 500 km", "length = 500 km\u00a0",
         "[line] length: expected '<number> [unit]', got '500 km\\xa0'"),
        ("length = 500 km", "\u2003length = 500 km", "[line] length is required"),
        ("[source]", "[source] junk",
         "line 16: '[source] junk' is neither a [section] header nor a key = value line"),
        ("[source]", "[source]\n\x0b",
         "line 17: '\\x0b' is neither a [section] header nor a key = value line"),
        # indentation by ASCII blanks has no meaning, after a key line too
        ("L = 1.0 mH/km", "  \tL = 1.0 mH/km", None),
        ("[load]", "\t[load]", None),
    ],
    ids=["sign", "underscore", "non-ascii-pi-sections", "value-on-next-line", "default-key",
         "line-constant", "line-before-header", "repeated-key", "repeated-section",
         "no-break-space-after-key", "no-break-space-before-value",
         "no-break-space-at-line-end", "em-space-indent", "text-after-header",
         "vertical-tab-line", "indented-key-line", "indented-header-line"],
)
def test_config_grammar(old, new, message):
    assert old in GOOD
    text = GOOD.replace(old, new)
    if message is None:
        assert parse_sweep_config(text) == parse_sweep_config(GOOD)
        return
    with pytest.raises(ConfigError) as excinfo:
        parse_sweep_config(text, origin="cfg.ini")
    assert str(excinfo.value) == f"cfg.ini: {message}"


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
@example(text=BUNDLED_500KM.replace("[sweep]", "[sweep]\n[sweep]"))
@example(text=BUNDLED_500KM.replace("length", "\u2003length"))
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
    text = GOOD.replace(
        """kind = fixed-capacitance-rated
rated_q = 100 MVAr
rated_v = 220 kV
rated_f = 50 Hz
rated_p = 100 MW""",
        """kind = admittance
g_load = 2 mS
c_load = 6.6 uF""",
    )
    cfg = parse_sweep_config(text)
    assert cfg.load.g_load == pytest.approx(2e-3, rel=1e-15)
    assert cfg.load.c_load == pytest.approx(6.6e-6, rel=1e-15)


def test_impedance_load_kind():
    text = GOOD.replace(
        """kind = fixed-capacitance-rated
rated_q = 100 MVAr
rated_v = 220 kV
rated_f = 50 Hz
rated_p = 100 MW""",
        """kind = impedance
resistance = 484 ohm
c_load = 1 uF""",
    )
    cfg = parse_sweep_config(text)
    assert cfg.load.g_load == pytest.approx(1.0 / 484.0, rel=1e-15)


def test_model_variants():
    for text, model, sections in (
        (GOOD.replace("model = lossless", "model = exact"), "exact", 100),
        (GOOD.replace("model = lossless", "model = pi-cascade"), "pi-cascade", 100),
        (GOOD.replace("model = lossless", "model = pi-cascade(250)"), "pi-cascade", 250),
    ):
        cfg = parse_sweep_config(text)
        assert (cfg.model, cfg.pi_sections) == (model, sections)


def test_errors_are_config_errors():
    cases = [
        GOOD.replace("[source]\nvoltage = 220 kV\n", ""),  # missing section
        GOOD.replace("voltage = 220 kV", "voltage = 220 kV\ntyp = oops"),  # unknown key
        GOOD.replace("length = 500 km", "length = 500 miles"),  # unknown unit
        GOOD.replace("n_points = 951", "n_points = many"),  # bad int
        GOOD.replace("model = lossless", "model = spice"),  # bad model
        GOOD.replace("kind = fixed-capacitance-rated", "kind = constant-power"),  # bad load kind
        GOOD.replace("f_end = 1 kHz", "f_end = 10 Hz"),  # fails validation
        GOOD.replace("L = 1.0 mH/km", "L = -1.0 mH/km"),  # bad line params
        GOOD + "\n[extra]\nx = 1\n",  # unknown section
        "not an ini file [",  # unparsable
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            parse_sweep_config(text)


def test_digest_hashes_the_resolved_load_only():
    rated = """kind = fixed-capacitance-rated
rated_q = 100 MVAr
rated_v = 220 kV
rated_f = 50 Hz
rated_p = 100 MW"""

    def digest(load: str) -> str:
        return config_digest(parse_sweep_config(GOOD.replace(rated, load)))

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


def test_missing_required_key():
    with pytest.raises(ConfigError):
        parse_sweep_config(GOOD.replace("rated_q = 100 MVAr\n", ""))


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


def test_load_non_utf8_file_names_it(tmp_path):
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xff\xfe" + GOOD.encode())
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: "):
        load_sweep_config(path)


@pytest.mark.parametrize("value", ["x" * 3000, "a/" * 1497 + "xx.ini"],
                         ids=["name-3000-characters", "path-3000-characters"])
def test_resolve_overlong_config_arg_is_cut_short(value):
    # a name past the file-name limit is no file, not an OSError
    with pytest.raises(ConfigError) as excinfo:
        resolve_config_arg(value)
    assert str(excinfo.value).startswith(f"config {value[:20]!r}... (3000 characters) is neither ")


LONG = "9" * 5000 + "x"  # 5001 characters that read as no number, int or model


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_points = 951", f"n_points = {LONG}",
         "[sweep] n_points: '99999999999999999999'... (5001 characters) is not an integer"),
        ("n_points = 951", f"n_points = {'9' * 5001}",
         "[sweep] n_points: an integer of 5001 digits, more than the 4300 accepted"),
        ("model = lossless", f"model = pi-cascade({'9' * 5001})",
         "[sweep] model pi-cascade(N): an integer of 5001 digits, more than the 4300 accepted"),
        ("model = lossless", f"model = {LONG}",
         "[sweep] model must be exact, lossless, pi-cascade or pi-cascade(N), "
         "got '99999999999999999999'... (5001 characters)"),
        ("length = 500 km", f"length = {LONG} km",
         "[line] length: '99999999999999999999'... (5001 characters) is not a number"),
        ("length = 500 km", f"length = 500 {LONG}",
         "[line] length: unknown unit '99999999999999999999'... (5001 characters) "
         "(allowed: km, m)"),
    ],
    ids=["n_points-text", "n_points-digits", "pi_sections-digits", "model-text",
         "length-number", "length-unit"],
)
def test_long_values_are_echoed_cut_short(old, new, message):
    # int() refuses more than 4300 digits; no message echoes a value whole
    assert old in GOOD
    with pytest.raises(ConfigError) as excinfo:
        parse_sweep_config(GOOD.replace(old, new), origin="cfg.ini")
    assert str(excinfo.value) == f"cfg.ini: {message}"
