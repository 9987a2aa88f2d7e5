"""Rejected configs: one row per config that `sweep` and `solve` reject with
one error line, as edits of the bundled experiment_500km text.

The parse-level and CLI tests and the extreme-config property (which draws
SPELLINGS) read this table, so a new rejected config is one row.
"""

from __future__ import annotations

import re
from collections import namedtuple
from pathlib import Path

BUNDLED = Path(__file__).resolve().parents[1] / "src/tunedline/configs/experiment_500km.ini"


def edited(edits, base: str | bytes | None = None) -> str | bytes:
    """base (the bundled text, or its bytes when the edits are bytes) after
    each (pattern, replacement) of edits, applied by re.sub to its first
    match with re.MULTILINE.  A pattern that matches nothing raises."""
    if base is None:
        base = BUNDLED.read_bytes() if isinstance(edits[0][0], bytes) else BUNDLED.read_text()
    for pattern, replacement in edits:
        base, n = re.subn(pattern, replacement, base, count=1, flags=re.MULTILINE)
        if n != 1:
            raise ValueError(f"edit pattern {pattern!r} matches nothing in the text")
    return base


class BadConfig(namedtuple("BadConfig", "id edits error frequency", defaults=(300.0,))):
    """id: the test id; edits: (pattern, replacement) pairs for `edited`;
    error: stderr after "error: ", {path} standing for the config file (a
    config error names it, a point out of float range names its frequency);
    frequency: the `solve --frequency` in Hz."""

    __slots__ = ()

    @property
    def parser_rejects(self) -> bool:
        """Whether the parser rejects the file, rather than a sweep part-way."""
        return "{path}" in self.error

    def write(self, path: Path) -> Path:
        text = edited(self.edits)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return path

    def stderr(self, path: Path) -> str:
        return f"error: {self.error.replace('{path}', str(path))}\n"


# 1 followed by 400 zeros: an int that float() cannot hold
HUGE_INT = 10**400
# 1 followed by 5000 zeros: more digits than int() accepts (4300 by default)
TOO_MANY_DIGITS = "1" + "0" * 5000
# a key, section name or line of 3000 characters
LONG_NAME = "k" * 3000
# 5001 characters that read as no number, int or model
LONG = "9" * 5000 + "x"
# the ends of error lines that several rows print
NOT_A_LINE = "is neither a [section] header nor a key = value line"
RANGE = "solution out of float range at f ="
MODELS = "[sweep] model must be exact, lossless, pi-cascade or pi-cascade(N), got"
CUT_NAME = f"{LONG_NAME[:20]!r}... (3000 characters)"
CUT = "'99999999999999999999'... (5001 characters)"
DIGITS = "an integer of 5001 digits, more than the 4300 accepted"


def sweep_grid(f_start, f_end, n_points, model):
    return ((r"^f_start = .*", f"f_start = {f_start} Hz"), (r"^f_end = .*", f"f_end = {f_end} Hz"),
            (r"^n_points = .*", f"n_points = {n_points}"), (r"^model = .*", f"model = {model}"))


def load_edit(lines: str):
    """The edit that puts lines in place of the [load] section's lines."""
    return r"^kind = [^[]*", f"{lines}\n\n"


# a 2000 km line of 5 mH/km and 50 nF/km far into its stopband: the exact
# model's cosh overflows at 2400 Hz, and the lossless pi-cascade(100) product
# overflows to inf/nan above 12500 Hz (its 12500 Hz row is still finite)
STOPBAND = ((r"^L = .*", "L = 5 mH/km"), (r"^C = .*", "C = 50 nF/km"),
            (r"^length = .*", "length = 2000 km"), load_edit("kind = admittance\ng_load = 1 mS"))
LOSSY = ((r"^r = .*", "r = 500 ohm/km"),)

# Rows written to match a line of extreme_config_texts' text as well, and
# rejected whatever its other values: the spellings that property draws.
SPELLINGS = [
    BadConfig("underscore", [(r"^length = \S+", "length = 1_000")],
              "{path}: [line] length: '1_000' is not a number"),
    BadConfig("n_points-underscore", [(r"^n_points = \S+", "n_points = 9_51")],
              "{path}: [sweep] n_points: '9_51' is not an integer"),
    BadConfig("non-ascii-digits", [(r"^length = \S+", "length = \u0665\u0660\u0660")],
              "{path}: [line] length: '\u0665\u0660\u0660' is not a number"),
    BadConfig("non-ascii-n_points", [(r"^n_points = \S+", "n_points = \u0669\u0665\u0661")],
              "{path}: [sweep] n_points: '\u0669\u0665\u0661' is not an integer"),
    BadConfig("non-ascii-pi-sections", [(r"^model = .*", "model = pi-cascade(\u0663\u0667)")],
              f"{{path}}: {MODELS} 'pi-cascade(\u0663\u0667)'"),
    BadConfig("inf", [(r"^length = \S+", "length = inf")],
              "{path}: [line] length: 'inf' is not a number"),
    BadConfig("voltage = 220 kV-voltage = nan kV", [(r"^voltage = .*", "voltage = nan kV")],
              "{path}: [source] voltage: 'nan' is not a number"),
    BadConfig("voltage = 220 kV-voltage = inf kV", [(r"^voltage = .*", "voltage = inf kV")],
              "{path}: [source] voltage: 'inf' is not a number"),
    BadConfig("f_end = 1000 Hz-f_end = inf Hz", [(r"^f_end = .*", "f_end = inf Hz")],
              "{path}: [sweep] f_end: 'inf' is not a number"),
    BadConfig("f_end-infinity", [(r"^f_end = .*", "f_end = Infinity")],
              "{path}: [sweep] f_end: 'Infinity' is not a number"),
    # named once, not wrapped again as a LineParameters error
    BadConfig("line-constant", [(r"^L = .*", "L = abc mH/km")],
              "{path}: [line] l: 'abc' is not a number"),
    BadConfig("1e999", [(r"^length = .*", "length = 1e999 km")],
              "{path}: [line] length: '1e999 km' is out of float range"),
    BadConfig("1e308-kV", [(r"^voltage = .*", "voltage = 1e308 kV")],
              "{path}: [source] voltage: '1e308 kV' is out of float range"),
    BadConfig("colon", [(r"^length = ", "length: ")],
              f"{{path}}: line 10: 'length: 500 km' {NOT_A_LINE}"),
    BadConfig("value-on-next-line", [(r"^length = ", "length =\n  ")],
              f"{{path}}: line 11: '  500 km' {NOT_A_LINE}"),
    BadConfig("default-section", [(r"^\[line\]", "[DEFAULT]\n[line]")],
              "{path}: unknown section(s): 'DEFAULT'"),
    BadConfig("default-key", [(r"^\[line\]", "[DEFAULT]\nmodel = lossless\n[line]")],
              "{path}: unknown section(s): 'DEFAULT'"),
    BadConfig("line-before-header", [(r"^\[line\]", "x = 1\n[line]")],
              "{path}: line 5: 'x = 1' comes before the first [section] header"),
    # a key is read in lower case
    BadConfig("repeated-key", [(r"^length = .*", "\\g<0>\nLength = 400 km")],
              "{path}: line 11: key 'length' repeats in section 'line'"),
    BadConfig("repeated-section", [(r"^\[sweep\]", "[line]\n[sweep]")],
              "{path}: line 22: section 'line' repeats"),
    # only ASCII blanks are stripped, and only ASCII blanks part a unit from its number
    BadConfig("no-break-space", [(r"^(length = \S+).*", "\\1\u00a0km")],
              "{path}: [line] length: expected '<number> [unit]', got '500\\xa0km'"),
    BadConfig("em-space", [(r"^(length = \S+).*", "\\1\u2003km")],
              "{path}: [line] length: expected '<number> [unit]', got '500\\u2003km'"),
    BadConfig("no-break-space-after-key", [(r"^length =", "length\u00a0=")],
              "{path}: [line] length is required"),
    BadConfig("no-break-space-before-value", [(r"^length = ", "length =\u00a0")],
              "{path}: [line] length: expected '<number> [unit]', got '\\xa0500 km'"),
    BadConfig("no-break-space-at-line-end", [(r"^length = .*", "\\g<0>\u00a0")],
              "{path}: [line] length: expected '<number> [unit]', got '500 km\\xa0'"),
    BadConfig("em-space-indent", [(r"^length", "\u2003length")],
              "{path}: [line] length is required"),
    # only a whole line is a header
    BadConfig("text-after-header", [(r"^\[source\]", "[source] junk")],
              f"{{path}}: line 19: '[source] junk' {NOT_A_LINE}"),
    BadConfig("vertical-tab-line", [(r"^\[source\]", "[source]\n\x0b")],
              f"{{path}}: line 20: '\\x0b' {NOT_A_LINE}"),
]

ROWS = SPELLINGS + [
    # INI text that is no config, or lines that are no header or pair
    BadConfig("malformed", [(r"(?s).*", "[line]\nL = banana\n")],
              "{path}: missing section(s): load, source, sweep"),
    BadConfig("unparsable", [(r"(?s).*", "not an ini file [")],
              "{path}: line 1: 'not an ini file [' comes before the first [section] header"),
    BadConfig("continuation", [(r"^length = 500 km$", "length = 500\n  km")],
              f"{{path}}: line 11: '  km' {NOT_A_LINE}"),
    BadConfig("line-without-equals", [(r"^\[source\]", "[source]\njunk without equals")],
              f"{{path}}: line 20: 'junk without equals' {NOT_A_LINE}"),
    BadConfig("indented-line-after-header", [(r"^\[source\]", "[source]\n  indented continuation")],
              f"{{path}}: line 20: '  indented continuat'... (23 characters) {NOT_A_LINE}"),
    BadConfig("missing-section", [(r"^\[source\]\n.*\n", "")],
              "{path}: missing section(s): source"),
    BadConfig("unknown-section", [(r"\Z", "\n[extra]\nx = 1\n")],
              "{path}: unknown section(s): 'extra'"),
    BadConfig("missing-key", [(r"^rated_q = .*\n", "")], "{path}: [load] rated_q is required"),
    BadConfig("unknown-key", [(r"^voltage = .*", "\\g<0>\ntyp = oops")],
              "{path}: unknown key(s) in [source]: 'typ'"),
    BadConfig("unknown-unit", [(r"^length = .*", "length = 500 miles")],
              "{path}: [line] length: unknown unit 'miles' (allowed: km, m)"),
    BadConfig("bad-int", [(r"^n_points = .*", "n_points = many")],
              "{path}: [sweep] n_points: 'many' is not an integer"),
    BadConfig("bad-model", [(r"^model = .*", "model = spice")], f"{{path}}: {MODELS} 'spice'"),
    BadConfig("bad-load-kind", [(r"^kind = .*", "kind = constant-power")],
              "{path}: [load] kind must be one of admittance, fixed-capacitance-rated, impedance"),
    BadConfig("negative-L", [(r"^L = .*", "L = -1.0 mH/km")],
              "{path}: [line]: L and C must be positive"),
    BadConfig("f_end-below-f_start", [(r"^f_end = .*", "f_end = 10 Hz")],
              "{path}: need 0 < f_start < f_end"),
    # long names and values are echoed cut short, on one line
    BadConfig("unknown-key-3000-characters", [(r"^length = .*", f"\\g<0>\n{LONG_NAME} = 1")],
              f"{{path}}: unknown key(s) in [line]: {CUT_NAME}"),
    BadConfig("unknown-section-3000-characters",
              [(r"^\[source\]", f"[{LONG_NAME}]\nx = 1\n\n[source]")],
              f"{{path}}: unknown section(s): {CUT_NAME}"),
    BadConfig("duplicate-key-3000-characters",
              [(r"^length = .*", f"\\g<0>\n{LONG_NAME} = 1\n{LONG_NAME} = 2")],
              f"{{path}}: line 12: key {CUT_NAME} repeats in section 'line'"),
    BadConfig("line-before-first-header", [(r"^\[line\]", f"{LONG_NAME}\n[line]")],
              f"{{path}}: line 5: {CUT_NAME} comes before the first [section] header"),
    BadConfig("n_points-text", [(r"^n_points = .*", f"n_points = {LONG}")],
              f"{{path}}: [sweep] n_points: {CUT} is not an integer"),
    BadConfig("model-text", [(r"^model = .*", f"model = {LONG}")], f"{{path}}: {MODELS} {CUT}"),
    BadConfig("length-number", [(r"^length = .*", f"length = {LONG} km")],
              f"{{path}}: [line] length: {CUT} is not a number"),
    BadConfig("length-unit", [(r"^length = .*", f"length = 500 {LONG}")],
              f"{{path}}: [line] length: unknown unit {CUT} (allowed: km, m)"),
    # ints beyond the float range or int()'s digit limit, and an L*C that underflows
    BadConfig("n_points-huge", [(r"^n_points = .*", f"n_points = {HUGE_INT}")],
              "{path}: n_points is out of float range"),
    BadConfig("pi_sections-huge", [(r"^model = .*", f"model = pi-cascade({HUGE_INT})")],
              "{path}: pi_sections is out of float range"),
    BadConfig("n_points-5001-digits", [(r"^n_points = .*", f"n_points = {TOO_MANY_DIGITS}")],
              f"{{path}}: [sweep] n_points: {DIGITS}"),
    BadConfig("n_points-digits", [(r"^n_points = .*", f"n_points = {'9' * 5001}")],
              f"{{path}}: [sweep] n_points: {DIGITS}"),
    BadConfig("pi_sections-5001-digits",
              [(r"^model = .*", f"model = pi-cascade({TOO_MANY_DIGITS})")],
              f"{{path}}: [sweep] model pi-cascade(N): {DIGITS}"),
    BadConfig("pi_sections-digits", [(r"^model = .*", f"model = pi-cascade({'9' * 5001})")],
              f"{{path}}: [sweep] model pi-cascade(N): {DIGITS}"),
    BadConfig("LC-underflow", [(r"^L = .*", "L = 1e-200 H/km"), (r"^C = .*", "C = 1e-200 F/km")],
              "{path}: [line]: L*C is out of float range"),
    # values that validation rejects
    BadConfig("rated_p = 100 MW-rated_p = nan MW", [(r"^rated_p = .*", "rated_p = nan MW")],
              "{path}: [load] rated_p: 'nan' is not a number"),
    BadConfig("zero-pi-sections", [(r"^model = .*", "model = pi-cascade(0)")],
              "{path}: pi_sections must be at least 1"),
    BadConfig("degenerate-grid", [(r"^f_end = .*", "f_end = 50.000000000001 Hz")],
              "{path}: frequency step (f_end - f_start)/(n_points - 1) must exceed 2*ulp(f_end)"),
    # length / N rounds to 0 km (5e-324 / 2 == 0.0): a zero-length section is no
    # line, so the config is rejected before any point is solved
    BadConfig("section-length-underflow",
              [(r"^length = .*", "length = 5e-324 km"), (r"^model = .*", "model = pi-cascade(2)")],
              "{path}: length / pi_sections underflows to a zero-length section"),
    *[BadConfig(f"{rated_v}-{rated_p}",
                [(r"^rated_v = .*", f"rated_v = {rated_v}"), (r"^rated_p = .*", rated_p)],
                "{path}: [load]: ratings give a load out of float range")
      for rated_v, rated_p in [
          ("0 kV", "rated_p = 100 MW"),  # rated_p / 0
          ("1e-200 V", "rated_p = 100 MW"),  # rated_v**2 underflows to 0
          ("1e200 V", "rated_p = 100 MW"),  # rated_v**2 overflows
          ("1e200 V", ""),  # rated_v**2 overflows in the capacitor sizing
          ("1e154 V", "rated_p = 100 MW"),  # 2*pi*f*rated_v**2 overflows: C = 0
          ("1e154 V", ""),  # 2*pi*f*rated_v**2 overflows: C = 0
      ]],
    BadConfig("non-utf8", [(rb"\A", b"\xff\xfe")],
              "cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte"),
    # points whose solution leaves the float range, so a sweep fails part-way
    BadConfig("exact", [*STOPBAND, *LOSSY, *sweep_grid(2400, 2500, 3, "exact")],
              f"{RANGE} 2400.0 Hz", 2400.0),
    BadConfig("exact-later-chunk", [*STOPBAND, *LOSSY, *sweep_grid(100, 2500, 25, "exact")],
              f"{RANGE} 1800.0 Hz", 1800.0),
    BadConfig("pi-cascade", [*STOPBAND, *sweep_grid(12500, 25000, 3, "pi-cascade(100)")],
              f"{RANGE} 18750.0 Hz", 18750.0),
    # 2*pi*f overflows to inf at 5e307 Hz, and math.cos(inf) raises ValueError
    BadConfig("infinite-angle", [*STOPBAND, *sweep_grid(50, 1e308, 3, "lossless")],
              f"{RANGE} 5e+307 Hz", 5e307),
    # the tuned row's per-phase cells are finite (p_r = 7.5e307 W), and its
    # three-phase p_r*3 would overflow to an inf cell
    BadConfig("three-phase-overflow",
              [load_edit("kind = admittance\ng_load = 1 S"),
               (r"^voltage = .*", "voltage = 1.5e154 V"), *sweep_grid(299, 301, 3, "lossless")],
              f"{RANGE} 300.0 Hz"),
    # v = 10 km/s: at 1e307 Hz, beta*length = pi*2*f*length/v overflows
    BadConfig("harmonic-index-overflow",
              [(r"^r = .*", "r = 0.03 ohm/km"), (r"^L = .*", "L = 0.1 H/km"),
               (r"^g = .*", "g = 1e-9 S/km"), (r"^C = .*", "C = 0.1 F/km"),
               load_edit("kind = admittance\ng_load = 1 mS"),
               *sweep_grid(1e307, 2e307, 7, "exact")],
              f"{RANGE} 1e+307 Hz", 1e307),
]
BY_ID = {row.id: row for row in ROWS}
assert len(BY_ID) == len(ROWS), "row ids repeat"
