"""Declarative experiment configs: INI files with unit-suffixed values.

A config has four sections whose keys mirror the SweepConfig fields:

    [line]
    r = 0 ohm/km
    L = 1.0 mH/km
    g = 0 S/km
    C = 1.1111111111111112e-08 F/km
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
    f_end = 1000 Hz
    n_points = 951
    model = lossless

Values may carry a unit suffix from the tables below; bare numbers are
taken in the base unit (km, Hz, V, VAr, W, ohm/km, H/km, S/km, F/km, S,
F, ohm).  Unit tokens are case-sensitive (m and M differ).  model is one
of: exact, lossless, pi-cascade, pi-cascade(N).  Numbers are ASCII decimal
with an optional sign and exponent, finite in base units.  Each line,
stripped of ASCII blanks, is blank, a ; or # comment, a whole-line [name]
header or one `key = value` pair; [DEFAULT] is an unknown section.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

from .linemodel import LineParameters
from .powerflow import LoadSpec
from .sweep import MODEL_CHOICES, SweepConfig

__all__ = [
    "ConfigError",
    "parse_sweep_config",
    "load_sweep_config",
    "bundled_config_names",
    "bundled_config_path",
    "resolve_config_arg",
]


class ConfigError(ValueError):
    """A config file is missing, malformed, or fails validation."""


_LENGTH = {"km": 1.0, "m": 1e-3}
_FREQ = {"Hz": 1.0, "kHz": 1e3}
_VOLT = {"V": 1.0, "kV": 1e3, "MV": 1e6}
_REACTIVE = {"VAr": 1.0, "kVAr": 1e3, "MVAr": 1e6, "var": 1.0, "kvar": 1e3, "Mvar": 1e6}
_ACTIVE = {"W": 1.0, "kW": 1e3, "MW": 1e6}
_R_PER_KM = {"ohm/km": 1.0, "mohm/km": 1e-3}
_L_PER_KM = {"H/km": 1.0, "mH/km": 1e-3, "uH/km": 1e-6}
_G_PER_KM = {"S/km": 1.0, "mS/km": 1e-3, "uS/km": 1e-6, "nS/km": 1e-9}
_C_PER_KM = {"F/km": 1.0, "uF/km": 1e-6, "nF/km": 1e-9, "pF/km": 1e-12}
_CONDUCTANCE = {"S": 1.0, "mS": 1e-3, "uS": 1e-6}
_CAPACITANCE = {"F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12}
_RESISTANCE = {"ohm": 1.0, "kohm": 1e3}

_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_MODEL_RE = re.compile(r"pi-cascade\(([0-9]+)\)")
# '<number>[ <unit>]', the unit apart by ASCII spaces or tabs: \S excludes
# the other whitespace (a no-break space, say), which str.split() splits on
_QUANTITY_RE = re.compile(r"[ \t]*(\S+)(?:[ \t]+(\S+))?[ \t]*")

# characters of a config value an error message echoes
_QUOTE_CHARS = 20


def _quoted(text: str) -> str:
    """repr(text) for an error message; a longer text is cut to its first
    _QUOTE_CHARS characters and its length is stated."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _read_sections(text: str, origin: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of INI text, keys lowercased.  Lines end at LF or
    CRLF; each, stripped of ASCII blanks, must be blank, a ; or # comment, a
    whole-line [name] header or a key = value pair split at its first =."""
    sections: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        where = f"{origin}: line {lineno}"
        if not line or line[0] in ";#":
            continue
        if len(line) > 2 and line[0] == "[" and line[-1] == "]":
            name = line[1:-1]
            if name in sections:
                raise ConfigError(f"{where}: section {_quoted(name)} repeats")
            section = sections[name] = {}
            continue
        if section is None:
            raise ConfigError(f"{where}: {_quoted(raw)} comes before the first [section] header")
        key, eq, value = line.partition("=")
        key = key.rstrip(" \t").lower()
        if not (eq and key):
            raise ConfigError(
                f"{where}: {_quoted(raw)} is neither a [section] header nor a key = value line"
            )
        if key in section:
            raise ConfigError(f"{where}: key {_quoted(key)} repeats in section {_quoted(name)}")
        section[key] = value.lstrip(" \t")
    return sections


def _parse_int(text: str, where: str) -> int:
    """text read by _INT_RE, or a ConfigError naming where; text is not echoed whole."""
    if not _INT_RE.fullmatch(text):
        raise ConfigError(f"{where}: {_quoted(text)} is not an integer")
    try:
        return int(text)
    except ValueError:  # text is an integer, so int() refuses it for its length
        raise ConfigError(
            f"{where}: an integer of {len(text.lstrip('+-'))} digits, more than the "
            f"{sys.get_int_max_str_digits()} accepted"
        ) from None


def parse_quantity(text: str, units: dict[str, float], *, where: str) -> float:
    """Parse '<number>[ <unit>]' normalizing the unit suffix to base units;
    the number matches _FLOAT_RE, the unit follows after ASCII spaces or
    tabs, and the value must be finite."""
    match = _QUANTITY_RE.fullmatch(text)
    if not match:
        raise ConfigError(f"{where}: expected '<number> [unit]', got {_quoted(text)}")
    number, unit = match.groups()
    if not _FLOAT_RE.fullmatch(number):
        raise ConfigError(f"{where}: {_quoted(number)} is not a number")
    if unit is not None and unit not in units:
        allowed = ", ".join(sorted(units))
        raise ConfigError(f"{where}: unknown unit {_quoted(unit)} (allowed: {allowed})")
    value = float(number) * (1.0 if unit is None else units[unit])
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {_quoted(text)} is out of float range")
    return value


class _Section:
    """One config section with typed getters; each getter pops its key, so
    the keys left in raw are the unknown ones."""

    def __init__(self, sections: dict[str, dict[str, str]], name: str, origin: str):
        self.name = name
        self.raw = sections[name]
        self.origin = origin

    def _where(self, key: str) -> str:
        return f"{self.origin}: [{self.name}] {key}"

    def get_str(self, key: str, default: str | None = None) -> str:
        text = self.raw.pop(key, default)
        if text is None:
            raise ConfigError(f"{self._where(key)} is required")
        return text

    def get(self, key: str, units: dict[str, float], default: str | None = None) -> float:
        return parse_quantity(self.get_str(key, default), units, where=self._where(key))

    def get_int(self, key: str) -> int:
        return _parse_int(self.get_str(key), self._where(key))

    def check_no_extras(self) -> None:
        extras = ", ".join(sorted(self.raw))
        if extras:
            raise ConfigError(f"{self.origin}: unknown key(s) in [{self.name}]: {_quoted(extras)}")


def parse_sweep_config(text: str, origin: str = "<config>") -> SweepConfig:
    """Parse config text into a validated SweepConfig."""
    sections = _read_sections(text, origin)
    required = {"line", "load", "source", "sweep"}
    missing = required - sections.keys()
    if missing:
        raise ConfigError(f"{origin}: missing section(s): {', '.join(sorted(missing))}")
    extras = ", ".join(sorted(sections.keys() - required))
    if extras:
        raise ConfigError(f"{origin}: unknown section(s): {_quoted(extras)}")

    line_sec = _Section(sections, "line", origin)
    L, C = line_sec.get("l", _L_PER_KM), line_sec.get("c", _C_PER_KM)
    r, g = line_sec.get("r", _R_PER_KM, default="0"), line_sec.get("g", _G_PER_KM, default="0")
    try:
        line = LineParameters(L=L, C=C, r=r, g=g)
    except ValueError as exc:
        raise ConfigError(f"{origin}: [line]: {exc}") from None
    length = line_sec.get("length", _LENGTH)
    line_sec.check_no_extras()

    load = _parse_load(_Section(sections, "load", origin), origin)

    source_sec = _Section(sections, "source", origin)
    voltage = source_sec.get("voltage", _VOLT)
    source_sec.check_no_extras()

    sweep_sec = _Section(sections, "sweep", origin)
    f_start = sweep_sec.get("f_start", _FREQ)
    f_end = sweep_sec.get("f_end", _FREQ)
    n_points = sweep_sec.get_int("n_points")
    model = _parse_model(sweep_sec.get_str("model", default="lossless"), origin)
    sweep_sec.check_no_extras()

    try:
        return SweepConfig(
            line=line,
            length=length,
            source_voltage=voltage,
            load=load,
            f_start=f_start,
            f_end=f_end,
            n_points=n_points,
            **model,
        )
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None


def _parse_load(sec: _Section, origin: str) -> LoadSpec:
    kind = sec.get_str("kind")
    try:
        if kind == "admittance":
            load = LoadSpec(
                g_load=sec.get("g_load", _CONDUCTANCE, default="0"),
                c_load=sec.get("c_load", _CAPACITANCE, default="0"),
            )
        elif kind == "fixed-capacitance-rated":
            rated_v = sec.get("rated_v", _VOLT)
            g_load = sec.get("g_load", _CONDUCTANCE, default="0")
            if "rated_p" in sec.raw:
                # resistive component given as active power at the rating voltage
                g_load += sec.get("rated_p", _ACTIVE) / rated_v**2
            load = LoadSpec.from_rated_capacitor(
                rated_q=sec.get("rated_q", _REACTIVE),
                rated_v=rated_v,
                rated_f=sec.get("rated_f", _FREQ),
                g_load=g_load,
            )
        elif kind == "impedance":
            load = LoadSpec.from_impedance(
                resistance=sec.get("resistance", _RESISTANCE),
                c_load=sec.get("c_load", _CAPACITANCE, default="0"),
            )
        else:
            raise ConfigError(f"{origin}: [load] kind must be one of "
                              f"admittance, fixed-capacitance-rated, impedance")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{origin}: [load]: {exc}") from None
    except ArithmeticError:  # rated_v**2 overflows, is zero under rated_p, or C over/underflows
        raise ConfigError(f"{origin}: [load]: ratings give a load out of float range") from None
    sec.check_no_extras()
    return load


def _parse_model(text: str, origin: str) -> dict:
    """The SweepConfig model field, and pi_sections when the text gives N."""
    if text in MODEL_CHOICES:
        return {"model": text}
    match = _MODEL_RE.fullmatch(text)
    if match:
        n = _parse_int(match.group(1), f"{origin}: [sweep] model pi-cascade(N)")
        return {"model": "pi-cascade", "pi_sections": n}
    raise ConfigError(
        f"{origin}: [sweep] model must be exact, lossless, pi-cascade or pi-cascade(N), "
        f"got {_quoted(text)}"
    )


def load_sweep_config(path: str | Path) -> SweepConfig:
    """Read and parse a config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_sweep_config(text, origin=str(path))


def _is_file(path: Path) -> bool:
    """path.is_file(), False also for a path the OS refuses to look up
    (a file name longer than its limit, say)."""
    try:
        return path.is_file()
    except OSError:
        return False


def bundled_config_names() -> list[str]:
    """Names of the configs shipped with the package."""
    return sorted(p.stem for p in Path(__file__).parent.glob("configs/*.ini"))


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled config, by name or filename.

    Only a name from `bundled_config_names()`, with or without `.ini`,
    is accepted; a path (anything holding a separator) is not a name.
    """
    stem = name.removesuffix(".ini")
    if stem not in bundled_config_names():
        raise ConfigError(
            f"no bundled config named {_quoted(name)} (available: "
            f"{', '.join(bundled_config_names())})"
        )
    return Path(__file__).parent / "configs" / f"{stem}.ini"


def resolve_config_arg(value: str) -> Path:
    """Interpret a --config argument: a filesystem path, else a bundled name."""
    path = Path(value)
    if _is_file(path):
        return path
    try:
        return bundled_config_path(value)
    except ConfigError:
        raise ConfigError(
            f"config {_quoted(value)} is neither a file nor a bundled config name "
            f"(bundled: {', '.join(bundled_config_names())})"
        ) from None
