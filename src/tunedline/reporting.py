"""Result serialization: sweep CSV, records JSON, plot data, dips report, manifest.

The library works per phase; every output reports three-phase totals in
MW/MVAr and line-to-line kV.  `three_phase_row` is the one place that
conversion happens (x*3/1e6 for powers, v*sqrt(3)/1e3 for voltages):
records.csv, records.json, the plot files, dips.json and the `solve`
report are all built from its rows.

The CSV schema is fixed and byte-deterministic for a given config:

    f_hz,p_r_mw,q_r_mvar,q_line_mvar,vs_kv,vr_kv,delta_v,singular

Floats are written with 17 significant digits so parsing a file
reproduces the written values exactly.  Singular rows keep f_hz, vs_kv
and the flag and leave the other cells empty.

records.json holds the same rows as an indent-2 JSON array of objects
keyed by the CSV header, with shortest-repr floats (`float.__repr__`, as
`json.dumps` writes them) and null for the empty cells.  The plot files
are `f_hz value` pairs that reuse the CSV's 17-digit cells verbatim, one
line per non-singular row.

All writers go through a .partial temp file and rename on success, so an
interrupted run never leaves a clean-looking half-written output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

from . import __version__
from .sweep import SweepConfig, SweepRecord, TuningDip

__all__ = [
    "CSV_HEADER",
    "CSV_FIELDS",
    "three_phase_row",
    "format_sweep_csv",
    "format_records_json",
    "format_plot_data",
    "read_sweep_csv",
    "write_text_atomic",
    "dips_report_json",
    "config_digest",
    "build_manifest",
]

CSV_HEADER = "f_hz,p_r_mw,q_r_mvar,q_line_mvar,vs_kv,vr_kv,delta_v,singular"
CSV_FIELDS = tuple(CSV_HEADER.split(","))

_SQRT3 = 3.0**0.5

_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,false"
_SINGULAR_ROW = "%.17g,,,,%.17g,,,true"

# records.json array elements, laid out as json.dumps(..., indent=2) lays
# them out; %r is float.__repr__, the call the JSON encoder makes.
_JSON_ROW, _JSON_SINGULAR_ROW = (
    "  {\n" + ",\n".join(f'    "{key}": {cell}' for key, cell in zip(CSV_FIELDS, cells)) + "\n  }"
    for cells in (
        ["%r"] * 7 + ["false"],
        ["%r", "null", "null", "null", "%r", "null", "null", "true"],
    )
)


def three_phase_row(rec: SweepRecord) -> tuple:
    """A per-phase record as a row in CSV column order (see CSV_FIELDS).

    Powers become three-phase MW/MVAr and voltages line-to-line kV; f_hz,
    delta_v and the singular flag pass through, and the cells a singular
    record leaves as None stay None.
    """
    f, p_r, q_r, q_line, vs_mag, vr_mag, delta_v, singular = rec
    if singular:
        return (f, None, None, None, vs_mag * _SQRT3 / 1e3, None, None, True)
    return (
        f,
        p_r * 3.0 / 1e6,
        q_r * 3.0 / 1e6,
        q_line * 3.0 / 1e6,
        vs_mag * _SQRT3 / 1e3,
        vr_mag * _SQRT3 / 1e3,
        delta_v,
        False,
    )


def format_sweep_csv(rows: list[tuple]) -> str:
    """CSV text of three_phase_row rows, header first, newline-terminated."""
    lines = [CSV_HEADER]
    append = lines.append
    for row in rows:
        if row[7]:
            append(_SINGULAR_ROW % (row[0], row[4]))
        else:
            append(_ROW % row[:7])
    return "\n".join(lines) + "\n"


def format_records_json(rows: list[tuple]) -> str:
    """records.json text of three_phase_row rows, newline-terminated.

    Byte-identical to
    json.dumps([dict(zip(CSV_FIELDS, row)) for row in rows], indent=2) + "\n",
    but each row is one template substitution instead of a pass through
    the pure-Python encoder that indent=2 selects.
    """
    if not rows:
        return "[]\n"
    elements = []
    append = elements.append
    for row in rows:
        values = (row[0], row[4]) if row[7] else row[:7]
        if not math.isfinite(sum(values)):
            # %r would write nan/inf where JSON has NaN/Infinity, so the
            # encoder renders this row ([2:-2] drops its "[\n" and "\n]").
            # The sum is finite only if every cell is; math.fsum would
            # raise on inf + -inf.
            append(json.dumps([dict(zip(CSV_FIELDS, row))], indent=2)[2:-2])
        elif row[7]:
            append(_JSON_SINGULAR_ROW % values)
        else:
            append(_JSON_ROW % values)
    return "[\n" + ",\n".join(elements) + "\n]\n"


def format_plot_data(csv_text: str) -> dict[str, str]:
    """Plot file text per quantity (p_r_mw, q_r_mvar, q_line_mvar).

    Each text is a "# f_hz <quantity>" header and one "f_hz value" line per
    non-singular row of csv_text (format_sweep_csv output), newline-
    terminated.  The lines reuse the CSV's %.17g cells, so no float is
    formatted twice; singular rows, whose p_r_mw cell is empty, are left out.
    """
    rows = [line.split(",", 4) for line in csv_text.splitlines()[1:]]
    rows = [cells for cells in rows if cells[1]]
    return {
        quantity: "\n".join([f"# f_hz {quantity}", *[f"{r[0]} {r[column]}" for r in rows]])
        + "\n"
        for column, quantity in enumerate(CSV_FIELDS[1:4], 1)
    }


def read_sweep_csv(path: str | Path) -> list[tuple]:
    """Parse an emitted CSV back into three_phase_row rows (floats round-trip exactly)."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")

    flags = {"true": True, "false": False}

    def parse(line: str) -> tuple:
        cells = line.split(",")
        if len(cells) != 8 or cells[7] not in flags:
            raise ValueError(line)
        return tuple(None if c == "" else float(c) for c in cells[:7]) + (flags[cells[7]],)

    rows = []
    for line in lines[1:]:
        try:
            rows.append(parse(line))
        except ValueError:
            raise ValueError(f"{path}: malformed row {line!r}") from None
    return rows


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a .partial sibling and rename, so failures leave no clean file."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w", newline="") as fh:
        fh.write(text)
    os.replace(partial, path)


def dips_report_json(dips: list[TuningDip]) -> str:
    """Dips as a JSON array; q_line_at_dip in three-phase MVAr."""
    payload = [
        {
            "f_detected": d.f_detected,
            "n_matched": d.n_matched,
            # a one-field record, so the dip goes through the same conversion
            "q_line_at_dip": three_phase_row(
                SweepRecord(d.f_detected, 0.0, 0.0, d.q_line_at_dip, 0.0, 0.0, 0.0, False)
            )[3],
        }
        for d in dips
    ]
    return json.dumps(payload, indent=2) + "\n"


def config_digest(cfg: SweepConfig) -> str:
    """Content hash of the resolved config (nested, sorted-key JSON); stable across runs."""
    nested = {**cfg._asdict(), "line": cfg.line._asdict(), "load": cfg.load._asdict()}
    canonical = json.dumps(nested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_manifest(cfg: SweepConfig, outputs: list[str]) -> dict:
    """manifest.json content: config digest, tool version, UTC timestamp, outputs."""
    return {
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "outputs": list(outputs),
    }
