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

`RecordWriter` is the one renderer of records.csv, records.json and the
plot files.  It streams them into open files a chunk of rows at a time
and gives the same bytes however the rows are chunked, so the `sweep`
command never holds more than one chunk.

Every file is written through one atomic writer, `open_atomic`: a
context manager that yields the handle of a `<name>.partial` sibling,
renames it to `<name>` when the block succeeds and deletes it when the
block raises, so a failed or interrupted run leaves neither a
clean-looking half-written output nor a .partial file.
`write_text_atomic` writes one string through it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from io import TextIOBase
from pathlib import Path

from . import __version__
from .sweep import SweepConfig, SweepRecord, TuningDip

__all__ = [
    "CSV_HEADER",
    "CSV_FIELDS",
    "PLOT_QUANTITIES",
    "three_phase_row",
    "RecordWriter",
    "read_sweep_csv",
    "open_atomic",
    "write_text_atomic",
    "dips_report_json",
    "config_digest",
    "build_manifest",
]

CSV_HEADER = "f_hz,p_r_mw,q_r_mvar,q_line_mvar,vs_kv,vr_kv,delta_v,singular"
CSV_FIELDS = tuple(CSV_HEADER.split(","))
PLOT_QUANTITIES = CSV_FIELDS[1:4]

_SQRT3 = 3.0**0.5

_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,false\n"
_SINGULAR_ROW = "%.17g,,,,%.17g,,,true\n"

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


def _json_element(row: tuple) -> str:
    """The records.json array element of one three_phase_row row.

    One template substitution instead of a pass through the pure-Python
    encoder that indent=2 selects.
    """
    values = (row[0], row[4]) if row[7] else row[:7]
    if not math.isfinite(sum(values)):
        # %r would write nan/inf where JSON has NaN/Infinity, so the encoder
        # renders this row ([2:-2] drops its "[\n" and "\n]").  The sum is
        # finite only if every cell is; math.fsum would raise on inf + -inf.
        return json.dumps([dict(zip(CSV_FIELDS, row))], indent=2)[2:-2]
    return (_JSON_SINGULAR_ROW if row[7] else _JSON_ROW) % values


class RecordWriter:
    """Appends a sweep's rows, a chunk at a time, to its open record files.

    csv takes records.csv, records_json records.json (or None) and plots
    one plot file per PLOT_QUANTITIES entry, in that order (or none).
    The heads are written on construction, each `write` appends one chunk
    of three_phase_row rows, and `close` ends records.json.  The bytes do
    not depend on how the rows were chunked.  This is the only code that
    writes these files' heads, separators and tails.
    """

    def __init__(self, csv: TextIOBase, records_json: TextIOBase | None = None,
                 plots: Sequence[TextIOBase] = ()) -> None:
        self._csv, self._json, self._plots = csv, records_json, plots
        self._json_separator = "[\n"  # before the first element; ",\n" after it
        csv.write(f"{CSV_HEADER}\n")
        for fh, quantity in zip(plots, PLOT_QUANTITIES):
            fh.write(f"# f_hz {quantity}\n")

    def write(self, rows: list[tuple]) -> None:
        """Append one chunk of three_phase_row rows to every open file."""
        if not rows:
            return
        csv_lines = "".join(
            [_SINGULAR_ROW % (row[0], row[4]) if row[7] else _ROW % row[:7] for row in rows]
        )
        self._csv.write(csv_lines)
        if self._json is not None:
            self._json.write(self._json_separator + ",\n".join(map(_json_element, rows)))
            self._json_separator = ",\n"
        if self._plots:
            # "f_hz value" lines from the CSV's %.17g cells, so no float is
            # formatted twice; singular rows, whose p_r_mw cell is empty,
            # are left out
            cells = [line.split(",", 4) for line in csv_lines.splitlines()]
            cells = [c for c in cells if c[1]]
            for column, fh in enumerate(self._plots, 1):
                fh.write("".join([f"{c[0]} {c[column]}\n" for c in cells]))

    def close(self) -> None:
        """Write the records.json tail; call once, after the last write."""
        if self._json is not None:
            self._json.write("[]\n" if self._json_separator == "[\n" else "\n]\n")


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


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIOBase]:
    """Yield a text handle on path's .partial sibling; rename it to path on success.

    When the block (or closing the file, or the rename) raises, the
    .partial file is deleted and the exception propagates, so path is
    either the complete text or untouched.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    fh = open(partial, "w", newline="")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:  # includes KeyboardInterrupt; re-raised below
        partial.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path through open_atomic."""
    with open_atomic(path) as fh:
        fh.write(text)


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
