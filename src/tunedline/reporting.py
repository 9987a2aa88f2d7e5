"""Result serialization: sweep CSV, records JSON, plot data, dips report, manifest.

Every output reports the sweep's records as they come: three-phase
totals in MW/MVAr and line-to-line kV, converted once in the sweep loop
(see `sweep`).  records.csv, records.json, the plot files, dips.json and
the `solve` report all carry those values unchanged.

The CSV schema is fixed and byte-deterministic for a given config; its
columns are the `SweepRecord` fields:

    f_hz,p_r_mw,q_r_mvar,q_line_mvar,vs_kv,vr_kv,delta_v,singular

Floats are written with 17 significant digits so parsing a file
reproduces the written values exactly.  Singular rows keep f_hz, vs_kv
and the flag and leave the other cells empty.

records.json holds the same rows as an indent-2 JSON array of objects
keyed by the CSV header, laid out as `json.dumps(..., indent=2)` lays
it out, with null for the empty cells.  Its numbers are the CSV's
17-digit cells, with `.0` appended to a cell that has neither `.` nor
`e` (`50`, `-0`), so every number loads as the same float, signed zeros
included.  The plot files are `f_hz value` pairs of the same cells, one
line per non-singular row.

`RecordWriter` is the one renderer of records.csv, records.json and the
plot files.  It streams them into open files a chunk of records at a
time and gives the same bytes however the records are chunked, so the
`sweep` command never holds more than one chunk.  Its contract is the
records of one sweep, as `sweep_points` gives them: every record holds
the same vs_kv float and only finite cells (None in a singular row's
empty cells).  It formats each float once, into the records.csv row:
vs_kv once per chunk, from the chunk's first record, and every other
cell with one %-template per row.  records.json and the plot files are
cut from those rows, with one split into cells per row that both share.

Every file is written through one atomic writer, `open_atomic`: a
context manager that yields the handle of a `<name>.partial` sibling,
renames it to `<name>` when the block succeeds and deletes it when the
block raises, so a failed or interrupted run leaves neither a
clean-looking half-written output nor a .partial file.  The `sweep`
command holds every file of a run open at once, so none is renamed
before all are written, and manifest.json is renamed last.
"""

from __future__ import annotations

import hashlib
import json
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
    "RecordWriter",
    "open_atomic",
    "dips_report_json",
    "config_digest",
    "build_manifest",
]

CSV_FIELDS = SweepRecord._fields
CSV_HEADER = ",".join(CSV_FIELDS)
PLOT_QUANTITIES = CSV_FIELDS[1:4]

# Row templates filled in two steps.  `_ROW % (vs_kv,)` formats the vs_kv
# cell and turns every escaped %% into %, which leaves the template of
# each row of the sweep; the rows fill the rest.
_ROW = "%%.17g,%%.17g,%%.17g,%%.17g,%.17g,%%.17g,%%.17g,false\n"
_SINGULAR_ROW = "%%.17g,,,,%.17g,,,true\n"

# records.json array elements, laid out as json.dumps(..., indent=2) lays
# them out, filled with the JSON spellings of the CSV cells.
_JSON_ROW, _JSON_SINGULAR_ROW = (
    "  {\n" + ",\n".join(f'    "{key}": {cell}' for key, cell in zip(CSV_FIELDS, cells)) + "\n  }"
    for cells in (
        ["%s"] * 7 + ["false"],
        ["%s", "null", "null", "null", "%s", "null", "null", "true"],
    )
)


def _json_number(cell: str) -> str:
    """A CSV cell as a JSON number that loads as the same float: `.0` is
    appended to a cell with neither `.` nor `e`, which would load as an
    int (and `-0` as the int 0)."""
    return cell if "." in cell or "e" in cell else cell + ".0"


class RecordWriter:
    """Appends a sweep's records, a chunk at a time, to its open record files.

    csv takes records.csv, records_json records.json (or None) and plots
    one plot file per PLOT_QUANTITIES entry, in that order (or none).
    The heads are written on construction, each `write` appends one chunk
    of records (8-tuples in CSV_FIELDS order, such as SweepRecords), and
    `close` ends records.json.  The bytes do not depend on how the
    records were chunked.  This is the only code that writes these
    files' heads, separators and tails.  Each float is formatted once,
    into its records.csv row; records.json and the plot files are cut
    from that row's cells.

    The records must be one sweep's: one vs_kv value throughout and
    finite cells, which `sweep_points` guarantees.  Hand-made rows that
    break this are not supported: a chunk's rows all get its first
    record's vs_kv cell, and a nan or infinite cell comes out as nan or
    inf, which is not JSON.
    """

    def __init__(self, csv: TextIOBase, records_json: TextIOBase | None = None,
                 plots: Sequence[TextIOBase] = ()) -> None:
        self._csv, self._json, self._plots = csv, records_json, plots
        self._json_separator = "[\n"  # before the first element; ",\n" after it
        csv.write(f"{CSV_HEADER}\n")
        for fh, quantity in zip(plots, PLOT_QUANTITIES):
            fh.write(f"# f_hz {quantity}\n")

    def write(self, records: Sequence[tuple]) -> None:
        """Append one chunk of records to every open file; the vs_kv cell
        is formatted once, from the first record."""
        if not records:
            return
        vs_kv = records[0][4]
        row, singular_row = _ROW % (vs_kv,), _SINGULAR_ROW % (vs_kv,)
        csv_rows = [
            singular_row % (f,) if singular else row % (f, p_r, q_r, q_line, vr_kv, delta_v)
            for f, p_r, q_r, q_line, _, vr_kv, delta_v, singular in records
        ]
        self._csv.write("".join(csv_rows))
        if self._json is None and not self._plots:
            return
        # records.json and the plot files reuse the CSV cells, so no float
        # is formatted twice; a singular row's p_r_mw cell is empty
        cells = [csv_row.split(",") for csv_row in csv_rows]
        if self._json is not None:
            elements = [
                _JSON_ROW % tuple(map(_json_number, c[:7])) if c[1]
                else _JSON_SINGULAR_ROW % (_json_number(c[0]), _json_number(c[4]))
                for c in cells
            ]
            self._json.write(self._json_separator + ",\n".join(elements))
            self._json_separator = ",\n"
        if self._plots:
            plotted = [c for c in cells if c[1]]
            for column, fh in enumerate(self._plots, 1):
                fh.write("".join([f"{c[0]} {c[column]}\n" for c in plotted]))

    def close(self) -> None:
        """Write the records.json tail; call once, after the last write."""
        if self._json is not None:
            self._json.write("[]\n" if self._json_separator == "[\n" else "\n]\n")


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


def dips_report_json(dips: list[TuningDip]) -> str:
    """Dips as a JSON array of objects keyed by the TuningDip fields."""
    return json.dumps([d._asdict() for d in dips], indent=2) + "\n"


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
