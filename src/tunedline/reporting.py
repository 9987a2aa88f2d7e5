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
it out.  Every element, singular or not, is one template filled with
the row's eight CSV cells, each spelled by one rule: an empty cell is
null, a cell with neither `.` nor `e` (`50`, `-0`) gets `.0`, and
every other cell (a 17-digit number, false, true) is kept as it is.  So
every number loads as the same float, signed zeros included.  The plot
files are `f_hz value` pairs of the same cells, one line per
non-singular row.

dips.json is one template too: each dip fills an element laid out as
`json.dumps(..., indent=2)` lays it out, with its floats spelled by
repr and n_matched by its digits, as json spells them.  A dip comes
from a non-singular row, so its cells are finite, and the bytes are
those json gives.

`RecordWriter` is the one renderer of records.csv, records.json and the
plot files.  It streams them into open files a chunk of records at a
time and gives the same bytes however the records are chunked, so the
`sweep` command never holds more than one chunk.  Its contract is the
records of one sweep, as `sweep_points` gives them: every record holds
the same vs_kv float and only finite cells (None in a singular row's
empty cells).  It formats each float once, into the records.csv row:
vs_kv once per chunk, from the chunk's first record, and every other
cell with one %-template per row.  records.json and the plot files are
cut from the chunk's rows, split once into cells: one template fills a
chunk's records.json, and each plot file is two column slices of them.

Every file is written through one atomic writer, `open_atomic`: a
context manager that yields the handle of a `<path>.partial` file,
renames it to `<path>` when the block succeeds and deletes it when the
block raises, so a failed or interrupted run leaves neither a
clean-looking half-written output nor a .partial file.  The `sweep`
command holds every file of a run open at once, so none is renamed
before all are written, and manifest.json is renamed last.
"""

from __future__ import annotations

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

# records.json array element, laid out as json.dumps(..., indent=2) lays
# it out, filled with the JSON spellings of a row's eight CSV cells.
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %s' for key in CSV_FIELDS) + "\n  }"

# dips.json array element in the same layout, spelled as json spells a
# dip's finite floats (repr) and its int (digits)
_JSON_DIP = '  {\n    "f_detected": %r,\n    "n_matched": %d,\n    "q_line_at_dip": %r\n  }'


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
    from the chunk's cells, split once from those rows, records.json by
    one template of the chunk's elements (a singular row's cells null).

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
        text = "".join([
            singular_row % (f,) if singular else row % (f, p_r, q_r, q_line, vr_kv, delta_v)
            for f, p_r, q_r, q_line, _, vr_kv, delta_v, singular in records
        ])
        self._csv.write(text)
        if self._json is None and not self._plots:
            return
        # records.json and the plot files reuse the CSV cells, so no float is
        # formatted twice: eight cells a row, less the one after the last newline
        cells = text.replace("\n", ",").split(",")
        del cells[-1]
        if self._json is not None:
            # two writes, so the chunk's JSON text is not copied to prepend the separator
            self._json.write(self._json_separator)
            # an empty cell is null, and one with neither . nor e (50, -0) gets
            # .0, or it would load as an int (-0 as the int 0)
            self._json.write(",\n".join([_JSON_ROW] * len(records)) % tuple([
                c if "." in c or "e" in c else c + ".0" if c else "null" for c in cells]))
            self._json_separator = ",\n"
        if self._plots:
            f_hz = cells[0::8]
            for column, fh in enumerate(self._plots, 1):
                # a singular row's value cells are empty: it has no plot line
                fh.write("".join([f"{f} {v}\n" for f, v in zip(f_hz, cells[column::8]) if v]))

    def close(self) -> None:
        """Write the records.json tail; call once, after the last write."""
        if self._json is not None:
            self._json.write("[]\n" if self._json_separator == "[\n" else "\n]\n")


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIOBase]:
    """Yield a text handle on path + ".partial"; rename it to path on success.

    path is a str or a Path, taken as `os.fspath` spells it: a str
    ending in / would put the .partial file inside that directory.
    When the block (or closing the file, or the rename) raises, the
    .partial file is deleted and the exception propagates, so path is
    either the complete text or untouched.
    """
    partial = os.fspath(path) + ".partial"
    fh = open(partial, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:  # includes KeyboardInterrupt; re-raised below
        try:
            os.unlink(partial)
        except FileNotFoundError:
            pass
        raise


def dips_report_json(dips: Sequence[TuningDip]) -> str:
    """Dips as a JSON array of objects keyed by the TuningDip fields, one
    template per dip, in the bytes `json.dumps(..., indent=2)` gives."""
    if not dips:
        return "[]\n"
    return "[\n" + ",\n".join([_JSON_DIP % dip for dip in dips]) + "\n]\n"


def config_digest(cfg: SweepConfig) -> str:
    """Content hash of the resolved config (nested, sorted-key JSON); stable across runs."""
    import hashlib  # here, not at module level: only sweep's manifest hashes
    nested = {**cfg._asdict(), "line": cfg.line._asdict(), "load": cfg.load._asdict()}
    canonical = json.dumps(nested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_manifest(cfg: SweepConfig, outputs: list[str | Path]) -> dict:
    """manifest.json content: config digest, tool version, UTC timestamp, outputs.

    Each output path is spelled as the UTF-8 reading of its bytes, so it
    does not depend on the locale that decoded it; bytes that are not
    UTF-8 stay as lone surrogates, as the file system's str spells them.
    """
    return {
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "outputs": [os.fsencode(path).decode("utf-8", "surrogateescape") for path in outputs],
    }
