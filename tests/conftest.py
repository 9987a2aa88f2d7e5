"""Shared helpers: two-port comparison at mixed entry scales, a whole sweep
and its dips as lists, reference dips, and record-file oracles."""

from __future__ import annotations

import json
import re
from pathlib import Path

from tunedline import (
    Frequency,
    SweepRecord,
    TuningDip,
    TwoPort,
    is_tuned,
    summarize,
    sweep_points,
)
from tunedline.reporting import CSV_FIELDS, CSV_HEADER


def twoport_max_error(m1: TwoPort, m2: TwoPort, z_ref: float = 300.0) -> float:
    """Largest entry difference with b and c normalized to dimensionless form.

    b is divided by z_ref and c multiplied by it, so one number bounds the
    error of all four entries on a comparable scale.
    """
    return max(
        abs(m1.a - m2.a),
        abs(m1.d - m2.d),
        abs(m1.b - m2.b) / z_ref,
        abs(m1.c - m2.c) * z_ref,
    )


def assert_twoport_close(
    m1: TwoPort, m2: TwoPort, rtol: float, z_ref: float = 300.0
) -> None:
    """Per-entry relative comparison against each entry's natural scale.

    Entries that are incidentally near zero (b and c at a tuning point)
    are judged against the characteristic scale of their unit (z_ref for
    b, 1/z_ref for c, unity for a and d) instead of against themselves.
    """
    for name, floor in (("a", 1.0), ("d", 1.0), ("b", z_ref), ("c", 1.0 / z_ref)):
        x = getattr(m1, name)
        y = getattr(m2, name)
        scale = max(floor, abs(x), abs(y))
        assert abs(x - y) <= rtol * scale, (
            f"entry {name}: {x} vs {y}, diff {abs(x - y):.3e} > {rtol:.1e} * {scale:.3e}"
        )


def sweep_records(cfg) -> list:
    """Every record of cfg's sweep, collected from the stream."""
    return list(sweep_points(cfg, cfg.grid()))


def window_dips(records, length: float, velocity: float) -> list:
    """The dips that `summarize` finds in the records."""
    return summarize(records, length, velocity).dips


def reference_tuning_dips(records: list, length: float, velocity: float) -> list:
    """Tuning dips found by indexing the whole record list.

    The detection rules of `summarize`, written as a plain loop with both
    neighbours looked up by index: the oracle its one pass is checked
    against.
    """
    step = records[1].f_hz - records[0].f_hz

    def magnitude(rec):
        return None if rec.singular else abs(rec.q_line_mvar)

    dips = []
    last = len(records) - 1
    for i, rec in enumerate(records):
        q = magnitude(rec)
        if q is None:
            continue
        left = magnitude(records[i - 1]) if i > 0 else None
        right = magnitude(records[i + 1]) if i < last else None
        if i == 0:
            is_dip = right is not None and q < right
        elif i == last:
            is_dip = left is not None and q < left
        else:
            is_dip = left is not None and right is not None and q < left and q < right
        if is_dip:
            try:
                _, nearest = is_tuned(length, Frequency(rec.f_hz), velocity)
                n = nearest.n if abs(rec.f_hz - nearest.value) <= 2.0 * step else 0
            except ValueError:  # 2*f*length/v overflows: no harmonic to match
                n = 0
            dips.append(TuningDip(f_detected=rec.f_hz, n_matched=n, q_line_at_dip=rec.q_line_mvar))
    return dips


def per_cell_line(row: tuple) -> str:
    """A CSV line built cell by cell with format(x, '.17g')."""
    cells = ["" if value is None else format(value, ".17g") for value in row[:7]]
    return ",".join([*cells, "true" if row[7] else "false"])


def records_csv_per_cell(rows: list[tuple]) -> str:
    """records.csv built line by line with per_cell_line."""
    return "".join(f"{line}\n" for line in [CSV_HEADER, *map(per_cell_line, rows)])


def json_number_per_cell(value: float) -> str:
    """format(value, '.17g'), with .0 appended when it has neither . nor e."""
    cell = format(value, ".17g")
    return cell if "." in cell or "e" in cell else cell + ".0"


def records_json_per_cell(rows: list[tuple]) -> str:
    """records.json in the layout json.dumps(..., indent=2) gives the rows,
    each float spelled by json_number_per_cell.

    The encoder lays out the objects with every float replaced by a string
    marked with a NUL; the marked strings are then unquoted.
    """
    objects = [
        {key: "\0" + json_number_per_cell(v) if isinstance(v, float) else v
         for key, v in zip(CSV_FIELDS, row)}
        for row in rows
    ]
    return re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(objects, indent=2)) + "\n"


def read_records_csv(path) -> list:
    """records.csv parsed back into SweepRecords: an empty cell is None,
    the others float, and the last cell the true/false flag."""
    header, *lines = Path(path).read_text().splitlines()
    assert header == CSV_HEADER
    flags = {"true": True, "false": False}
    return [
        SweepRecord(*[None if c == "" else float(c) for c in cells], flags[flag])
        for *cells, flag in (line.split(",") for line in lines)
    ]


def plot_data_per_cell(rows: list[tuple]) -> dict[str, str]:
    """The plot files built cell by cell with format(x, '.17g') from the rows."""
    out = {}
    for quantity in ("p_r_mw", "q_r_mvar", "q_line_mvar"):
        column = CSV_FIELDS.index(quantity)
        lines = [f"# f_hz {quantity}"]
        for row in rows:
            value = row[column]
            if value is not None:
                lines.append(f"{format(row[0], '.17g')} {format(value, '.17g')}")
        out[quantity] = "\n".join(lines) + "\n"
    return out
