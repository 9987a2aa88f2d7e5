"""Tests for the three-phase conversion and the CSV row template."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tunedline import SweepRecord, three_phase_row
from tunedline.reporting import CSV_FIELDS, CSV_HEADER, format_sweep_csv

finite = st.floats(allow_nan=False, allow_infinity=False)


def per_cell_line(row: tuple) -> str:
    """A CSV line built cell by cell with format(x, '.17g')."""
    cells = ["" if value is None else format(value, ".17g") for value in row[:7]]
    return ",".join([*cells, "true" if row[7] else "false"])


def test_csv_fields_follow_header():
    assert ",".join(CSV_FIELDS) == CSV_HEADER
    assert len(CSV_FIELDS) == len(SweepRecord._fields)


@given(values=st.tuples(*[finite] * 7))
@settings(max_examples=500)
def test_template_line_matches_per_cell_format(values):
    row = (*values, False)
    assert format_sweep_csv([row]) == f"{CSV_HEADER}\n{per_cell_line(row)}\n"


@given(f=finite, vs_kv=finite)
@settings(max_examples=200)
def test_singular_template_line_matches_per_cell_format(f, vs_kv):
    row = (f, None, None, None, vs_kv, None, None, True)
    assert format_sweep_csv([row]) == f"{CSV_HEADER}\n{per_cell_line(row)}\n"


@given(values=st.tuples(*[finite] * 7))
@settings(max_examples=300)
def test_three_phase_row_units(values):
    f, p_r, q_r, q_line, vs_mag, vr_mag, delta_v = values
    row = three_phase_row(SweepRecord(*values, False))
    # x*3/1e6 and v*sqrt(3)/1e3, in this operation order: the CSV bytes
    # depend on it
    assert row == (
        f,
        p_r * 3.0 / 1e6,
        q_r * 3.0 / 1e6,
        q_line * 3.0 / 1e6,
        vs_mag * 3.0**0.5 / 1e3,
        vr_mag * 3.0**0.5 / 1e3,
        delta_v,
        False,
    )


def test_three_phase_row_of_singular_record():
    row = three_phase_row(SweepRecord(75.0, None, None, None, 127e3, None, None, True))
    assert row == (75.0, None, None, None, 127e3 * 3.0**0.5 / 1e3, None, None, True)
