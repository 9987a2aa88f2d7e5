"""Tests for the record file writer, the dips report and the atomic file writes."""

from __future__ import annotations

import io
import json
import math
import random
import re
from pathlib import Path

import pytest
from conftest import plot_data_per_cell, records_csv_per_cell, records_json_per_cell
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunedline import SweepRecord, TuningDip
from tunedline.cli import CHUNK_POINTS
from tunedline.reporting import (
    CSV_FIELDS,
    CSV_HEADER,
    PLOT_QUANTITIES,
    RecordWriter,
    dips_report_json,
    open_atomic,
)

finite = st.floats(allow_nan=False, allow_infinity=False)

# any finite float, with the edge cases the encoders treat specially drawn often
cell = st.one_of(
    finite,
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    ),
)


def one_sweep_rows(vs_kv: float):
    """Lists of rows as one sweep gives them: finite cells, and every row
    holding the same vs_kv float object."""
    plain_row = st.tuples(*[cell] * 6).map(lambda v: (*v[:4], vs_kv, *v[4:], False))
    singular_row = cell.map(lambda f: (f, None, None, None, vs_kv, None, None, True))
    return st.lists(st.one_of(plain_row, singular_row), max_size=12)


rows_strategy = cell.flatmap(one_sweep_rows)

SINGULAR_75 = (75.0, None, None, None, 220.0, None, None, True)


def write_records(rows: list[tuple], cuts: list[int] = ()) -> tuple[str, str, list[str]]:
    """records.csv, records.json and plot file texts RecordWriter gives for rows.

    The rows go in as chunks split at the cuts (empty chunks included).
    """
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    csv, records_json = io.StringIO(), io.StringIO()
    plots = [io.StringIO() for _ in PLOT_QUANTITIES]
    writer = RecordWriter(csv, records_json, plots)
    for start, end in zip(bounds, bounds[1:]):
        writer.write(rows[start:end])
    writer.close()
    return csv.getvalue(), records_json.getvalue(), [fh.getvalue() for fh in plots]


def test_csv_fields_follow_header():
    assert ",".join(CSV_FIELDS) == CSV_HEADER
    assert CSV_FIELDS == SweepRecord._fields


@given(values=st.tuples(*[finite] * 7))
@settings(max_examples=500)
def test_template_line_matches_per_cell_format(values):
    row = (*values, False)
    assert write_records([row])[0] == records_csv_per_cell([row])


@given(f=finite, vs_kv=finite)
@settings(max_examples=200)
def test_singular_template_line_matches_per_cell_format(f, vs_kv):
    row = (f, None, None, None, vs_kv, None, None, True)
    assert write_records([row])[0] == records_csv_per_cell([row])


def _every_cell(value: float) -> list[tuple]:
    """One plain and one singular row with every float cell set to value."""
    return [(*[value] * 7, False), (value, None, None, None, value, None, None, True)]


@given(rows=rows_strategy, cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=6))
@example(rows=[], cuts=[])
@example(rows=[], cuts=[0, 0])
@example(rows=[SINGULAR_75], cuts=[])
@example(rows=[SINGULAR_75], cuts=[0, 1, 1])
@example(rows=[(1.0, 1.7976931348623157e308, -5e-324, -0.0, 5e-324, 0.1,
                2.2250738585072014e-308, False)], cuts=[])
# singular and plain rows through the one records.json template, each chunk cut
# where vs_kv changes and starting or ending on a singular row
@example(rows=[SINGULAR_75, *_every_cell(50.0)[::-1], *_every_cell(50.0), SINGULAR_75],
         cuts=[1, 5])
@example(rows=[*_every_cell(-0.0)[::-1], *_every_cell(-0.0), SINGULAR_75], cuts=[4, 4])
@example(rows=[SINGULAR_75, *_every_cell(50.0), *_every_cell(-0.0)[::-1], SINGULAR_75],
         cuts=[1, 3, 5])
@settings(max_examples=200)
def test_record_writer_chunks_equal_whole_list_formatters(rows, cuts):
    # rows split at the cuts give the bytes the whole-list oracles give for all rows
    csv_text, json_text, plot_texts = write_records(rows, cuts)
    assert csv_text == records_csv_per_cell(rows)
    assert json_text == records_json_per_cell(rows)
    plot_data = plot_data_per_cell(rows)
    assert plot_texts == [plot_data[q] for q in PLOT_QUANTITIES]


def test_record_writer_full_chunk_equals_whole_list_formatters():
    # one chunk of CHUNK_POINTS rows fills the records.json template with that many
    # elements; a shorter chunk follows and opens on a singular row
    rng = random.Random(24)

    def value() -> float:
        if rng.random() < 0.3:
            return rng.choice([50.0, -0.0, 1e16, 5e-324])
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)

    vs_kv = value()
    rows = [
        (value(), None, None, None, vs_kv, None, None, True) if i % 61 == 0
        else (*[value() for _ in range(4)], vs_kv, value(), value(), False)
        for i in range(CHUNK_POINTS + 733)
    ]
    rows[CHUNK_POINTS] = (75.0, None, None, None, vs_kv, None, None, True)
    csv_text, json_text, plot_texts = write_records(rows, [CHUNK_POINTS])
    assert csv_text == records_csv_per_cell(rows)
    assert json_text == records_json_per_cell(rows)
    plot_data = plot_data_per_cell(rows)
    assert plot_texts == [plot_data[q] for q in PLOT_QUANTITIES]


@given(rows=rows_strategy)
@example(rows=_every_cell(50.0))
@example(rows=_every_cell(-0.0))
@example(rows=_every_cell(1e16))
@example(rows=_every_cell(1e22))
@example(rows=_every_cell(5e-324))
@example(rows=_every_cell(0.1))
@example(rows=_every_cell(1.7976931348623157e308))
@settings(max_examples=200)
def test_records_json_loads_as_the_rows_from_csv_cells(rows):
    csv_text, json_text, _ = write_records(rows)
    loaded = json.loads(json_text)
    assert len(loaded) == len(rows)
    for obj, row in zip(loaded, rows):
        assert list(obj) == list(CSV_FIELDS)
        for got, want in zip(obj.values(), row):
            if isinstance(want, float):
                assert type(got) is float
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
            else:
                assert got is want
    # every number token is the row's CSV cell, or that cell plus .0
    tokens = re.findall(r'^    "\w+": (.+?),?$', json_text, re.MULTILINE)
    csv_cells = [cell for line in csv_text.splitlines()[1:] for cell in line.split(",")]
    assert len(tokens) == len(csv_cells) == 8 * len(rows)
    for token, cell, value in zip(tokens, csv_cells, (v for row in rows for v in row)):
        if isinstance(value, float):
            assert token in (cell, cell + ".0")
        else:
            assert token == json.dumps(value)


dip = st.builds(TuningDip, cell, st.integers(min_value=0, max_value=10**200), cell)


@given(dips=st.lists(dip, max_size=14))
@example(dips=[])
@example(dips=[TuningDip(-0.0, 0, 1e308), TuningDip(5e-324, 10**200, -1e308),
               TuningDip(2.2250738585072014e-308, 1, -5e-324),
               TuningDip(-1.7976931348623157e308, 3, 0.0)])
@settings(max_examples=300)
def test_dips_report_json_equals_json_dumps(dips):
    # one template per dip gives the bytes json's own indent-2 encoder gives
    assert dips_report_json(dips) == json.dumps([d._asdict() for d in dips], indent=2) + "\n"


@pytest.mark.parametrize("kind", [str, Path])
def test_open_atomic_renames_on_success(tmp_path, kind):
    path = tmp_path / "out.txt"
    with open_atomic(kind(path)) as fh:
        fh.write("a\n")
        assert (tmp_path / "out.txt.partial").is_file()
        assert not path.exists()
    assert path.read_text() == "a\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("kind", [str, Path])
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_open_atomic_removes_partial_on_error(tmp_path, error, kind):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(error):
        with open_atomic(kind(path)) as fh:
            fh.write("new\n")
            raise error
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

