"""The streaming table writers against one-shot reference writers."""

import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import output
from steerlab.output import Column, format_number, write_csv, write_json


def reference_csv(header, rows):
    lines = [",".join(header)] + [",".join(format_number(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_json(meta, header, rows):
    document = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(document, indent=2) + "\n"


_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
         math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)
_TEXT = st.one_of(
    st.text(st.sampled_from(list('ab,"\\%{}\n\té€\u2028\x00🙂')), max_size=6),
    st.text(max_size=4),
)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _TEXT)


@st.composite
def tables(draw):
    """A row-major (outer, inner) grid with extra columns in every Column form.

    Returns the writers' columns beside the rows they stand for.
    """
    outer = draw(st.lists(_SCALARS, max_size=4))
    inner = draw(st.lists(_SCALARS, min_size=1, max_size=4))
    n_rows = len(outer) * len(inner)
    columns = [Column(outer, repeat=len(inner)), Column(inner, tile=len(outer))]
    cells = [[a, b] for a in outer for b in inner]
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.lists(_SCALARS, min_size=n_rows, max_size=n_rows))
        form = draw(st.sampled_from(["list", "tuple", "coded", "array"]))
        if form == "coded":
            # Entries in reverse order, so each code differs from its row.
            columns.append(Column(column[::-1], codes=np.arange(n_rows)[::-1]))
        elif form == "array" and all(type(v) is float for v in column):
            columns.append(Column(np.array(column, dtype=float)))
        else:
            columns.append(Column(tuple(column) if form == "tuple" else column))
        for row, value in zip(cells, column):
            row.append(value)
    header = draw(st.lists(_SCALARS, min_size=len(columns), max_size=len(columns)))
    return header, columns, cells


@st.composite
def plain_tables(draw):
    """Columns of the default form only, row by row, beside their rows."""
    width = draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(_SCALARS, min_size=width, max_size=width), max_size=6))
    columns = [Column(list(values)) for values in zip(*cells)] or [Column([]) for _ in range(width)]
    header = draw(st.lists(_SCALARS, min_size=width, max_size=width))
    return header, columns, cells


# Metas of scalars, lists and dicts nested in each other, with keys of
# every type json.dumps accepts.
_METAS = st.dictionaries(
    _TEXT,
    st.recursive(
        _SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.tuples(inner),
            st.dictionaries(st.one_of(_TEXT, _FLOATS, st.integers(), st.booleans(), st.none()),
                            inner, max_size=3),
        ),
        max_leaves=6,
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    table=st.one_of(tables(), plain_tables()),
    meta=_METAS,
    slice_rows=st.one_of(st.integers(1, 5), st.just(output._SLICE_ROWS)),
)
def test_writers_match_the_reference_bytes(table, meta, slice_rows):
    header, columns, rows = table
    csv_header = [format_number(name) for name in header]
    with pytest.MonkeyPatch.context() as patch:
        # Mostly small slices, so that most tables stream in more than one.
        patch.setattr(output, "_SLICE_ROWS", slice_rows)
        csv_out, json_out = io.StringIO(), io.StringIO()
        write_csv(csv_out, csv_header, columns)
        write_json(json_out, meta, header, columns)
    assert csv_out.getvalue() == reference_csv(csv_header, rows)
    assert json_out.getvalue() == reference_json(meta, header, rows)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_outputs_get_the_mode_of_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        output.write_text(str(tmp_path / "atomic.txt"), "x")
    finally:
        os.umask(previous)
    plain = stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
    assert plain == 0o666 & ~umask
    assert stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode) == plain
