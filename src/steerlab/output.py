"""Artifact serialization for the command-line front end.

CSV tables use a stable header row, LF line endings, and 17 significant
digits for floats.  JSON artifacts are a single object with "meta"
(inputs and package version) and "rows", byte for byte what
``json.dumps({"meta": meta, "rows": [dict(zip(header, row)), ...]},
indent=2)`` gives.  SVG plots are static renderings built from
primitives: a two-tone cell grid for region sweeps and polylines for
curves.

Tables are given as columns.  The writers format a column's cells in one
pass per slice of rows, and a column given as distinct entries plus a
code per row formats each entry once, however many rows repeat it.  They
write into an open text file one bounded slice of rows at a time, so a
table's text is never held whole.  Files are opened through a
temp-file-and-rename, so failures never leave partial artifacts behind.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from contextlib import contextmanager

__all__ = [
    "STDOUT_MARKER",
    "Column",
    "format_number",
    "open_atomic",
    "write_text",
    "write_csv",
    "write_json",
    "write_region_svg",
    "write_curve_svg",
]

STDOUT_MARKER = "-"

# CSV floats: 17 significant digits, enough to round-trip any double.
_FLOAT_FORMAT = ".17g"

# Rows (or curve points) formatted and written per write() call.
_SLICE_ROWS = 1 << 14


def format_number(value) -> str:
    """Render a cell: floats at 17 significant digits, the rest via str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, _FLOAT_FORMAT)
    return str(value)


@contextmanager
def open_atomic(path: str):
    """Text file for ``path`` that appears there only if the block completes.

    Writes go to a temp file in the same directory, renamed over ``path``
    on success and removed on any exception.  The file gets the mode a
    plain ``open`` would give it, 0666 less the umask, where the temp file
    starts at 0600.  The "-" marker yields stdout.
    """
    if path == STDOUT_MARKER:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-steerlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)  # read by setting it, so put it straight back
            os.umask(umask)
            os.chmod(tmp_path, 0o666 & ~umask)
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_text(path: str, text: str) -> None:
    """Write text to ``path`` atomically, or to stdout for the "-" marker."""
    with open_atomic(path) as fh:
        fh.write(text)


class Column:
    """One table column of scalars: floats, ints, bools, None or strings.

    By default cell k is ``values[k]``.  With integer ``codes`` (a sequence
    or a 1-D numpy array) it is ``values[codes[k]]``.  Otherwise each entry
    fills ``repeat`` rows in turn and the whole run recurs ``tile`` times,
    so the axes of a row-major (n, m) grid are ``Column(outer, repeat=m)``
    and ``Column(inner, tile=n)``.  Except in the default case, each entry
    of ``values`` is formatted once, however many rows repeat it.
    """

    __slots__ = ("values", "codes", "repeat", "tile")

    def __init__(self, values, codes=None, repeat: int = 1, tile: int = 1):
        self.values = values
        self.codes = codes
        self.repeat = repeat
        self.tile = tile

    def __len__(self) -> int:
        if self.codes is not None:
            return len(self.codes)
        return len(self.values) * self.repeat * self.tile


def _as_list(values) -> list:
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _csv_cells(values: list) -> list[str]:
    """format_number of each value; an all-float list skips the type tests."""
    if all(isinstance(v, float) for v in values):
        return [format(v, _FLOAT_FORMAT) for v in values]
    return list(map(format_number, values))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


# What json.dumps writes for a value of exactly these types.
_JSON_SCALARS = {
    float: _json_float,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _json_cells(values: list) -> list[str]:
    """``json.dumps`` of each value; an all-float list goes through repr."""
    if all(isinstance(v, float) for v in values):
        return [_JSON_NON_FINITE.get(text, text) for text in map(float.__repr__, values)]
    return [_JSON_SCALARS.get(type(v), json.dumps)(v) for v in values]


def _json_key(name) -> str:
    """``name`` as json.dumps writes a dict key: a non-string as its JSON text, quoted."""
    if isinstance(name, str):
        return json.encoder.encode_basestring_ascii(name)
    return json.dumps({name: None})[1:-len(": null}")]


def _column_slices(column: Column, cells):
    """The formatted cells of ``column``, one list per slice of rows."""
    rows = len(column)
    starts = range(0, rows, _SLICE_ROWS)
    if column.codes is None and column.repeat == column.tile == 1:
        for start in starts:
            yield cells(_as_list(column.values[start:start + _SLICE_ROWS]))
        return
    entries = cells(_as_list(column.values))
    if column.codes is not None:
        for start in starts:
            codes = _as_list(column.codes[start:start + _SLICE_ROWS])
            yield list(map(entries.__getitem__, codes))
        return
    run = [entry for entry in entries for _ in range(column.repeat)]
    for start in starts:
        count = min(_SLICE_ROWS, rows - start)
        offset = start % len(run)
        part = run[offset:offset + count]
        while len(part) < count:
            part += run[:count - len(part)]
        yield part


def _row_slices(columns: list[Column], cells):
    """Per slice of rows, one list of formatted cells per column."""
    rows = len(columns[0]) if columns else 0
    if 0 < rows <= _SLICE_ROWS and all(
        column.codes is None and column.repeat == column.tile == 1 for column in columns
    ):
        # Default columns in one slice: their cells in one pass over the rows.
        values = zip(*(_as_list(column.values) for column in columns))
        flat = cells(list(itertools.chain.from_iterable(values)))
        return [[flat[k::len(columns)] for k in range(len(columns))]]
    return zip(*(_column_slices(column, cells) for column in columns))


def write_csv(fh, header: list[str], columns: list[Column]) -> None:
    """The header line, then one line per row: cells through format_number."""
    fh.write(",".join(header) + "\n")
    for parts in _row_slices(columns, _csv_cells):
        fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def write_json(fh, meta: dict, header: list[str], columns: list[Column]) -> None:
    """``json.dumps({"meta": meta, "rows": rows}, indent=2) + "\\n"``.

    Row k of ``rows`` is ``dict(zip(header, row_k))``; each row is filled
    into one template of the indented layout, so cell bytes are those of
    ``json.dumps`` for the cell alone.
    """
    empty = json.dumps({"meta": meta, "rows": []}, indent=2)
    if not columns or not len(columns[0]):
        fh.write(empty + "\n")
        return
    # Like dict(zip(header, row)): each name at its first position, with
    # the cell of its last column.
    last = {}
    for k, name in enumerate(header):
        last[name] = k
    keys = (_json_key(name).replace("%", "%%") for name in last)
    row = ",\n    {" + ",".join(f"\n      {key}: %s" for key in keys) + "\n    }"
    fh.write(empty[:-len("]\n}")])
    lead = 1  # no comma before the first row
    for parts in _row_slices([columns[k] for k in last.values()], _json_cells):
        text = (row * len(parts[0])) % tuple(itertools.chain.from_iterable(zip(*parts)))
        fh.write(text[lead:])
        lead = 0
    fh.write("\n  ]\n}\n")


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN = 50

_COLOR_WITHIN = "#d9d9d9"
_COLOR_VIOLATING = "#3b6ea5"
_COLOR_BOUNDARY = "#c93c20"
_COLOR_CURVE = "#1f5fa8"
_COLOR_AXIS = "#333333"


def _coord(v: float) -> str:
    return format(v, ".3f")


class _Frame:
    """Affine map from data coordinates to the SVG plot area."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.px_w = _SVG_WIDTH - 2 * _MARGIN
        self.px_h = _SVG_HEIGHT - 2 * _MARGIN

    def x(self, v: float) -> float:
        span = self.x_hi - self.x_lo or 1.0
        return _MARGIN + (v - self.x_lo) / span * self.px_w

    def y(self, v: float) -> float:
        span = self.y_hi - self.y_lo or 1.0
        return _SVG_HEIGHT - _MARGIN - (v - self.y_lo) / span * self.px_h


def _svg_open() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#ffffff"/>',
    ]


def _svg_axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<line x1="{_MARGIN}" y1="{_SVG_HEIGHT - _MARGIN}" x2="{_SVG_WIDTH - _MARGIN}" '
        f'y2="{_SVG_HEIGHT - _MARGIN}" stroke="{_COLOR_AXIS}" stroke-width="1"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_HEIGHT - _MARGIN}" stroke="{_COLOR_AXIS}" stroke-width="1"/>',
        f'<text x="{_SVG_WIDTH // 2}" y="{_SVG_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle" fill="{_COLOR_AXIS}">{x_label}</text>',
        f'<text x="14" y="{_SVG_HEIGHT // 2}" font-size="13" text-anchor="middle" '
        f'fill="{_COLOR_AXIS}" transform="rotate(-90 14 {_SVG_HEIGHT // 2})">{y_label}</text>',
        f'<text x="{_MARGIN}" y="{_SVG_HEIGHT - _MARGIN + 16}" font-size="11" '
        f'text-anchor="middle" fill="{_COLOR_AXIS}">{format(frame.x_lo, ".3g")}</text>',
        f'<text x="{_SVG_WIDTH - _MARGIN}" y="{_SVG_HEIGHT - _MARGIN + 16}" font-size="11" '
        f'text-anchor="middle" fill="{_COLOR_AXIS}">{format(frame.x_hi, ".3g")}</text>',
        f'<text x="{_MARGIN - 6}" y="{_SVG_HEIGHT - _MARGIN + 4}" font-size="11" '
        f'text-anchor="end" fill="{_COLOR_AXIS}">{format(frame.y_lo, ".3g")}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="11" '
        f'text-anchor="end" fill="{_COLOR_AXIS}">{format(frame.y_hi, ".3g")}</text>',
    ]
    return parts


def write_region_svg(
    fh,
    beta_grid: list[float],
    p_grid: list[float],
    within,
    boundary: list[tuple[float, float, float]],
    beta_range: tuple[float, float],
    p_range: tuple[float, float],
) -> None:
    """Two-tone verdict grid with the closed-form boundary overlaid.

    ``within`` is a boolean array of shape (len(beta_grid), len(p_grid)),
    True where the cell's verdict is within_bounds; every other cell
    renders in the violating tone.  Cell sizes come from the number of
    distinct grid values.  ``boundary`` rows are (beta, p_low, p_high);
    branches outside the p range are clipped.
    """
    cell_w = (beta_range[1] - beta_range[0]) / max(len(set(beta_grid)), 1) or 1.0
    cell_h = (p_range[1] - p_range[0]) / max(len(set(p_grid)), 1) or 1.0
    frame = _Frame(beta_range[0], beta_range[1], p_range[0], p_range[1])
    fh.write("\n".join(_svg_open()) + "\n")
    # A cell's y and height depend on p alone, its x and width on beta alone.
    y_cells = []
    for p in p_grid:
        y = frame.y(p + cell_h / 2)
        y_cells.append((_coord(y), _coord(frame.y(p - cell_h / 2) - y)))
    fills = (_COLOR_VIOLATING, _COLOR_WITHIN)
    for beta, row in zip(beta_grid, within.tolist()):
        x = frame.x(beta - cell_w / 2)
        rect = (
            f'<rect x="{_coord(x)}" y="%s" width="{_coord(frame.x(beta + cell_w / 2) - x)}" '
            f'height="%s" fill="%s"/>\n'
        )
        fh.write("".join([rect % (y, h, fills[tone]) for (y, h), tone in zip(y_cells, row)]))
    parts = []
    for branch in (1, 2):
        coords = []
        for beta, p_low, p_high in boundary:
            p = p_low if branch == 1 else p_high
            if p_range[0] <= p <= p_range[1]:
                coords.append(f"{_coord(frame.x(beta))},{_coord(frame.y(p))}")
        if len(coords) >= 2:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" '
                f'stroke="{_COLOR_BOUNDARY}" stroke-width="1.5"/>'
            )
    parts.extend(_svg_axes(frame, "beta", "p"))
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")


def _write_points(fh, frame: _Frame, pts: list[tuple[float, float]]) -> None:
    for start in range(0, len(pts), _SLICE_ROWS):
        coords = " ".join(
            f"{_coord(frame.x(x))},{_coord(frame.y(y))}" for x, y in pts[start:start + _SLICE_ROWS]
        )
        fh.write(f" {coords}" if start else coords)


def write_curve_svg(
    fh,
    series: list[tuple[str, list[tuple[float, float]]]],
    x_label: str,
    y_label: str,
) -> None:
    """Polyline chart for one or more named series sharing the axes."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        raise ValueError("no data points supplied")
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts = _svg_open()
    if frame.y_lo < 0.0 < frame.y_hi:
        zero_y = _coord(frame.y(0.0))
        parts.append(
            f'<line x1="{_MARGIN}" y1="{zero_y}" x2="{_SVG_WIDTH - _MARGIN}" '
            f'y2="{zero_y}" stroke="#999999" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    fh.write("\n".join(parts) + "\n")
    dashes = ["", "6 3", "2 3"]
    for idx, (name, pts) in enumerate(series):
        fh.write('<polyline points="')
        _write_points(fh, frame, pts)
        dash = dashes[idx % len(dashes)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        fh.write(
            f'" fill="none" stroke="{_COLOR_CURVE}" stroke-width="1.5"{dash_attr}/>\n'
            f'<text x="{_SVG_WIDTH - _MARGIN - 4}" y="{_MARGIN + 14 + 14 * idx}" '
            f'font-size="11" text-anchor="end" fill="{_COLOR_CURVE}">{name}</text>\n'
        )
    parts = _svg_axes(frame, x_label, y_label)
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")
