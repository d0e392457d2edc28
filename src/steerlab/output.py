"""Artifact serialization for the command-line front end.

CSV tables use a stable header row, LF line endings, and 17 significant
digits for floats.  JSON artifacts are a single object with "meta"
(inputs and package version) and "rows".  SVG plots are static renderings
built from primitives: a two-tone cell grid for region sweeps and
polylines for curves.  All file writes go through a temp-file-and-rename
so failures never leave partial artifacts behind.
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
    "format_number",
    "open_atomic",
    "write_text",
    "rows_to_csv",
    "to_json_document",
    "region_svg",
    "curve_svg",
]

STDOUT_MARKER = "-"


def format_number(value) -> str:
    """Render a cell: floats at 17 significant digits, the rest via str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@contextmanager
def open_atomic(path: str):
    """Text file for ``path`` that appears there only if the block completes.

    Writes go to a temp file in the same directory, renamed over ``path``
    on success and removed on any exception.  The "-" marker yields stdout.
    """
    if path == STDOUT_MARKER:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-steerlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
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


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json_document(meta: dict, rows) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


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


def region_svg(
    beta_grid: list[float],
    p_grid: list[float],
    verdicts: list[str],
    boundary: list[tuple[float, float, float]],
    beta_range: tuple[float, float],
    p_range: tuple[float, float],
) -> str:
    """Two-tone verdict grid with the closed-form boundary overlaid.

    ``verdicts`` holds one verdict name per cell in row-major order (beta
    outer, p inner); any verdict other than within_bounds renders in the
    violating tone.  Cell sizes come from the number of distinct grid
    values.  ``boundary`` rows are (beta, p_low, p_high); branches outside
    the p range are clipped.
    """
    cell_w = (beta_range[1] - beta_range[0]) / max(len(set(beta_grid)), 1) or 1.0
    cell_h = (p_range[1] - p_range[0]) / max(len(set(p_grid)), 1) or 1.0
    frame = _Frame(beta_range[0], beta_range[1], p_range[0], p_range[1])
    parts = _svg_open()
    for (beta, p), verdict in zip(itertools.product(beta_grid, p_grid), verdicts):
        color = _COLOR_WITHIN if verdict == "within_bounds" else _COLOR_VIOLATING
        x = frame.x(beta - cell_w / 2)
        y = frame.y(p + cell_h / 2)
        w = frame.x(beta + cell_w / 2) - x
        h = frame.y(p - cell_h / 2) - y
        parts.append(
            f'<rect x="{_coord(x)}" y="{_coord(y)}" width="{_coord(w)}" '
            f'height="{_coord(h)}" fill="{color}"/>'
        )
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
    return "\n".join(parts) + "\n"


def curve_svg(
    series: list[tuple[str, list[tuple[float, float]]]],
    x_label: str,
    y_label: str,
) -> str:
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
    dashes = ["", "6 3", "2 3"]
    for idx, (name, pts) in enumerate(series):
        coords = " ".join(
            f"{_coord(frame.x(x))},{_coord(frame.y(y))}" for x, y in pts
        )
        dash = dashes[idx % len(dashes)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{_COLOR_CURVE}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_SVG_WIDTH - _MARGIN - 4}" y="{_MARGIN + 14 + 14 * idx}" '
            f'font-size="11" text-anchor="end" fill="{_COLOR_CURVE}">{name}</text>'
        )
    parts.extend(_svg_axes(frame, x_label, y_label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
