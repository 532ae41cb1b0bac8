"""Matrix file parsing and figure/data emission (SVG, CSV, PGM, JSON).

All writers format numbers deterministically, so identical inputs produce
byte-identical files.  The SVG and CSV writers format whole columns at once:
raster rows become rectangles by a run-length encoding of each row, and
path and CSV coordinates are mapped as arrays and formatted from lists, with
the same numbers and formats as one cell or vertex at a time.  The CSV
writer formats each distinct coordinate, told apart by its bits, once.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "MatrixFileError",
    "parse_matrix_file",
    "svg_document",
    "write_svg",
    "curves_csv",
    "write_curves_csv",
    "write_pgm",
    "write_json_report",
]


class MatrixFileError(ValueError):
    """Malformed matrix file; carries the 1-based line and token column."""

    def __init__(self, message, line=None, column=None):
        at = ""
        if line is not None:
            at = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + at)
        self.line = line
        self.column = column


def _parse_token(token, line_no, col_no):
    parts = token.split(",")
    if len(parts) not in (1, 2) or any(p == "" for p in parts):
        raise MatrixFileError(f"malformed entry {token!r}", line_no, col_no)
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise MatrixFileError(f"malformed entry {token!r}", line_no, col_no) from None
    if not all(math.isfinite(v) for v in values):
        raise MatrixFileError(f"non-finite entry {token!r}", line_no, col_no)
    re = values[0]
    im = values[1] if len(parts) == 2 else 0.0
    return complex(re, im)


def parse_matrix_file(path):
    """Read a matrix from a text file.

    Line 1 holds two integers "n m"; each of the following n lines holds m
    whitespace-separated entries, each either ``re`` or ``re,im`` in decimal
    or scientific notation.  NaN and infinity are rejected, and so is any
    non-blank line after the n rows.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFileError("empty matrix file", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFileError("header must be two integers 'n m'", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFileError("header must be two integers 'n m'", line=1) from None
    if n < 1 or m < 1:
        raise MatrixFileError("matrix dimensions must be positive", line=1)
    if len(lines) - 1 < n:
        raise MatrixFileError(f"expected {n} data rows, found {len(lines) - 1}", line=len(lines))
    out = np.empty((n, m), dtype=np.complex128)
    for r in range(n):
        line_no = r + 2
        tokens = lines[r + 1].split()
        if len(tokens) != m:
            raise MatrixFileError(
                f"expected {m} entries in row, found {len(tokens)}", line=line_no
            )
        for c, token in enumerate(tokens):
            out[r, c] = _parse_token(token, line_no, c + 1)
    for line_no, line in enumerate(lines[n + 1:], start=n + 2):
        if line.strip():
            raise MatrixFileError(f"expected {n} data rows, found more", line=line_no)
    return out


# --- SVG ----------------------------------------------------------------------

_CURVE_STYLES = {
    "gamma_max": 'fill="none" stroke="#1a1a1a" stroke-width="1.4"',
    "gamma_min": 'fill="none" stroke="#808080" stroke-width="1.1" stroke-dasharray="6 3"',
    "hyperbola": 'fill="none" stroke="#3a7d44" stroke-width="0.8" stroke-dasharray="2 2"',
    "numrange": 'fill="none" stroke="#1a1a1a" stroke-width="1.4"',
    "implicit": 'fill="none" stroke="#1a1a1a" stroke-width="1.0"',
    "overlay": 'fill="none" stroke="#5555aa" stroke-width="0.5" opacity="0.65"',
}
_MARKER_HALF = 3.0  # eigenvalue box half-size in pixels


def _mapper(window):
    sx = window.cols / (window.s_max - window.s_min)
    sy = window.rows / (window.t_max - window.t_min)

    def to_px(s, t):
        return (s - window.s_min) * sx, (window.t_max - t) * sy

    return to_px


def _raster_rects(bits, w, h):
    """One rect element per run of member cells in a row, rows top to bottom.

    The runs are the changes of one flat row-major mask whose rows are each
    led by a non-member cell, with one more non-member cell at the end: a
    run starts at every other change and ends at the next one, never in
    another row.
    """
    rows, cols = bits.shape
    ph, pw = h / rows, w / cols
    flat = np.zeros(rows * (cols + 1) + 1, dtype=bool)
    flat[:-1].reshape(rows, cols + 1)[:, 1:] = bits
    change = np.flatnonzero(flat[1:] != flat[:-1])
    start, stop = change[0::2], change[1::2]
    r, c0 = np.divmod(start, cols + 1)
    rect = '<rect x="{:.4f}" y="{:.4f}" width="{:.4f}" height="' + f'{ph:.4f}' + '"/>'
    return list(map(rect.format, (c0 * pw).tolist(), (r * ph).tolist(),
                    ((stop - start) * pw).tolist()))


def _path_text(cs, to_px, extra_attrs):
    """The path elements of a curve set, joined by newlines, or None when none is drawn.

    One element per polyline of at least two vertices, each vertex the
    ``%.4f,%.4f`` pair of its pixel coordinates from ``to_px`` (which
    formats as ``{:.4f}`` does).  The text comes from one template per curve
    set, with the ``%`` of its fixed parts escaped, and one ``%`` call.
    """
    drawn = [(np.asarray(poly, dtype=float), closed)
             for poly, closed in zip(cs.polylines, cs.closed_flags) if len(poly) >= 2]
    if not drawn:
        return None
    style = _CURVE_STYLES.get(cs.kind, _CURVE_STYLES["implicit"])
    attrs = f' data-kind="{cs.kind}"'
    if extra_attrs:
        attrs += "".join(f' {k}="{v}"' for k, v in extra_attrs.get(id(cs), {}).items())
    head = f'<path class="curve" {style}{attrs} d="M '.replace("%", "%%") + "%.4f,%.4f"
    template = "\n".join(head + " L %.4f,%.4f" * (len(poly) - 1) + (' Z"/>' if closed else '"/>')
                          for poly, closed in drawn)
    xy = np.concatenate([poly for poly, _ in drawn])
    return template % tuple(np.column_stack(to_px(xy[:, 0], xy[:, 1])).ravel().tolist())


def svg_document(window, curve_sets, eigenvalues=(), vlines=(), raster=None,
                 extra_attrs=None):
    """Build an SVG figure as a string.

    Curves become path elements styled by kind, raster cells become
    row-run rectangles, the vertical reference lines are dashed and
    eigenvalues are drawn as small boxes.  The coordinate mapping is
    recorded as data attributes on the root element.
    """
    to_px = _mapper(window)
    w, h = window.cols, window.rows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}" data-s-min="{window.s_min!r}" '
        f'data-s-max="{window.s_max!r}" data-t-min="{window.t_min!r}" '
        f'data-t-max="{window.t_max!r}" data-cols="{w}" data-rows="{h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    if raster is not None:
        parts.append('<g class="raster" fill="#c9d8ef">')
        parts += _raster_rects(raster.bits, w, h)
        parts.append("</g>")
    for value in vlines:
        x, _ = to_px(float(value), 0.0)
        if 0.0 <= x <= w:
            parts.append(
                f'<line class="delta-line" x1="{x:.4f}" y1="0" x2="{x:.4f}" '
                f'y2="{h}" stroke="#999999" stroke-width="0.8" '
                'stroke-dasharray="5 4"/>'
            )
    for cs in curve_sets:
        text = _path_text(cs, to_px, extra_attrs)
        if text is not None:
            parts.append(text)
    for ev in eigenvalues:
        x, y = to_px(float(np.real(ev)), float(np.imag(ev)))
        parts.append(
            f'<rect class="eigenvalue" x="{x - _MARKER_HALF:.4f}" '
            f'y="{y - _MARKER_HALF:.4f}" width="{2 * _MARKER_HALF}" '
            f'height="{2 * _MARKER_HALF}" fill="none" stroke="#cc2222" '
            'stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, window, curve_sets, eigenvalues=(), vlines=(), raster=None,
              extra_attrs=None):
    Path(path).write_text(
        svg_document(window, curve_sets, eigenvalues, vlines, raster, extra_attrs)
    )


# --- CSV ----------------------------------------------------------------------

def _csv_rows(curve_sets):
    """The template of :func:`curves_csv` and the text of its coordinates, in order.

    The template has a ``<id>,<kind>,%s,%s`` row per vertex, with the ``%``
    of the fixed text escaped.  Each distinct float, told apart by its bits
    (-0.0 is not 0.0), is formatted once.  The arrays that find them are
    freed on return, before the text is filled in.
    """
    template = ["curve_id,kind,s,t\n"]
    coords = []
    for cs in curve_sets:
        for poly in cs.polylines:
            poly = np.asarray(poly, dtype=float).reshape(-1, 2)
            row = f"{len(coords)},{cs.kind},".replace("%", "%%") + "%s,%s\n"
            template.append(row * len(poly))
            coords.append(poly.ravel())
    bits, at = np.unique(np.concatenate([np.empty(0), *coords]).view(np.int64),
                         return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return "".join(template), tuple(text[at])


def curves_csv(curve_sets):
    """CSV text with one row per vertex: curve_id, kind, s, t.

    Curve ids count up in emission order across all given curve sets, and
    each coordinate is the ``repr`` of its float.  Many vertices share a
    node abscissa or ordinate, so :func:`_csv_rows` formats each distinct
    float once, and one ``%`` call fills the rows of its template.
    """
    template, coords = _csv_rows(curve_sets)
    return template % coords


def write_curves_csv(path, curve_sets):
    Path(path).write_text(curves_csv(curve_sets))


# --- PGM ----------------------------------------------------------------------

def write_pgm(path, raster):
    """Binary P5 image of a raster: 255 = member, 0 = non-member.

    Row 0 of the payload is the t_max edge, matching the raster layout.
    """
    bits = raster.bits
    header = f"P5\n{bits.shape[1]} {bits.shape[0]}\n255\n".encode("ascii")
    payload = np.where(bits, np.uint8(255), np.uint8(0)).tobytes()
    Path(path).write_bytes(header + payload)


# --- JSON ----------------------------------------------------------------------

def write_json_report(path_or_none, report):
    """Serialize a report dict deterministically; returns the text."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path_or_none is not None:
        Path(path_or_none).write_text(text)
    return text
