"""Implicit-curve tracing on rectangular windows.

Marching squares over the sign field of a scalar function, with vertices
placed by linear interpolation of the sampled values and ambiguous (saddle)
cells disambiguated by an extra sample at the cell center.  Cell segments are
linked into polylines in a deterministic sequential pass, so repeated runs
produce identical output.

One sampler and tracer, :func:`_trace_grid`, serves every curve: the
order-k curve and its lambda_min companion (:func:`gamma_curves`), the
region-boundary hyperbolas (:func:`hyperbola_set`) and the envelope
overlays.  It evaluates a batch of fields in calls of at most
``_FIELD_BLOCK_PAIRS`` values, so memory stays bounded at any grid size,
and traces them in passes of at most ``_TRACE_BLOCK_NODES`` values.  Both
budgets are defined here, and the results are the same, bit for bit,
whatever they are.  A call evaluates whole items: the curve and its
companion are one item, so they share det W_k and M_k in every call, while
each hyperbola and each overlay angle is an item of its own.

Each sampler names the window of nodes where its fields can change sign,
and an item alone in its call is evaluated only there.  A window is a box
of nodes, sliced in bands of its rows, or one or two runs of cells per cell
row, whose corners are sampled as points.  The curve pair's window is the
box of the node columns within two cell diagonals of the band delta_{k+1}
<= s <= delta_1 where g changes sign (:func:`_band_box`), that of a
one-angle overlay call the box its rotated band can reach (where, band by
band of rows, g is evaluated only where the band can reach and filled by
sign elsewhere, :func:`_in_band`), and that of a hyperbola the cells within
rounding of its two branches in each cell row (:func:`_hyperbola_runs`).
The items of a call of several, the overlay angles of small grids, are
sampled on the whole grid.  Every cell outside a window has corners of one
sign, so it is inactive.

:func:`_march` is the one marching-squares core.  It takes the candidate
cells of a batch of fields, those whose four corners lie in the windows,
with their corner values, and works on integer edge ids of the whole grid
that carry the field's index: it builds every active cell's segments from
one case table with NumPy, links the whole batch's segments in one call, and
only then computes the crossing coordinates from the corners.  The
candidates come in (field, row, column) order, so the segments, and the
polylines, are those of a pass over every cell of the grid.  No chain
crosses two fields, so each field's polylines are those of tracing it alone.
:func:`trace_batch`, for fields sampled at every node, is its whole-grid
window: it finds the active cells from the edges whose ends differ in sign
and hands only those on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .inequality import g_field
from .linalg import ParameterError, _pow2_scale, max_abs

__all__ = [
    "Window",
    "CurveSet",
    "auto_window",
    "trace_batch",
    "gamma_curves",
    "hyperbola_set",
    "point_in_polygon",
]


@dataclass(frozen=True)
class Window:
    """Axis-aligned view rectangle with a sampling resolution.

    ``cols`` and ``rows`` count grid nodes along s and t for curve tracing,
    and cells for rasterization.
    """

    s_min: float
    s_max: float
    t_min: float
    t_max: float
    cols: int = 800
    rows: int = 600

    def __post_init__(self):
        # a finite extent implies finite bounds; Python floats overflow to
        # inf without a warning
        if not (math.isfinite(float(self.s_max) - float(self.s_min))
                and math.isfinite(float(self.t_max) - float(self.t_min))):
            raise ParameterError("window bounds and extents must be finite")
        if not (self.s_min < self.s_max and self.t_min < self.t_max):
            raise ParameterError("window must have positive extent in s and t")
        if self.cols < 2 or self.rows < 2:
            raise ParameterError("window resolution must be at least 2x2")

    def node_axes(self):
        return (
            np.linspace(self.s_min, self.s_max, self.cols),
            np.linspace(self.t_min, self.t_max, self.rows),
        )

    def cell_centers(self):
        """Cell-center axes; the t axis descends so row 0 is the top edge."""
        ds = (self.s_max - self.s_min) / self.cols
        dt = (self.t_max - self.t_min) / self.rows
        s = self.s_min + (np.arange(self.cols) + 0.5) * ds
        t = self.t_max - (np.arange(self.rows) + 0.5) * dt
        return s, t

    @property
    def step(self):
        """Node spacing (ds, dt)."""
        return (
            (self.s_max - self.s_min) / (self.cols - 1),
            (self.t_max - self.t_min) / (self.rows - 1),
        )

    @property
    def cell_diagonal(self):
        ds, dt = self.step
        return float(np.hypot(ds, dt))

    def contains(self, s, t):
        return (self.s_min <= s) & (s <= self.s_max) & (self.t_min <= t) & (t <= self.t_max)


@dataclass(frozen=True)
class CurveSet:
    """Traced polylines plus the window they live in.

    ``polylines`` is a tuple of (m, 2) float arrays with columns (s, t);
    ``closed_flags[i]`` says whether polyline i closes onto itself.
    """

    polylines: tuple
    closed_flags: tuple
    window: Window
    kind: str
    warnings: tuple = field(default_factory=tuple)


def auto_window(frame, cols=800, rows=600):
    """Window that shows the order-k curve of a frame.

    The s range spans [delta_{k+1} - span/4, delta_1 + span/4 + sqrt(kappa)]
    with span = delta_1 - delta_n, the t range is symmetric with half-width
    1.25 max(sqrt(kappa) + span, sigma), and the rectangle is widened if
    needed so the row-wise Gershgorin box of the rotated matrix (hence its
    whole spectrum) fits inside.  A range of s narrower than 1e-12 (sigma +
    |s_max|) is widened by the half-width on each side.  sigma is the power
    of two nearest the largest entry of the rotated matrix, so the window of
    2^e A is that of A scaled by 2^e, bit for bit; the CLI computes it on
    A/sigma, where sigma = 1.
    """
    unit = _pow2_scale(frame.a_rot)
    deltas = frame.deltas
    span = float(deltas[0] - deltas[-1])
    sk = float(np.sqrt(frame.kappa))
    s_lo = frame.delta_next - 0.25 * span
    s_hi = float(deltas[0]) + 0.25 * span + sk
    t_half = max(sk + span, unit) * 1.25

    a = frame.a_rot
    centers = np.diag(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    s_lo = min(s_lo, float(np.min(centers.real - radii)))
    s_hi = max(s_hi, float(np.max(centers.real + radii)))
    t_half = max(t_half, float(np.max(np.abs(centers.imag) + radii)))

    if s_hi - s_lo < 1e-12 * (unit + abs(s_hi)):
        s_lo -= t_half
        s_hi += t_half
    return Window(s_lo, s_hi, -t_half, t_half, cols=cols, rows=rows)


# Segment table per marching-squares case; entries are pairs of local edge
# indices 0=bottom 1=right 2=top 3=left.  Cases 5 and 10 are resolved with a
# center sample at runtime.
_CASE_SEGMENTS = {
    1: ((3, 0),),
    2: ((0, 1),),
    3: ((3, 1),),
    4: ((1, 2),),
    6: ((0, 2),),
    7: ((3, 2),),
    8: ((2, 3),),
    9: ((0, 2),),
    11: ((1, 2),),
    12: ((1, 3),),
    13: ((0, 1),),
    14: ((3, 0),),
}
_SADDLE = {
    # case -> (segments if center inside, segments if center outside)
    5: (((0, 1), (2, 3)), ((3, 0), (1, 2))),
    10: (((3, 0), (1, 2)), ((0, 1), (2, 3))),
}


def _segment_table():
    """The tables above as arrays, one row per case.

    Rows 0-15 are the cases (a saddle row holds its center-inside
    segments); rows 16 and 17 hold the center-outside segments of cases 5
    and 10.  ``edges[row]`` is a (2, 2) array of local edge pairs and
    ``used[row]`` says which of the two pairs the case has.
    """
    rows = {**_CASE_SEGMENTS}
    for case, (inside, outside) in _SADDLE.items():
        rows[case] = inside
        rows[16 + (case == 10)] = outside
    edges = np.zeros((18, 2, 2), dtype=np.intp)
    used = np.zeros((18, 2), dtype=bool)
    for row, segs in rows.items():
        edges[row, :len(segs)] = segs
        used[row, :len(segs)] = True
    return edges, used


_SEGMENT_EDGES, _SEGMENT_USED = _segment_table()


class _Chain:
    __slots__ = ("ident", "edges", "closed")

    def __init__(self, ident, u, v):
        self.ident = ident
        self.edges = [u, v]
        self.closed = False


def _link_segments(segments):
    """Join edge-to-edge segments into chains; deterministic in input order.

    A segment that touches no chain end starts a chain, one that touches one
    end extends that chain (reversed first if the end is its head), and one
    that touches two ends closes a chain or joins the two chains.
    """
    chains = []
    ends = {}
    pop = ends.pop
    for u, v in segments:
        cu = pop(u, None)
        cv = pop(v, None)
        if cu is None and cv is None:
            chain = _Chain(len(chains), u, v)
            chains.append(chain)
            ends[u] = ends[v] = chain
        elif cv is None:
            edges = cu.edges
            if edges[-1] != u:
                edges.reverse()
            edges.append(v)
            ends[v] = cu
        elif cu is None:
            edges = cv.edges
            if edges[-1] != v:
                edges.reverse()
            edges.append(u)
            ends[u] = cv
        elif cu is cv:
            cu.closed = True
        else:
            # cu now ends with u and cv starts with v
            edges = cu.edges
            if edges[-1] != u:
                edges.reverse()
            if cv.edges[0] != v:
                cv.edges.reverse()
            edges.extend(cv.edges)
            cu.ident = min(cu.ident, cv.ident)
            cv.edges = None
            ends[edges[-1]] = cu
    live = [c for c in chains if c.edges is not None]
    live.sort(key=lambda c: c.ident)
    return live


def _finite_values(f, *args):
    """f(*args) as a float array, for tracing.

    Raises FloatingPointError when a value is not finite (matrix entries too
    large to evaluate); overflow inside ``f`` issues no warning.
    """
    with np.errstate(all="ignore"):
        vals = np.asarray(f(*args), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("the field is not finite at some grid node")
    return vals


# Field values per call of a sampled field in _trace_grid, and (angle,
# point) pairs per call in envelope_margins; the k = 3 field holds about
# 1 KiB of temporaries per point.  Under glibc's defaults, small calls also
# keep the temporaries out of fresh pages: on a 400x300 grid, one call per
# overlay angle spent two thirds of its time faulting them in (2.3 s against
# 0.7 s in bands, 120 angles, k = 2).
_FIELD_BLOCK_PAIRS = 2 ** 14

# Field values per marching-squares pass in _trace_grid, 8 bytes each: about
# 2 MiB of whole grids, or one item when an item holds more (an item sampled
# on its window holds fewer).  Under glibc's default,
# dynamic mmap threshold, which library callers keep, freeing the first
# block's values lifts the threshold above the field's temporaries (2.3 MB
# per call at k = 2), so they come from the heap instead of fresh pages: in
# a fresh process, the default 800x600 k = 2 overlays took 1.7-2.0 s and
# 222k minor faults with 2^16 nodes, and 0.9-1.1 s and 12k with 2^18.
# cli.main sets the mmap threshold to 32 MiB from the start, so there the
# first block's temporaries come from the heap as well.
_TRACE_BLOCK_NODES = 2 ** 18


def _trace_grid(window, items, sample, kinds, span=None):
    """Sample a batch of fields where they can change sign and trace them.

    The batch is ``items`` items of ``len(kinds) // items`` fields each, an
    item being what one call evaluates at once.  ``sample(lo, hi, s, t)``
    gives the fields of items lo..hi-1, stacked on a leading axis, at the
    points s + i t of two arrays that broadcast together: a row of node
    abscissae and a column of node ordinates for a box of the grid, or two
    1-d arrays of points for the corners of cell runs or the centers of
    saddle cells.  Each call gets whole items and at most ``_FIELD_BLOCK_PAIRS``
    values: the whole grids of a few items when the grid is small, else one
    item.  The items of a call of several are sampled on the whole grid.  An
    item alone in its call is sampled only on its window, ``span(item)``
    (the whole grid without ``span``), which is either
      - a box ``(r0, r1, c0, c1)`` of node rows r0..r1-1 and columns
        c0..c1-1, sliced in bands of its rows, or
      - cell runs, a (3, m) int array of rows (cell row j, first cell a, end
        e) for the cells a..e-1 of cell row j, sorted by (j, a) and
        disjoint, whose corners are sampled as points.
    ``span`` must leave out only cells whose corners share one sign.
    Marching squares classifies only the candidate cells, those whose four
    corners lie in the window, and of a box only the cells an edge of which
    changes sign.  Each marching-squares pass takes whole items and at most
    ``_TRACE_BLOCK_NODES`` sampled values of whole grids, or one item when
    an item holds more.  Returns one CurveSet per field, the same, bit for
    bit, whatever the budgets, and the same as sampling every node wherever
    the fields are finite there.  Raises FloatingPointError when a field is
    not finite at some sampled node, and ParameterError when ``sample`` does
    not give one value per node.
    """
    width = len(kinds) // items

    def at_centers(f, s, t):
        item, field = divmod(f, width)
        return sample(item, item + 1, s, t).reshape(width, -1)[field]

    rows, cols = window.rows, window.cols
    nodes = window.node_axes()
    item_values = width * rows * cols
    per_pass = max(1, _TRACE_BLOCK_NODES // item_values)
    per_call = max(1, _FIELD_BLOCK_PAIRS // item_values)
    curves = []
    for lo in range(0, items, per_pass):
        hi = min(lo + per_pass, items)
        # items lo..alone-1 share calls; the rest are alone in theirs: all
        # when a call holds one item, else at most the last
        if span is None:
            alone = hi
        elif per_call == 1:
            alone = lo
        else:
            alone = hi - ((hi - lo) % per_call == 1)
        # each piece keeps only the candidate cells of its values, and no
        # values outlive their piece
        pieces = []
        if alone > lo:
            pieces.append(_box_cells(_box_values(sample, lo, alone, per_call, width,
                                                 (0, rows, 0, cols), *nodes), 0, 0, 0))
        for item in range(alone, hi):
            win = span(item)
            first = (item - lo) * width
            if isinstance(win, tuple):
                pieces.append(_box_cells(_box_values(sample, item, item + 1, 1, width, win, *nodes),
                                         first, win[0], win[2]))
            else:
                pieces.append(_run_cells(sample, item, width, win, *nodes, first))
        fields = range(lo * width, hi * width)
        curves += _march(window, [np.concatenate(part, axis=-1) for part in zip(*pieces)],
                         [partial(at_centers, f) for f in fields], [kinds[f] for f in fields])
    return curves


def _box_values(sample, lo, hi, per_call, width, box, s_nodes, t_nodes):
    """The fields of items lo..hi-1 at the nodes of a box, as (fields, rows, cols).

    One call per ``per_call`` items and band of grid rows, cut to the box.
    The bands are those of the whole grid, of at most
    ``_FIELD_BLOCK_PAIRS`` values or one row: so a box holds no more values
    per call than the whole grid, and a one-angle overlay call, which boxes
    its band band by band again (:func:`_in_band`), evaluates no more nodes.
    A box with fewer than two rows or columns holds no cell and is not
    sampled.
    """
    r0, r1, c0, c1 = box
    if r1 - r0 < 2 or c1 - c0 < 2:
        return np.empty(((hi - lo) * width, 0, 0))
    vals = np.empty(((hi - lo) * width, r1 - r0, c1 - c0))
    s = s_nodes[c0:c1]
    for a in range(lo, hi, per_call):
        b = min(a + per_call, hi)
        band = max(1, _FIELD_BLOCK_PAIRS // ((b - a) * width * len(s_nodes)))
        for r in range(r0 - r0 % band, r1, band):
            top, end = max(r, r0), min(r + band, r1)
            part = vals[(a - lo) * width:(b - lo) * width, top - r0:end - r0]
            values = _finite_values(sample, a, b, s, t_nodes[top:end, None])
            if values.shape != part.shape:
                raise ParameterError("need one value per grid node")
            part[...] = values
    return vals


def _box_cells(vals, first, r0, c0):
    """The active cells of fields sampled on a box of nodes, with their corner values.

    ``vals[f, j, i]`` is field ``first + f`` at grid node (r0 + j, c0 + i).
    A cell is active when one of its four edges changes sign, so its case
    is computed for those cells alone.  Returns (field, row, column,
    corners) in (field, row, column) order, as :func:`_march` takes them.
    """
    _, rows, cols = vals.shape
    inside = vals >= 0.0
    across = inside[:, :, 1:] != inside[:, :, :-1]
    up = inside[:, 1:] != inside[:, :-1]
    active = across[:, 1:] | across[:, :-1]
    active |= up[:, :, 1:]
    active |= up[:, :, :-1]
    cb, cj, ci = np.nonzero(active)
    node = (cb * rows + cj) * cols + ci
    corners = vals.reshape(-1)[np.stack([node, node + 1, node + cols + 1, node + cols])]
    return cb + first, cj + r0, ci + c0, corners


def _run_cells(sample, item, width, runs, s_nodes, t_nodes, first):
    """The cells of one item's cell runs (see :func:`_trace_grid`), with their corner values.

    The four corners of each cell are sampled as points, in calls of at
    most ``_FIELD_BLOCK_PAIRS`` values or one cell; a node that several
    cells share is sampled in each, to the same value.  The item's fields
    are ``first`` onwards.  Returns (field, row, column, corners) in (field,
    row, column) order, as :func:`_march` takes them.
    """
    j, a, e = runs
    run = np.repeat(np.arange(len(j)), e - a)
    cj = j[run]
    ci = a[run] + np.arange(run.size) - (np.cumsum(e - a) - (e - a))[run]
    cols, rows = np.stack([ci, ci + 1, ci + 1, ci]), np.stack([cj, cj, cj + 1, cj + 1])
    corners = np.empty((width, 4, ci.size))
    step = max(1, _FIELD_BLOCK_PAIRS // (4 * width))
    for p in range(0, ci.size, step):
        part = corners[:, :, p:p + step]
        got = _finite_values(sample, item, item + 1, s_nodes[cols[:, p:p + step]].ravel(),
                             t_nodes[rows[:, p:p + step]].ravel())
        if got.size != part.size:
            raise ParameterError("need one value per grid node")
        part[...] = got.reshape(part.shape)
    return (np.repeat(np.arange(first, first + width), ci.size), np.tile(cj, width),
            np.tile(ci, width), corners.transpose(1, 0, 2).reshape(4, -1))


def _joined(curves, window, kind):
    """One CurveSet holding the polylines of ``curves`` in order."""
    return CurveSet(
        polylines=tuple(itertools.chain.from_iterable(cs.polylines for cs in curves)),
        closed_flags=tuple(itertools.chain.from_iterable(cs.closed_flags for cs in curves)),
        window=window,
        kind=kind,
    )


def trace_batch(vals, window, centers, kinds):
    """Marching squares over a batch of fields sampled on one node grid.

    ``vals`` has shape (batch, rows, cols): ``vals[b, j, i]`` is field b at
    node (s_i, t_j) of ``window.node_axes()``.  ``centers[b](s, t)``
    evaluates field b on 1-d coordinate arrays; it is called once, on the
    centers of field b's saddle cells, and only when there are any;
    FloatingPointError is raised when a value there is not finite.  Returns
    one CurveSet per field, of kind ``kinds[b]``, the same that tracing the
    field on its own gives.  This is the whole-grid window of the one
    marching-squares core, :func:`_march`.
    """
    rows, cols = window.rows, window.cols
    vals = np.asarray(vals, dtype=float)
    if vals.ndim != 3 or vals.shape[1:] != (rows, cols) or not (
            len(vals) == len(centers) == len(kinds)):
        raise ParameterError("need one value per grid node, a center and a kind per field")
    return _march(window, _box_cells(vals, 0, 0, 0), centers, kinds)


def _march(window, cells, centers, kinds):
    """Marching squares over the candidate cells of a batch of fields.

    ``cells`` is (field, row, column, corners): cell (j, i) of field b has
    node (s_i, t_j) of ``window.node_axes()`` at its lower left, and
    ``corners[:, n]`` holds cell n's values at nodes (j, i), (j, i + 1),
    (j + 1, i + 1) and (j + 1, i).  The cells come in (field, row, column)
    order, and every cell left out has corners of one sign.  ``centers`` and
    ``kinds`` are those of :func:`trace_batch`.

    Edges get integer ids that carry the field's index b: with E = rows
    (cols - 1) + (rows - 1) cols edges per grid, the horizontal edge from
    node (j, i) to (j, i + 1) is b E + j (cols - 1) + i, and the vertical
    edge from (j, i) to (j + 1, i) is b E + rows (cols - 1) + j cols + i.
    So the ids, and the order in which the active cells give their
    segments, are those of a pass over every cell of the grid.  Every active
    cell's segments come from one case table, all segments of the batch are
    linked in one pass, and no chain crosses two fields, so each field's
    polylines come out in the order and with the vertices of its own pass.
    """
    rows, cols = window.rows, window.cols
    count = len(kinds)
    s_nodes, t_nodes = window.node_axes()
    ds = s_nodes[1] - s_nodes[0]
    dt = t_nodes[1] - t_nodes[0]
    cb, cj, ci, corners = cells
    inside = corners >= 0.0
    row = inside[0] + 2 * inside[1] + 4 * inside[2] + 8 * inside[3]
    active = (row != 0) & (row != 15)
    cb, cj, ci, corners, row = cb[active], cj[active], ci[active], corners[:, active], row[active]

    # Resolve saddle cells with one center evaluation per field.
    saddle = np.nonzero((row == 5) | (row == 10))[0]
    for b in sorted(set(cb[saddle].tolist())):
        picked = saddle[cb[saddle] == b]
        center_vals = _finite_values(centers[b], s_nodes[ci[picked]] + 0.5 * ds,
                                     t_nodes[cj[picked]] + 0.5 * dt)
        outside = picked[~(center_vals >= 0.0)]
        row[outside] = 16 + (row[outside] == 10)

    # Global ids of each cell's bottom, right, top and left edges, then the
    # segments of every active cell in cell order.
    h_count = rows * (cols - 1)
    per_grid = h_count + (rows - 1) * cols
    bottom = cb * per_grid + cj * (cols - 1) + ci
    left = cb * per_grid + h_count + cj * cols + ci
    local = np.stack([bottom, left + 1, bottom + (cols - 1), left], axis=1)
    pairs = local[np.arange(cj.size)[:, None, None], _SEGMENT_EDGES[row]]
    chains = _link_segments(pairs[_SEGMENT_USED[row]].tolist())

    # Crossing coordinates of the chains' edges, all at once, from the
    # corners of the cell that has the edge as its bottom or left side, or,
    # in the top node row or the right node column, as its top or right side.
    edges = np.fromiter(itertools.chain.from_iterable(c.edges for c in chains), dtype=np.intp)
    b, e = np.divmod(edges, per_grid)
    vertical = e >= h_count
    j, i = np.divmod(e - h_count * vertical, cols - 1 + vertical)
    top = ~vertical & (j == rows - 1)
    right = vertical & (i == cols - 1)
    cell = np.searchsorted((cb * (rows - 1) + cj) * (cols - 1) + ci,
                           (b * (rows - 1) + j - top) * (cols - 1) + i - right)
    v1 = corners[np.where(vertical, right, 3 * top), cell]
    v2 = corners[np.where(vertical, 3 - right, 1 + top), cell]
    tau = v1 / (v1 - v2)
    s = np.where(vertical, s_nodes[i], s_nodes[i] + tau * ds)
    t = np.where(vertical, t_nodes[j] + tau * dt, t_nodes[j])
    xy = np.column_stack([s, t])
    xy.setflags(write=False)

    polylines = [[] for _ in range(count)]
    closed = [[] for _ in range(count)]
    end = 0
    for chain in chains:
        start, end = end, end + len(chain.edges)
        polylines[b[start]].append(xy[start:end])
        closed[b[start]].append(chain.closed)
    return tuple(
        CurveSet(polylines=tuple(p), closed_flags=tuple(c), window=window, kind=kind)
        for p, c, kind in zip(polylines, closed, kinds)
    )


def _band_margin(window):
    """Margin by which the band of a curve is widened on its node grid: two cell diagonals.

    One diagonal bounds how far the rotated abscissa moves across a cell, so
    every cell that touches a node outside the widened band lies wholly on
    one side of the band and is inactive.
    """
    return 2.0 * window.cell_diagonal


def _band_box(s, t, lo, hi, c=1.0, d=0.0):
    """The box ``(r0, r1, c0, c1)`` of the nodes s_c0..s_{c1-1} x t_r0..t_{r1-1} that a band can reach.

    The band is lo <= x <= hi of the abscissa x = c s - d t, for 1-d node
    axes ``s`` and ``t``: a column is in the box unless x lies wholly left
    of lo or wholly right of hi on it, and so is a row.  The bounds are
    those of x as the rotation rounds it, which is monotone in s and in t.
    An empty box is (0, 0, 0, 0).
    """
    xs, xt = c * s, d * t
    cols = np.nonzero((xs - xt.min() >= lo) & (xs - xt.max() <= hi))[0]
    rows = np.nonzero((xs.max() - xt >= lo) & (xs.min() - xt <= hi))[0]
    if not (cols.size and rows.size):
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _in_band(field, count, s, t, lo, hi, c=1.0, d=0.0):
    """``field(s, t)`` on a block of grid nodes, evaluated only where a curve can cross.

    ``field`` gives ``count`` fields stacked on a leading axis.  The curves of
    an order-k frame lie in the band delta_{k+1} <= x <= delta_1 of the
    abscissa x = c s - d t of the frame's rotated plane: there M_k is
    congruent to diag(delta_j - x), so g and its lambda_min companion are
    > 0 where x < delta_{k+1} and < 0 where x > delta_1.  ``lo`` and ``hi``
    are the band widened by :func:`_band_margin`.  For a row ``s`` of node
    abscissae and a column ``t`` of node ordinates, ``field`` is evaluated
    on their :func:`_band_box` only; a node whose column or row lies wholly
    left of ``lo`` gets +1 and one whose column or row lies wholly right of
    ``hi`` gets -1.  Saddle centers (1-d ``s`` and ``t``) lie in active
    cells and are evaluated as given.
    """
    if np.ndim(t) < 2:
        return field(s, t)
    xs, xt = c * s, d * t[:, 0]
    right = (xs - xt.max() > hi) | (xs.min() - xt > hi)[:, None]
    out = np.empty((count,) + right.shape)
    out[...] = np.where(right, -1.0, 1.0)
    r0, r1, c0, c1 = _band_box(s, t[:, 0], lo, hi, c, d)
    if r1 > r0:
        out[:, r0:r1, c0:c1] = field(s[c0:c1], t[r0:r1])
    return out


_GAMMA_KINDS = {"max": "gamma_max", "min": "gamma_min"}


def gamma_curves(frame, window, which=("max", "min")):
    """Trace the order-k curve ("max") and its companion ("min") from one field pass.

    g and its lambda_min companion share det W_k and M_k, so both are
    evaluated on the node grid at once and traced as a batch.  Both lie in
    the band delta_{k+1} <= s <= delta_1, left of which both are positive
    and right of which both are negative (see :func:`_in_band`), so their
    window is the box of the node columns within :func:`_band_margin` of
    the band, sliced in bands of rows.  No cell that touches a column beyond
    it is active.  Returns one CurveSet per item of ``which``, each the
    same, bit for bit, as a call with that item alone and as sampling g at
    every node.
    """
    which = tuple(which)
    field = partial(g_field, frame, which=which)
    margin = _band_margin(window)
    box = _band_box(*window.node_axes(), frame.delta_next - margin,
                    float(frame.deltas[0]) + margin)
    curves = _trace_grid(window, 1, lambda a, b, s, t: field(s, t),
                         [_GAMMA_KINDS[side] for side in which], lambda item: box)
    return tuple(_flag_degenerate(cs, frame) for cs in curves)


def _flag_degenerate(cs, frame):
    if frame.kappa <= 1e-14 * (1.0 + max_abs(frame.a_rot)) ** 2:
        note = (
            "coupling block is zero: the curve degenerates to the vertical "
            "line s = delta_{k+1}; isolated zeros of det W_k are not traced"
        )
        cs = replace(cs, warnings=cs.warnings + (note,))
    return cs


# Rounding bound of the hyperbola field, relative to |c| + R (32 units in
# the last place), and an absolute floor far above its underflow.
_HYPERBOLA_ROUNDING = 2.0 ** -48
_HYPERBOLA_FLOOR = 2.0 ** -500


def _hyperbola_runs(c, r, s_nodes, t_nodes):
    """Cell runs of the node grid where (s - c)^2 - t^2 - r^2 can change sign.

    In node row t the branches cross at X = c -+ R with R = hypot(t, r),
    which does not overflow where t^2 + r^2 would.  Let f be the field as
    evaluated, (s - c)^2 - t^2 - r^2 with r^2 rounded.  Its rounding is at
    most about 4u ((s - c)^2 + R^2), with u = 2^-53, and X as computed is
    within about 3u (|c| + R) of the exact crossing.  A node more than
    delta = 32u (|c| + R) from the computed X lies a distance d > 29u (|c| +
    R) from the exact one, where |f| >= d (2R + d) outside the branches and
    |f| >= d (2R - d) >= d R between them; either exceeds the rounding.  So
    the computed f has the sign of its side there: >= 0 left of the left
    branch and right of the right one, < 0 between them.  In a usual window,
    where the node spacing ds is far above u R, already the node one column
    past a crossing is such a node: |f| >= ds (2R + ds) against rounding of
    about u R^2.  A floor of 2^-500 on delta keeps the bound above
    underflow.

    For each cell row, each branch's run spans the nodes within delta of
    the crossings of both node rows of the cell, plus one column on each
    side, so that every cell outside it has four corners of one sign.  The
    two runs merge where they meet: near the vertex, where the branches are
    less than a few columns apart (for the line cross of r = 0, around t =
    0), and wherever the node spacing is small beside the rounding.  Between
    two runs that stay apart, f < 0 by the same bound.  A row whose bounds
    are not finite gets the whole row.  Returns the runs as
    :func:`_trace_grid` takes them.
    """
    cols = len(s_nodes)
    radius = np.hypot(t_nodes, r)
    delta = _HYPERBOLA_ROUNDING * (abs(c) + radius) + _HYPERBOLA_FLOOR
    branches = []
    for x in (c - radius, c + radius):
        lo, hi = x - delta, x + delta
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
        first = np.where(bad, 0, np.searchsorted(s_nodes, lo))
        last = np.where(bad, cols - 1, np.searchsorted(s_nodes, hi, side="right") - 1)
        branches.append((np.maximum(np.minimum(first[:-1], first[1:]) - 1, 0),
                         np.minimum(np.maximum(last[:-1], last[1:]) + 1, cols - 1)))
    (a0, e0), (a1, e1) = branches
    meet = e0 >= a1
    apart = ~meet
    rows = np.arange(len(t_nodes) - 1)
    runs = np.stack([np.concatenate([rows, rows[apart]]),
                     np.concatenate([a0, a1[apart]]),
                     np.concatenate([np.where(meet, e1, e0), e1[apart]])])
    runs = runs[:, runs[2] > runs[1]]
    return runs[:, np.lexsort((runs[1], runs[0]))]


def hyperbola_set(deltas, k, window):
    """Region-boundary hyperbolas for the diagonal-block analysis.

    One curve (s - (d_j + d_i)/2)^2 - t^2 = ((d_j - d_i)/2)^2 per pair
    j < i among the first k+1 deltas, clipped to the window.  Equal deltas
    degenerate into the line pair t = +-(s - d_j).  Each pair is sampled
    only at the corners of the cells within a column or two of its
    branches (:func:`_hyperbola_runs`), so the curves are those of sampling
    every node wherever the field is finite there.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size < k + 1:
        raise ParameterError("need at least k+1 deltas")
    if k < 1:
        raise ParameterError("k must be positive")
    if np.any(np.diff(d) > 0):
        raise ParameterError("deltas must be non-increasing")
    pairs = list(itertools.combinations(range(k + 1), 2))
    center = np.array([0.5 * (d[j] + d[i]) for j, i in pairs])
    half = np.array([0.5 * (d[j] - d[i]) for j, i in pairs])
    rad_sq = np.array([h ** 2 for h in half.tolist()])
    nodes = window.node_axes()

    def sample(lo, hi, s, t):
        return (s - center[lo:hi, None, None]) ** 2 - t ** 2 - rad_sq[lo:hi, None, None]

    curves = _trace_grid(window, len(pairs), sample, ["hyperbola"] * len(pairs),
                         lambda item: _hyperbola_runs(center[item], abs(half[item]), *nodes))
    return _joined(curves, window, "hyperbola")


def point_in_polygon(s, t, polygon):
    """Even-odd test of (s, t) against a closed polygon given as an (m, 2) array."""
    poly = np.asarray(polygon, dtype=float)
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    straddles = (y1 > t) != (y2 > t)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (t - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (x_cross > s)
    return bool(np.count_nonzero(hits) % 2)
