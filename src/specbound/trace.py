"""Implicit-curve tracing on rectangular windows.

Marching squares over the sign field of a scalar function, with vertices
placed by linear interpolation of the sampled values and ambiguous (saddle)
cells disambiguated by an extra sample at the cell center.  Cell segments are
linked into polylines in a deterministic sequential pass, so repeated runs
produce identical output.

One sampler and tracer, :func:`_trace_grid`, serves every curve: the
order-k curve and its lambda_min companion (:func:`gamma_curves`), the
region-boundary hyperbolas (:func:`hyperbola_set`) and the envelope
overlays.  Each sampler names, per item and node row, the runs of node
columns where its fields can change sign, and only the nodes of the runs
are sampled, each once: the curve pair's are the columns within two cell
diagonals of the band delta_{k+1} <= s <= delta_1, an overlay angle's those
of its rotated band (:func:`_band_runs`), and a hyperbola's the nodes
within rounding of its two branches (:func:`_hyperbola_runs`).  Every cell
with a corner outside the runs has corners of one sign, so it is inactive.
A field call takes whole items, one row of run nodes per item, and at most
``_FIELD_BLOCK_PAIRS`` values, or part of an item that holds more, so
memory stays bounded at any grid size; the curve and its companion are one
item, so they share det W_k and M_k in every call, while each hyperbola and
each overlay angle is an item of its own.  Marching-squares passes take at
most ``_TRACE_BLOCK_NODES`` nodes of whole grids.  Both budgets are defined
here, and the results are the same, bit for bit, whatever they are.

:func:`_march` is the one marching-squares core.  It takes the active cells
of a batch of fields, found among those whose four corners lie in the runs
(:func:`_run_cells`), with their corner values, and works on integer edge
ids of the whole grid that carry the field's index: it builds every active
cell's segments from one case table with NumPy, links the whole batch's
segments in one call, and only then computes the crossing coordinates from
the corners.  The cells come in (field, row, column) order, so the
segments, and the polylines, are those of a pass over every cell of the
grid.  No chain crosses two fields, so each field's polylines are those of
tracing it alone.  :func:`trace_batch`, for fields sampled at every node,
gives it runs that span every row.
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


def _link_segments(flat):
    """Join edge-to-edge segments into chains; deterministic in input order.

    ``flat`` lists the segments' ends in turn: u0, v0, u1, v1, ...  A
    segment that touches no chain end starts a chain, one that touches one
    end extends that chain (reversed first if the end is its head), and one
    that touches two ends closes a chain or joins the two chains.
    """
    chains = []
    ends = {}
    pop = ends.pop
    it = iter(flat)
    for u, v in zip(it, it):
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
# 0.7 s in bands, 120 angles, k = 2).  It also bounds the candidate cells
# classified at once.
_FIELD_BLOCK_PAIRS = 2 ** 14

# Grid nodes per marching-squares pass in _trace_grid, counted over the
# whole grids of its fields, or one item when an item holds more: it bounds
# the active cells and the segments that one pass links.
_TRACE_BLOCK_NODES = 2 ** 18


def _trace_grid(window, items, sample, kinds, runs=None):
    """Sample a batch of fields where they can change sign and trace them.

    The batch is ``items`` items of ``len(kinds) // items`` fields each, an
    item being what one call evaluates at once.  ``runs`` is a pair (first,
    stop) of int arrays of shape (items, rows, m): in node row r, item i is
    sampled at the node columns first..stop-1 of each of its m runs, which
    come in increasing order, at least one node apart (an empty run has
    stop <= first).  Without ``runs`` every node is sampled.  Runs must
    leave out only cells whose corners share one sign.
    ``sample(lo, hi, s, t)`` gives the fields of items lo..hi-1, item by
    item, stacked on a leading axis, at the points s + i t: at run nodes,
    two (hi - lo, w) arrays that hold one item per row, its run nodes in
    (row, column) order, padded to the longest row by repeating its last
    node; at the centers of saddle cells, two 1-d arrays of one item.  A
    call takes whole items and at most ``_FIELD_BLOCK_PAIRS`` values.  An
    item that holds more is split over calls, each of the run nodes in a
    band of node rows that holds that many values of the whole grid, or in
    one row.  Items without a run of two nodes are not sampled.  So each
    run node is sampled once, padding aside, and no other node is.
    Marching squares classifies the cells whose four corners lie in the
    runs of both their node rows.  Each pass takes whole items and at most
    ``_TRACE_BLOCK_NODES`` nodes of their whole grids, or one item.
    Returns one CurveSet per field, the same, bit for bit, whatever the
    budgets, and the same as sampling every node wherever the fields are
    finite there.  Raises FloatingPointError when a field is not finite at
    some sampled node, and ParameterError when ``sample`` does not give one
    value per node.
    """
    width = len(kinds) // items
    rows, cols = window.rows, window.cols
    s_nodes, t_nodes = window.node_axes()
    if runs is None:
        runs = np.zeros((items, rows, 1), dtype=np.intp), np.full((items, rows, 1), cols)
    first, stop = (np.asarray(part, dtype=np.intp) for part in runs)
    stop = np.where(stop - first >= 2, stop, first)  # a run of one node holds no cell
    count = (stop - first).reshape(items, -1).sum(axis=1)
    per_pass = max(1, _TRACE_BLOCK_NODES // (width * rows * cols))
    band = max(1, _FIELD_BLOCK_PAIRS // (width * cols))

    def at_centers(f, s, t):
        item, field = divmod(f, width)
        return sample(item, item + 1, s, t).reshape(width, -1)[field]

    def values(a, b, s, t):
        got = _finite_values(sample, a, b, s, t)
        if got.size != width * s.size:
            raise ParameterError("need one value per grid node")
        return got.reshape(-1, s.shape[1])

    curves = []
    for lo in range(0, items, per_pass):
        hi = min(lo + per_pass, items)
        cells = [(np.empty(0, dtype=np.intp),) * 3 + (np.empty((4, 0)),)]
        a = lo
        while a < hi:
            # items a..b-1 share a call, or item a is split over calls
            b, most = a + 1, count[a]
            while (b < hi and most and count[b]
                   and (b + 1 - a) * max(most, count[b]) * width <= _FIELD_BLOCK_PAIRS):
                most = max(most, count[b])
                b += 1
            if most:
                step = rows if (b - a) * most * width <= _FIELD_BLOCK_PAIRS else band
                vals = np.empty(((b - a) * width, most))
                at = 0
                for r in range(0, rows, step):
                    s, t = _run_nodes(first[a:b, r:r + step], stop[a:b, r:r + step], s_nodes,
                                      t_nodes[r:r + step])
                    if s.size:
                        vals[:, at:at + s.shape[1]] = values(a, b, s, t)
                        at += s.shape[1]
                cells.append(_run_cells(vals, np.repeat(first[a:b], width, axis=0),
                                        np.repeat(stop[a:b], width, axis=0), (a - lo) * width))
            a = b
        fields = range(lo * width, hi * width)
        curves += _march(window, [np.concatenate(part, axis=-1) for part in zip(*cells)],
                         [partial(at_centers, f) for f in fields], [kinds[f] for f in fields])
    return curves


def _run_nodes(first, stop, s_nodes, t_nodes):
    """The nodes of some items' runs, as two (items, w) arrays of s and t.

    The runs are those of :func:`_trace_grid`, and ``t_nodes`` holds the
    ordinates of their rows.  Row i holds item i's run nodes in (row,
    column) order, padded to the longest row by repeating its last node.
    """
    n, rows, m = first.shape
    length = (stop - first).ravel()
    end = np.cumsum(length)
    s = s_nodes[np.repeat(first.ravel() - end + length, length) + np.arange(int(end[-1]))]
    t = np.repeat(np.tile(t_nodes.repeat(m), n), length)
    if n == 1:
        return s[None], t[None]
    count = length.reshape(n, -1).sum(axis=1)
    pick = (np.cumsum(count) - count)[:, None] + np.minimum(np.arange(count.max()),
                                                           count[:, None] - 1)
    return s[pick], t[pick]


def _run_cells(vals, first, stop, field0):
    """The active cells of fields sampled on runs, with their corner values.

    Row f of ``vals`` holds a field at the nodes of the runs ``first[f]``,
    ``stop[f]``, as :func:`_run_nodes` orders them.  The candidates are the
    cells whose four corners lie in the runs of both their node rows: in
    cell row j, those of the columns that a run of node row j and one of
    row j + 1 share.  They are classified by the signs of their corners and
    the active ones kept: on all of ``vals`` at once when every candidate's
    upper neighbour lies equally far on in it, as in a box of runs, which
    takes half the time of gathering them on a whole grid, else at most
    ``_FIELD_BLOCK_PAIRS`` candidates at a time.  Returns (field, row,
    column, corners), the fields numbered from ``field0``, in (field, row,
    column) order, as :func:`_march` takes them.
    """
    n, rows, m = first.shape
    length = stop - first
    # the position in vals.ravel() of column 0 of each run
    base = (np.cumsum(length.reshape(n, -1), axis=1).reshape(length.shape) - length - first
            + np.arange(n)[:, None, None] * vals.shape[1]).ravel()
    left = np.maximum(first[:, :-1, :, None], first[:, 1:, None, :]).ravel()
    size = np.minimum(stop[:, :-1, :, None], stop[:, 1:, None, :]).ravel() - 1 - left
    keep = np.flatnonzero(size > 0)
    # keep indexes (field f, cell row j, run p of row j, run q of row j + 1)
    fj, p, q = keep // (m * m), keep // m % m, keep % m
    f, j = np.divmod(fj, rows - 1)
    bottom = base[(fj + f) * m + p]
    rise = base[(fj + f + 1) * m + q] - bottom
    left, size = left[keep], size[keep]
    if m > 1:
        order = np.lexsort((left, j, f))
        f, j, left, size, bottom, rise = (x[order] for x in (f, j, left, size, bottom, rise))
    # the first candidate of each run of them has its lower left corner at
    # vals.ravel()[pos], and each upper left corner lies rise further on
    pos = bottom + left
    flat = vals.ravel()
    inside = (flat >= 0.0).view(np.int8)
    pair = inside[:-1] + inside[1:]
    found = [(np.empty(0, dtype=np.intp),) * 3]
    if m == 1 and len(rise) and (rise == rise[0]).all():
        bl = np.flatnonzero(((pair[:-rise[0]] + pair[rise[0]:]) & 3) != 0)
        run = np.searchsorted(pos, bl, side="right") - 1
        ok = (run >= 0) & (bl - pos[run] < size[run])
        found.append((run[ok], bl[ok], bl[ok] + rise[0]))
    else:
        start = np.cumsum(size) - size
        i = 0
        while i < len(size):
            e = max(i + 1, int(np.searchsorted(start, start[i] + _FIELD_BLOCK_PAIRS)))
            c = np.arange(int(start[i]), int(start[e - 1] + size[e - 1]))
            bl = np.repeat(pos[i:e] - start[i:e], size[i:e]) + c
            tl = bl + np.repeat(rise[i:e], size[i:e])
            hit = np.flatnonzero(((pair[bl] + pair[tl]) & 3) != 0)
            found.append((np.searchsorted(start, c[hit], side="right") - 1, bl[hit], tl[hit]))
            i = e
    run, bl, tl = (np.concatenate(part) for part in zip(*found))
    return (f[run] + field0, j[run], left[run] + bl - pos[run],
            flat[np.stack([bl, bl + 1, tl + 1, tl])])


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
    field on its own gives.  The one marching-squares core, :func:`_march`,
    runs it with one run per node row that spans the row.
    """
    rows, cols = window.rows, window.cols
    vals = np.asarray(vals, dtype=float)
    if vals.ndim != 3 or vals.shape[1:] != (rows, cols) or not (
            len(vals) == len(centers) == len(kinds)):
        raise ParameterError("need one value per grid node, a center and a kind per field")
    first = np.zeros((len(vals), rows, 1), dtype=np.intp)
    return _march(window, _run_cells(vals.reshape(len(vals), -1), first, first + cols, 0),
                  centers, kinds)


def _march(window, cells, centers, kinds):
    """Marching squares over the active cells of a batch of fields.

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
    chains = _link_segments(pairs[_SEGMENT_USED[row]].ravel().tolist())

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


def _band_runs(window, lo, hi, c=1.0, d=0.0):
    """Per item and node row, the run of node columns where a band of the rotated abscissa can lie.

    The band of an item is lo <= x <= hi of x = c s - d t on the window's
    nodes, rounded as :func:`specbound.envelope._rotate` rounds it; ``lo``,
    ``hi``, ``c`` and ``d`` are scalars or 1-d arrays over the items.
    Returns runs as :func:`_trace_grid` takes them, one per row, of the
    nodes within two cell diagonals of the band.  One diagonal bounds how
    far x moves across a cell, so a cell with a corner outside the runs lies
    wholly on one side of the band.  x is monotone in s and in t, so an item
    whose band misses the range of x over the grid's corners gets no run,
    its nodes all lying on one side of it, and a row whose two end nodes
    have x wholly left or wholly right of the widened band gets none.  Else
    a row's run spans the columns from (lo + d t) / c to (hi + d t) / c of
    the widened band, widened again by 2^-50 (max |q| + (|lo| + |hi| + |c|
    max|s|) / |c|) for the quotients q.  That exceeds the rounding of x, of
    the quotients and of itself, so a run may be too wide but holds every
    node of the band.  A bound that is not a number gives the whole row.
    """
    s, t = window.node_axes()
    lo, hi, c, d = (np.reshape(v, (-1, 1)) for v in (lo, hi, c, d))
    xt = d * t
    x0, x1 = c * s[0] - xt, c * s[-1] - xt
    live = ((np.minimum(x0, x1).min(axis=1, keepdims=True) <= hi)
            & (np.maximum(x0, x1).max(axis=1, keepdims=True) >= lo))
    lo, hi = lo - 2.0 * window.cell_diagonal, hi + 2.0 * window.cell_diagonal
    reach = live & (np.maximum(x0, x1) >= lo) & (np.minimum(x0, x1) <= hi)
    with np.errstate(all="ignore"):
        q = (np.stack([lo, hi]) + xt) / c
        slack = 2.0 ** -50 * (abs(q).max(axis=0)
                              + (abs(lo) + abs(hi) + abs(c) * abs(s[[0, -1]]).max()) / abs(c))
        first = np.searchsorted(s, np.fmax(q.min(axis=0) - slack, -np.inf))
        stop = np.searchsorted(s, np.fmin(q.max(axis=0) + slack, np.inf), side="right")
    return first[..., None], np.where(reach, stop, first)[..., None]


_GAMMA_KINDS = {"max": "gamma_max", "min": "gamma_min"}


def gamma_curves(frame, window, which=("max", "min")):
    """Trace the order-k curve ("max") and its companion ("min") from one field pass.

    g and its lambda_min companion share det W_k and M_k, so both are
    evaluated on the node grid at once and traced as a batch.  Both lie in
    the band delta_{k+1} <= s <= delta_1, left of which both are positive
    and right of which both are negative (M_k is congruent to diag(delta_j
    - s) there), so their runs are the node columns within two cell
    diagonals of the band, in every row (:func:`_band_runs`).  No cell
    that touches a column beyond them is active.  Returns one CurveSet per
    item of ``which``, each the same, bit for bit, as a call with that item
    alone and as sampling g at every node.
    """
    which = tuple(which)
    field = partial(g_field, frame, which=which)
    runs = _band_runs(window, frame.delta_next, float(frame.deltas[0]))
    curves = _trace_grid(window, 1, lambda a, b, s, t: field(s, t),
                         [_GAMMA_KINDS[side] for side in which], runs)
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
    """Node runs of the grid where (s - c)^2 - t^2 - r^2 can change sign, per pair (c, r).

    ``c`` and ``r`` are 1-d arrays over the pairs.  In node row t the
    branches cross at X = c -+ R with R = hypot(t, r), which does not
    overflow where t^2 + r^2 would.  Let f be the field as evaluated, (s -
    c)^2 - t^2 - r^2 with r^2 rounded.  Its rounding is at most about 4u
    ((s - c)^2 + R^2), with u = 2^-53, and X as computed is within about
    3u (|c| + R) of the exact crossing.  A node more than
    delta = 32u (|c| + R) from the computed X lies a distance d > 29u (|c| +
    R) from the exact one, where |f| >= d (2R + d) outside the branches and
    |f| >= d (2R - d) >= d R between them; either exceeds the rounding.  So
    the computed f has the sign of its side there: >= 0 left of the left
    branch and right of the right one, < 0 between them.  In a usual window,
    where the node spacing ds is far above u R, already the node one column
    past a crossing is such a node: |f| >= ds (2R + ds) against rounding of
    about u R^2.  A floor of 2^-500 on delta keeps the bound above
    underflow.

    In each node row, each branch's run spans the nodes within delta of
    the crossings of that row and of the rows above and below it, plus one
    column on each side, so that every cell with a corner outside the runs
    has four corners of one sign.  The two runs merge where they meet: near
    the vertex, where the branches are less than a few columns apart (for
    the line cross of r = 0, around t = 0), and wherever the node spacing
    is small beside the rounding.  Between two runs that stay apart, f < 0
    by the same bound.  A row whose bounds are not finite, or next to one,
    gets the whole row.  Returns the runs as :func:`_trace_grid` takes them,
    two per row, the second empty where they merge.
    """
    c, r = np.reshape(c, (-1, 1)), np.reshape(r, (-1, 1))
    cols = len(s_nodes)
    radius = np.hypot(t_nodes, r)
    delta = _HYPERBOLA_ROUNDING * (abs(c) + radius) + _HYPERBOLA_FLOOR
    branches = []
    for x in (c - radius, c + radius):
        lo, hi = x - delta, x + delta
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
        first = np.where(bad, 0, np.searchsorted(s_nodes, lo))
        last = np.where(bad, cols - 1, np.searchsorted(s_nodes, hi, side="right") - 1)
        # the rows above and below, with the edge rows repeated
        first, last = (np.pad(v, ((0, 0), (1, 1)), mode="edge") for v in (first, last))
        first = np.minimum.reduce([first[:, :-2], first[:, 1:-1], first[:, 2:]])
        last = np.maximum.reduce([last[:, :-2], last[:, 1:-1], last[:, 2:]])
        branches.append((np.maximum(first - 1, 0), np.minimum(last + 2, cols)))
    (a0, e0), (a1, e1) = branches
    meet = e0 >= a1
    return (np.stack([a0, np.where(meet, e1, a1)], axis=-1),
            np.stack([np.where(meet, e1, e0), e1], axis=-1))


def hyperbola_set(deltas, k, window):
    """Region-boundary hyperbolas for the diagonal-block analysis.

    One curve (s - (d_j + d_i)/2)^2 - t^2 = ((d_j - d_i)/2)^2 per pair
    j < i among the first k+1 deltas, clipped to the window.  Equal deltas
    degenerate into the line pair t = +-(s - d_j).  Each pair is sampled
    only at the nodes within a column or two of its branches
    (:func:`_hyperbola_runs`), so the curves are those of sampling every
    node wherever the field is finite there.
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

    def sample(lo, hi, s, t):
        return (s - center[lo:hi, None]) ** 2 - t ** 2 - rad_sq[lo:hi, None]

    curves = _trace_grid(window, len(pairs), sample, ["hyperbola"] * len(pairs),
                         _hyperbola_runs(center, abs(half), *window.node_axes()))
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
