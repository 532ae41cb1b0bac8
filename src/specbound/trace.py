"""Implicit-curve tracing on rectangular windows.

Marching squares over the sign field of a scalar function, with vertices
placed by linear interpolation of the sampled values and ambiguous (saddle)
cells disambiguated by an extra sample at the cell center.  Cell segments are
linked into polylines in a deterministic sequential pass, so repeated runs
produce identical output.

One sampler and tracer serves every curve: :func:`trace_implicit`, the
order-k curve and its lambda_min companion (:func:`gamma_curves`), the
region-boundary hyperbolas (:func:`hyperbola_set`) and the envelope
overlays.  It evaluates a batch of fields on the node grid in row bands of
at most ``_FIELD_BLOCK_PAIRS`` values per call, so memory stays bounded at
any grid size, and traces them in :func:`trace_batch` passes of at most
``_TRACE_BLOCK_NODES`` values.  Both budgets are defined here, and the
results are the same, bit for bit, whatever they are.  A call evaluates
whole items: the curve and its companion are one item, so they share det
W_k and M_k in every call, while each hyperbola and each overlay angle is
an item of its own.

:func:`trace_batch` is the one marching-squares pass.  It takes a batch of
fields sampled on one node grid, with the batch on a leading axis, and works
on integer edge ids that carry the field's index: it builds every active
cell's segments from one case table with NumPy, links the whole batch's
segments in one call, and only then computes the crossing coordinates.  No
chain crosses two fields, so each field's polylines are those of tracing it
alone.
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
    "trace_implicit",
    "trace_batch",
    "gamma_curves",
    "gamma_curve",
    "gamma_min_curve",
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


def auto_window(frame, margin=0.25, cols=800, rows=600):
    """Window that shows the order-k curve of a frame.

    The s range spans [delta_{k+1} - margin*span, delta_1 + margin*span +
    sqrt(kappa)] with span = delta_1 - delta_n, the t range is symmetric with
    half-width max(sqrt(kappa) + span, sigma)(1 + margin), and the rectangle
    is widened if needed so the row-wise Gershgorin box of the rotated matrix
    (hence its whole spectrum) fits inside.  A range of s narrower than
    1e-12 (sigma + |s_max|) is widened by the half-width on each side.
    sigma is the power of two nearest the largest entry of the rotated
    matrix, so the window of 2^e A is that of A scaled by 2^e, bit for bit;
    the CLI computes it on A/sigma, where sigma = 1.
    """
    unit = _pow2_scale(frame.a_rot)
    deltas = frame.deltas
    span = float(deltas[0] - deltas[-1])
    sk = float(np.sqrt(frame.kappa))
    s_lo = frame.delta_next - margin * span
    s_hi = float(deltas[0]) + margin * span + sk
    t_half = max(sk + span, unit) * (1.0 + margin)

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


def trace_implicit(f, window, kind="implicit"):
    """Trace the zero set of ``f`` over the window as polylines.

    ``f`` must accept broadcastable coordinate arrays (s, t) and return an
    array of the same shape.  Nodes with f >= 0 count as inside; an empty
    CurveSet comes back when the sign never changes.  Raises
    FloatingPointError when f is not finite at some node.
    """
    def sample(lo, hi, s, t):
        return np.expand_dims(f(*np.broadcast_arrays(s, t)), 0)

    return _trace_grid(window, 1, sample, [kind])[0]


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
# 1 KiB of temporaries per point.  Small calls also keep the temporaries out
# of fresh pages: on a 400x300 grid, one call per overlay angle spent two
# thirds of its time faulting them in (2.3 s against 0.7 s in bands, 120
# angles, k = 2).
_FIELD_BLOCK_PAIRS = 2 ** 14

# Field values per marching-squares pass in _trace_grid, 8 bytes each: about
# 2 MiB, or one item when an item holds more.  Freeing the first block's
# values also lifts glibc's dynamic mmap threshold above the field's
# temporaries (2.3 MB per call at k = 2), so they come from the heap
# instead of fresh pages: in a fresh process, the default 800x600 k = 2
# overlays took 1.7-2.0 s and 222k minor faults with 2^16 nodes, and
# 0.9-1.1 s and 12k with 2^18.
_TRACE_BLOCK_NODES = 2 ** 18


def _trace_grid(window, items, sample, kinds):
    """Sample a batch of fields on the window's node grid and trace them.

    The batch is ``items`` items of ``len(kinds) // items`` fields each, an
    item being what one call evaluates at once.  ``sample(lo, hi, s, t)``
    gives the fields of items lo..hi-1, stacked on a leading axis, at the
    points s + i t of two arrays that broadcast together: a row of node
    abscissae and a column of node ordinates for a band of the grid, or two
    1-d arrays for the centers of saddle cells.  Each call gets whole items
    and at most ``_FIELD_BLOCK_PAIRS`` values: a few items when the grid is
    small, else a band of grid rows of one item.  Each marching-squares pass
    takes whole items and at most ``_TRACE_BLOCK_NODES`` values, or one item
    when an item holds more.  Returns one CurveSet per field, the same, bit
    for bit, whatever the budgets.  Raises FloatingPointError when a field
    is not finite at some node, and ParameterError when ``sample`` does not
    give one value per node.
    """
    width = len(kinds) // items

    def at_centers(f, s, t):
        item, field = divmod(f, width)
        return sample(item, item + 1, s, t).reshape(width, -1)[field]

    rows, cols = window.rows, window.cols
    s_nodes, t_nodes = window.node_axes()
    t_nodes = t_nodes[:, None]
    item_values = width * rows * cols
    per_pass = max(1, _TRACE_BLOCK_NODES // item_values)
    per_call = max(1, _FIELD_BLOCK_PAIRS // item_values)
    band = max(1, _FIELD_BLOCK_PAIRS // (width * cols))
    curves = []
    for lo in range(0, items, per_pass):
        hi = min(lo + per_pass, items)
        vals = np.empty(((hi - lo) * width, rows, cols))
        for a in range(lo, hi, per_call):
            b = min(a + per_call, hi)
            for r in range(0, rows, band):
                part = vals[(a - lo) * width:(b - lo) * width, r:r + band]
                values = _finite_values(sample, a, b, s_nodes, t_nodes[r:r + band])
                if values.shape != part.shape:
                    raise ParameterError("need one value per grid node")
                part[...] = values
        fields = range(lo * width, hi * width)
        curves += trace_batch(vals, window, [partial(at_centers, f) for f in fields],
                              [kinds[f] for f in fields])
    return curves


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
    field on its own gives.

    Edges get integer ids that carry the field's index b: with E = rows
    (cols - 1) + (rows - 1) cols edges per grid, the horizontal edge from
    node (j, i) to (j, i + 1) is b E + j (cols - 1) + i, and the vertical
    edge from (j, i) to (j + 1, i) is b E + rows (cols - 1) + j cols + i.
    Every active cell's segments come from one case table, all segments of
    the batch are linked in one pass, and no chain crosses two fields, so
    each field's polylines come out in the order and with the vertices of
    its own pass.
    """
    rows, cols = window.rows, window.cols
    vals = np.asarray(vals, dtype=float)
    if vals.ndim != 3 or vals.shape[1:] != (rows, cols) or not (
            len(vals) == len(centers) == len(kinds)):
        raise ParameterError("need one value per grid node, a center and a kind per field")
    count = len(vals)
    s_nodes, t_nodes = window.node_axes()
    ds = s_nodes[1] - s_nodes[0]
    dt = t_nodes[1] - t_nodes[0]
    inside = vals >= 0.0

    b0 = inside[:, :-1, :-1]
    b1 = inside[:, :-1, 1:]
    b2 = inside[:, 1:, 1:]
    b3 = inside[:, 1:, :-1]
    case = (
        b0.astype(np.uint8)
        + (b1.astype(np.uint8) << 1)
        + (b2.astype(np.uint8) << 2)
        + (b3.astype(np.uint8) << 3)
    )
    cb, cj, ci = np.nonzero((case != 0) & (case != 15))
    row = case[cb, cj, ci].astype(np.intp)

    # Resolve saddle cells with one center evaluation per field.
    saddle = np.nonzero((row == 5) | (row == 10))[0]
    for b in sorted(set(cb[saddle].tolist())):
        cells = saddle[cb[saddle] == b]
        center_vals = _finite_values(centers[b], s_nodes[ci[cells]] + 0.5 * ds,
                                     t_nodes[cj[cells]] + 0.5 * dt)
        outside = cells[~(center_vals >= 0.0)]
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

    # Crossing coordinates of the chains' edges, all at once.
    edges = np.fromiter(itertools.chain.from_iterable(c.edges for c in chains), dtype=np.intp)
    b, e = np.divmod(edges, per_grid)
    vertical = e >= h_count
    j, i = np.divmod(e - h_count * vertical, cols - 1 + vertical)
    v1 = vals[b, j, i]
    tau = v1 / (v1 - vals[b, j + vertical, i + ~vertical])
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


_GAMMA_KINDS = {"max": "gamma_max", "min": "gamma_min"}


def gamma_curves(frame, window, which=("max", "min")):
    """Trace the order-k curve ("max") and its companion ("min") from one field pass.

    g and its lambda_min companion share det W_k and M_k, so both are
    evaluated on the node grid at once and traced as a batch.  Returns one
    CurveSet per item of ``which``, each the same, bit for bit, as its own
    :func:`gamma_curve` or :func:`gamma_min_curve`.
    """
    which = tuple(which)
    curves = _trace_grid(window, 1, lambda lo, hi, s, t: g_field(frame, s, t, which=which),
                         [_GAMMA_KINDS[side] for side in which])
    return tuple(_flag_degenerate(cs, frame) for cs in curves)


def gamma_curve(frame, window):
    """Trace the order-k bounding curve (zero set of g) on the window."""
    return gamma_curves(frame, window, ("max",))[0]


def gamma_min_curve(frame, window):
    """Trace the lambda_min companion curve on the window."""
    return gamma_curves(frame, window, ("min",))[0]


def _flag_degenerate(cs, frame):
    if frame.kappa <= 1e-14 * (1.0 + max_abs(frame.a_rot)) ** 2:
        note = (
            "coupling block is zero: the curve degenerates to the vertical "
            "line s = delta_{k+1}; isolated zeros of det W_k are not traced"
        )
        cs = replace(cs, warnings=cs.warnings + (note,))
    return cs


def hyperbola_set(deltas, k, window):
    """Region-boundary hyperbolas for the diagonal-block analysis.

    One curve (s - (d_j + d_i)/2)^2 - t^2 = ((d_j - d_i)/2)^2 per pair
    j < i among the first k+1 deltas, clipped to the window.  Equal deltas
    degenerate into the line pair t = +-(s - d_j).
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
    rad_sq = np.array([(0.5 * (d[j] - d[i])) ** 2 for j, i in pairs])

    def sample(lo, hi, s, t):
        return (s - center[lo:hi, None, None]) ** 2 - t ** 2 - rad_sq[lo:hi, None, None]

    curves = _trace_grid(window, len(pairs), sample, ["hyperbola"] * len(pairs))
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
