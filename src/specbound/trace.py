"""Implicit-curve tracing on rectangular windows.

Marching squares over the sign field of a scalar function, with vertices
placed by linear interpolation of the sampled values and ambiguous (saddle)
cells disambiguated by an extra sample at the cell center.  Cell segments are
linked into polylines in a deterministic sequential pass, so repeated runs
produce identical output.

:func:`trace_implicit` samples a function on the window's node grid and
hands the values to :func:`trace_values`, the marching-squares pass.  The
pass works on integer edge ids: it builds every active cell's segments from
one case table with NumPy, links them, and only then looks up the crossing
coordinates.  Callers that already hold node values, such as the envelope
overlays (one block of rotation angles per field call), call
:func:`trace_values` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .inequality import g_field
from .linalg import ParameterError, max_abs

__all__ = [
    "Window",
    "CurveSet",
    "auto_window",
    "trace_implicit",
    "trace_values",
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
    half-width max(sqrt(kappa) + span, 1)(1 + margin), and the rectangle is
    widened if needed so the row-wise Gershgorin box of the rotated matrix
    (hence its whole spectrum) fits inside.
    """
    deltas = frame.deltas
    span = float(deltas[0] - deltas[-1])
    sk = float(np.sqrt(frame.kappa))
    s_lo = frame.delta_next - margin * span
    s_hi = float(deltas[0]) + margin * span + sk
    t_half = max(sk + span, 1.0) * (1.0 + margin)

    a = frame.a_rot
    centers = np.diag(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    s_lo = min(s_lo, float(np.min(centers.real - radii)))
    s_hi = max(s_hi, float(np.max(centers.real + radii)))
    t_half = max(t_half, float(np.max(np.abs(centers.imag) + radii)))

    if s_hi - s_lo < 1e-12 * (1.0 + abs(s_hi)):
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
    """Join edge-to-edge segments into chains; deterministic in input order."""
    chains = []
    ends = {}

    def _attach(chain, at, e):
        if chain.edges[-1] == at:
            chain.edges.append(e)
        else:
            chain.edges.reverse()
            chain.edges.append(e)

    for u, v in segments:
        cu = ends.pop(u, None)
        cv = ends.pop(v, None)
        if cu is None and cv is None:
            chain = _Chain(len(chains), u, v)
            chains.append(chain)
            ends[u] = chain
            ends[v] = chain
        elif cv is None:
            _attach(cu, u, v)
            ends[v] = cu
        elif cu is None:
            _attach(cv, v, u)
            ends[u] = cv
        elif cu is cv:
            cu.closed = True
        else:
            _attach(cu, u, v)  # cu now ends ... u, v
            cu.edges.pop()  # drop the duplicate v; splice cv instead
            if cv.edges[0] != v:
                cv.edges.reverse()
            cu.edges.extend(cv.edges)
            cu.ident = min(cu.ident, cv.ident)
            cv.edges = None
            other = cu.edges[-1]
            ends[other] = cu
    live = [c for c in chains if c.edges is not None]
    live.sort(key=lambda c: c.ident)
    return live


def trace_implicit(f, window, kind="implicit"):
    """Trace the zero set of ``f`` over the window as polylines.

    ``f`` must accept broadcastable coordinate arrays (s, t) and return an
    array of the same shape.  Nodes with f >= 0 count as inside; an empty
    CurveSet comes back when the sign never changes.
    """
    grid_s, grid_t = np.meshgrid(*window.node_axes())
    return trace_values(f(grid_s, grid_t), window, f, kind)


def trace_values(vals, window, center, kind="implicit"):
    """Marching squares over field values already sampled on the node grid.

    ``vals`` has shape (rows, cols): ``vals[j, i]`` is the field at node
    (s_i, t_j) of ``window.node_axes()``.  ``center(s, t)`` evaluates the
    field on 1-d coordinate arrays; it is called once, on the centers of
    the saddle cells, and only when there are any.  The result is the one
    :func:`trace_implicit` gives for a field with these node values.

    Edges get integer ids: the horizontal edge from node (j, i) to
    (j, i + 1) is j (cols - 1) + i, and the vertical edge from (j, i) to
    (j + 1, i) is rows (cols - 1) + j cols + i.
    """
    rows, cols = window.rows, window.cols
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (rows, cols):
        raise ParameterError("the field must have one value per grid node")
    s_nodes, t_nodes = window.node_axes()
    ds = s_nodes[1] - s_nodes[0]
    dt = t_nodes[1] - t_nodes[0]
    inside = vals >= 0.0

    b0 = inside[:-1, :-1]
    b1 = inside[:-1, 1:]
    b2 = inside[1:, 1:]
    b3 = inside[1:, :-1]
    case = (
        b0.astype(np.uint8)
        + (b1.astype(np.uint8) << 1)
        + (b2.astype(np.uint8) << 2)
        + (b3.astype(np.uint8) << 3)
    )
    cj, ci = np.nonzero((case != 0) & (case != 15))
    if cj.size == 0:
        return CurveSet(polylines=(), closed_flags=(), window=window, kind=kind)
    row = case[cj, ci].astype(np.intp)

    # Resolve saddle cells with one batched center evaluation.
    saddle = np.nonzero((row == 5) | (row == 10))[0]
    if saddle.size:
        center_vals = np.asarray(
            center(s_nodes[ci[saddle]] + 0.5 * ds, t_nodes[cj[saddle]] + 0.5 * dt),
            dtype=float,
        )
        outside = saddle[~(center_vals >= 0.0)]
        row[outside] = 16 + (row[outside] == 10)

    # Global ids of each cell's bottom, right, top and left edges, then the
    # segments of every active cell in cell order.
    h_count = rows * (cols - 1)
    bottom = cj * (cols - 1) + ci
    left = h_count + cj * cols + ci
    local = np.stack([bottom, left + 1, bottom + (cols - 1), left], axis=1)
    pairs = local[np.arange(cj.size)[:, None, None], _SEGMENT_EDGES[row]]
    segments = pairs[_SEGMENT_USED[row]]

    # Crossing coordinates of every sign-change edge, in ascending edge id.
    hj, hi = np.nonzero(inside[:, :-1] != inside[:, 1:])
    v1 = vals[hj, hi]
    h_s = s_nodes[hi] + v1 / (v1 - vals[hj, hi + 1]) * ds
    vj, vi = np.nonzero(inside[:-1, :] != inside[1:, :])
    v1 = vals[vj, vi]
    v_t = t_nodes[vj] + v1 / (v1 - vals[vj + 1, vi]) * dt
    edge_ids = np.concatenate([hj * (cols - 1) + hi, h_count + vj * cols + vi])
    edge_s = np.concatenate([h_s, s_nodes[vi]])
    edge_t = np.concatenate([t_nodes[hj], v_t])

    chains = _link_segments(segments.tolist())
    at = np.searchsorted(edge_ids, np.concatenate([c.edges for c in chains]))
    polylines = []
    end = 0
    for chain in chains:
        idx = at[end:end + len(chain.edges)]
        end += len(chain.edges)
        poly = np.column_stack([edge_s[idx], edge_t[idx]])
        poly.setflags(write=False)
        polylines.append(poly)
    return CurveSet(
        polylines=tuple(polylines),
        closed_flags=tuple(c.closed for c in chains),
        window=window,
        kind=kind,
    )


def gamma_curve(frame, window):
    """Trace the order-k bounding curve (zero set of g) on the window."""
    cs = trace_implicit(lambda s, t: g_field(frame, s, t), window, kind="gamma_max")
    return _flag_degenerate(cs, frame)


def gamma_min_curve(frame, window):
    """Trace the lambda_min companion curve on the window."""
    cs = trace_implicit(
        lambda s, t: g_field(frame, s, t, which="min"), window, kind="gamma_min"
    )
    return _flag_degenerate(cs, frame)


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
    polylines = []
    closed = []
    for j in range(k + 1):
        for i in range(j + 1, k + 1):
            center = 0.5 * (d[j] + d[i])
            rad_sq = (0.5 * (d[j] - d[i])) ** 2
            cs = trace_implicit(
                lambda s, t, c=center, r2=rad_sq: (s - c) ** 2 - t ** 2 - r2,
                window,
                kind="hyperbola",
            )
            polylines.extend(cs.polylines)
            closed.extend(cs.closed_flags)
    return CurveSet(
        polylines=tuple(polylines),
        closed_flags=tuple(closed),
        window=window,
        kind="hyperbola",
    )


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
