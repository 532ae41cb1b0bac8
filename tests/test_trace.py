import numpy as np
import pytest

from specbound import (
    CurveSet,
    MatrixSpec,
    ParameterError,
    Window,
    auto_window,
    build_frame,
    build_matrix,
    gamma_curves,
    hyperbola_set,
    point_in_polygon,
)
import specbound.trace as trace_module
from specbound import build_frames, gallery_entries, theta_grid
from specbound.envelope import _rotate, envelope_overlays
from specbound.inequality import g_field
from specbound.trace import trace_batch
from conftest import random_complex, trace_field

A_TILDE = build_matrix(MatrixSpec("a_tilde"))
TOEPLITZ = build_matrix(MatrixSpec("toeplitz_eq1"))


def test_window_validation():
    with pytest.raises(ParameterError):
        Window(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        Window(0.0, 1.0, 0.0, 1.0, cols=1)


def test_trace_vertical_line():
    win = Window(-1.0, 1.0, -1.0, 1.0, cols=41, rows=41)
    cs = trace_field(lambda s, t: s, win)
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert np.max(np.abs(poly[:, 0])) <= 1e-12
    assert poly[:, 1].min() <= -0.9 and poly[:, 1].max() >= 0.9
    assert cs.closed_flags == (False,)


def test_trace_circle_closed_and_accurate():
    win = Window(-1.6, 1.6, -1.6, 1.6, cols=161, rows=161)
    cs = trace_field(lambda s, t: 1.0 - s * s - t * t, win)
    assert len(cs.polylines) == 1
    assert cs.closed_flags == (True,)
    poly = cs.polylines[0]
    r = np.hypot(poly[:, 0], poly[:, 1])
    assert np.max(np.abs(r - 1.0)) <= 2 * win.cell_diagonal


def test_trace_refinement_reduces_residual():
    def f(s, t):
        return 1.0 - s * s - t * t

    residuals = []
    for cells in (41, 81, 161):
        win = Window(-1.6, 1.6, -1.6, 1.6, cols=cells, rows=cells)
        cs = trace_field(f, win)
        poly = np.vstack(cs.polylines)
        residuals.append(np.max(np.abs(f(poly[:, 0], poly[:, 1]))))
    assert residuals[1] <= residuals[0] / 2
    assert residuals[2] <= residuals[1] / 2


def test_trace_empty_when_no_sign_change():
    win = Window(0.0, 1.0, 0.0, 1.0, cols=21, rows=21)
    cs = trace_field(lambda s, t: s + 2.0, win)
    assert cs.polylines == ()


def test_trace_saddle_disambiguation():
    # f = s*t has a saddle at the origin; center sampling must keep the two
    # branches from crossing through each other arbitrarily.
    win = Window(-1.0, 1.0, -1.0, 1.0, cols=40, rows=40)  # origin between nodes
    cs = trace_field(lambda s, t: s * t, win)
    assert len(cs.polylines) == 2
    for poly in cs.polylines:
        assert np.max(np.abs(f_min_abs(poly))) <= 2 * win.cell_diagonal


def f_min_abs(poly):
    # distance of each vertex to the union of the axes (zero set of s*t)
    return np.minimum(np.abs(poly[:, 0]), np.abs(poly[:, 1]))


def test_trace_determinism():
    win = Window(-1.5, 1.5, -1.5, 1.5, cols=73, rows=57)
    cs1 = trace_field(lambda s, t: 1.0 - s * s - t * t, win)
    cs2 = trace_field(lambda s, t: 1.0 - s * s - t * t, win)
    assert len(cs1.polylines) == len(cs2.polylines)
    for p1, p2 in zip(cs1.polylines, cs2.polylines):
        assert np.array_equal(p1, p2)


def _reference_trace(f, window):
    """Marching squares one cell at a time, on tuple-keyed edges.

    The per-cell formulation the sampler's tracer replaced; the cases, the saddle
    rule, the vertex arithmetic and the linking are the same, so the two
    must agree bit for bit.
    """
    from specbound.trace import _CASE_SEGMENTS, _SADDLE, _link_segments

    s_nodes, t_nodes = window.node_axes()
    vals = f(*np.meshgrid(s_nodes, t_nodes))
    inside = vals >= 0.0
    ds = s_nodes[1] - s_nodes[0]
    dt = t_nodes[1] - t_nodes[0]
    points = {}
    for j, i in zip(*np.nonzero(inside[:, :-1] != inside[:, 1:])):
        tau = vals[j, i] / (vals[j, i] - vals[j, i + 1])
        points[("h", i, j)] = (s_nodes[i] + tau * ds, t_nodes[j])
    for j, i in zip(*np.nonzero(inside[:-1, :] != inside[1:, :])):
        tau = vals[j, i] / (vals[j, i] - vals[j + 1, i])
        points[("v", i, j)] = (s_nodes[i], t_nodes[j] + tau * dt)
    segments = []
    for j in range(window.rows - 1):
        for i in range(window.cols - 1):
            c = (int(inside[j, i]) + 2 * int(inside[j, i + 1])
                 + 4 * int(inside[j + 1, i + 1]) + 8 * int(inside[j + 1, i]))
            if c in (0, 15):
                continue
            if c in _SADDLE:
                center = f(np.array([s_nodes[i] + 0.5 * ds]), np.array([t_nodes[j] + 0.5 * dt]))
                segs = _SADDLE[c][0] if center[0] >= 0.0 else _SADDLE[c][1]
            else:
                segs = _CASE_SEGMENTS[c]
            local = (("h", i, j), ("v", i + 1, j), ("h", i, j + 1), ("v", i, j))
            segments += [(local[a], local[b]) for a, b in segs]
    chains = _link_segments(segments)
    return ([np.array([points[e] for e in c.edges], dtype=float) for c in chains],
            [c.closed for c in chains])


def test_trace_matches_per_cell_reference():
    # saddles of both kinds with the center inside, outside and exactly on
    # the curve (the 4 x 4 grid puts the middle cell's center at the origin)
    saddle_win = Window(-1.5, 1.5, -1.5, 1.5, cols=4, rows=4)
    cases = [(lambda s, t, c=c, sign=sign: sign * s * t + c, saddle_win)
             for sign in (1.0, -1.0) for c in (0.0, 0.1, -0.1)]
    cases += [
        (lambda s, t: np.sin(3 * s) * np.cos(2 * t) - 0.1, Window(-2, 2.1, -2, 1.9, cols=53, rows=47)),
        (lambda s, t: 1.0 - s * s - t * t, Window(-1.5, 1.5, -1.5, 1.5, cols=73, rows=57)),
        (lambda s, t: (s - 0.3) ** 2 - t ** 2 - 0.2, Window(-1, 2, -1.5, 1.5, cols=31, rows=40)),
    ]
    f2 = build_frame(random_complex(5, seed=8), 2)
    cases.append((lambda s, t: g_field(f2, s, t), auto_window(f2, cols=90, rows=70)))
    for f, win in cases:
        got = trace_field(f, win)
        polylines, closed = _reference_trace(f, win)
        assert got.closed_flags == tuple(closed)
        assert len(got.polylines) == len(polylines)
        for p, q in zip(got.polylines, polylines):
            assert np.array_equal(p.view(np.int64), q.view(np.int64))


def _trace_one(vals, window, center, kind="implicit"):
    return trace_batch(np.asarray(vals)[None], window, [center], [kind])[0]


def test_trace_batch_of_one_takes_sampled_nodes():
    # the origin is the center of the one saddle cell; the field is sampled
    # at the saddle center once, and not at all when nothing crosses
    win = Window(-1.0, 1.0, -1.0, 1.0, cols=40, rows=30)
    f = lambda s, t: s * t + 1e-4  # noqa: E731
    vals = f(*np.meshgrid(*win.node_axes()))
    centers = []

    def center(s, t):
        centers.append(len(s))
        return f(s, t)

    got = _trace_one(vals, win, center, kind="x")
    want = trace_field(f, win, kind="x")
    assert (got.kind, got.window, got.closed_flags) == ("x", win, want.closed_flags)
    assert len(got.polylines) == len(want.polylines) == 2
    assert all(np.array_equal(p, q) for p, q in zip(got.polylines, want.polylines))
    assert centers == [1]
    assert _trace_one(np.ones((30, 40)), win, center).polylines == ()
    assert centers == [1]
    with pytest.raises(ParameterError):
        _trace_one(np.ones((40, 30)), win, center)
    with pytest.raises(ParameterError):
        trace_field(lambda s, t: np.ones(3), win)
    with pytest.raises(ParameterError):
        trace_field(lambda s, t: 1.0, win)


def _same_curves(got, want):
    return (got.kind == want.kind and got.window == want.window
            and got.closed_flags == want.closed_flags
            and len(got.polylines) == len(want.polylines)
            and all(np.array_equal(p.view(np.int64), q.view(np.int64))
                    for p, q in zip(got.polylines, want.polylines)))


def test_trace_batch_equals_one_field_at_a_time():
    # saddles of both kinds (the 4 x 4 grid puts the middle cell's center at
    # the origin), a circle and a field with no crossing, on one grid; the
    # saddle centers of each field are sampled once, by its own function
    win = Window(-1.5, 1.5, -1.5, 1.5, cols=4, rows=4)
    fields = [lambda s, t: s * t + 0.1, lambda s, t: 1.0 - s * s - t * t,
              lambda s, t: s + 9.0, lambda s, t: -s * t - 0.1, lambda s, t: s * t]
    calls = []

    def counted(b):
        def center(s, t):
            calls.append((b, len(s)))
            return fields[b](s, t)
        return center

    vals = np.stack([f(*np.meshgrid(*win.node_axes())) for f in fields])
    kinds = [f"f{b}" for b in range(len(fields))]
    got = trace_batch(vals, win, [counted(b) for b in range(len(fields))], kinds)
    assert calls == [(0, 1), (3, 1), (4, 1)]
    assert got[2].polylines == ()
    for b, f in enumerate(fields):
        assert _same_curves(got[b], trace_field(f, win, kind=kinds[b]))
    f2 = build_frame(random_complex(5, seed=8), 2)
    win = auto_window(f2, cols=90, rows=70)
    centers = [lambda s, t: g_field(f2, s, t, which="min"), lambda s, t: g_field(f2, s, t)]
    vals = np.stack([g_field(f2, *np.meshgrid(*win.node_axes()), which=w) for w in ("min", "max")])
    got = trace_batch(vals, win, centers, ["lo", "hi"])
    for b, kind in enumerate(("lo", "hi")):
        assert _same_curves(got[b], _trace_one(vals[b], win, centers[b], kind=kind))
    with pytest.raises(ParameterError):
        trace_batch(vals, win, [None], ["x", "y"])
    with pytest.raises(ParameterError):
        trace_batch(vals[0], win, [None], ["x"])


# Windows whose max field has a saddle cell, found by a search: saddle cells
# are rare on a curve's own grid (the node of a k = 1 curve is an X, which
# never makes one on an axis-aligned grid), and no k = 1 curve gave one.
_SADDLE_WINDOWS = {
    2: Window(-1.855, 7.27, -0.886, 1.934, cols=6, rows=6),
    3: Window(-4.388, 9.456, -0.158, 1.026, cols=6, rows=6),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_pair_from_one_field_pass_matches_separate_calls(k):
    cases = [(a, auto_window(build_frame(a, k), cols=cols, rows=rows))
             for a in (A_TILDE, TOEPLITZ, random_complex(5, seed=8)) if k < a.shape[0]
             for cols, rows in ((41, 31), (160, 120))]
    if k in _SADDLE_WINDOWS:
        cases.append((TOEPLITZ, _SADDLE_WINDOWS[k]))
    saddles = 0
    for a, win in cases:
        f = build_frame(a, k)
        pair = gamma_curves(f, win)
        alone = tuple(gamma_curves(f, win, (side,))[0] for side in ("max", "min"))
        for side, got, one in zip(("max", "min"), pair, alone):
            want = trace_field(lambda s, t: g_field(f, s, t, which=side), win,
                                  kind=f"gamma_{side}")
            assert _same_curves(got, want) and _same_curves(one, want)
            assert got.warnings == one.warnings
        b = g_field(f, *np.meshgrid(*win.node_axes())) >= 0.0
        saddles += np.count_nonzero((b[:-1, :-1] == b[1:, 1:]) & (b[:-1, 1:] == b[1:, :-1])
                                    & (b[:-1, :-1] != b[:-1, 1:]))
    assert saddles > 0 or k == 1


def test_gamma_curve_passes_near_loop_top():
    f2 = build_frame(A_TILDE, 2)
    win = Window(-0.5, 6.0, -4.0, 4.0, cols=400, rows=300)
    cs = gamma_curves(f2, win, ("max",))[0]
    verts = np.vstack(cs.polylines)
    for target in ((2.0, 3.0), (2.0, -3.0)):
        d = np.min(np.hypot(verts[:, 0] - target[0], verts[:, 1] - target[1]))
        assert d <= 2 * win.cell_diagonal


def test_gamma_curve_vertices_respect_asymptote():
    for k in (1, 2):
        f = build_frame(A_TILDE, k)
        win = auto_window(f, cols=300, rows=200)
        cs = gamma_curves(f, win, ("max",))[0]
        verts = np.vstack(cs.polylines)
        assert verts[:, 0].min() >= f.delta_next - win.step[0]


def test_gamma_curve_vertical_asymptote_approach():
    # k = 1 curve hugs the line s = delta_2 for large |t|
    f1 = build_frame(A_TILDE, 1)
    win = auto_window(f1, cols=300, rows=260)
    verts = np.vstack(gamma_curves(f1, win, ("max",))[0].polylines)
    far = verts[np.abs(verts[:, 1]) > 0.9 * win.t_max]
    assert far.size > 0
    assert np.max(np.abs(far[:, 0] - f1.delta_next)) <= 0.25


def test_gamma_min_curve_sits_left_of_gamma():
    a = random_complex(5, seed=5)
    f = build_frame(a, 2)
    win = auto_window(f, cols=250, rows=180)
    hi, lo = (np.vstack(cs.polylines) for cs in gamma_curves(f, win))
    assert lo[:, 0].min() >= f.delta_next - win.step[0]
    assert lo[:, 0].min() <= hi[:, 0].min() + 2 * win.step[0]


def test_gamma_curve_degenerate_coupling():
    # block-diagonal input: coupling block vanishes and the curve is the
    # vertical line s = delta_2
    a = np.diag([2.0, 1j])
    f = build_frame(a, 1)
    assert f.kappa <= 1e-30
    win = Window(-1.5, 3.0, -2.0, 2.0, cols=151, rows=101)
    cs = gamma_curves(f, win, ("max",))[0]
    assert cs.warnings
    verts = np.vstack(cs.polylines)
    assert np.max(np.abs(verts[:, 0] - f.delta_next)) <= 1e-9


def test_curve_vertices_inside_window_and_steps_bounded():
    f = build_frame(random_complex(5, seed=8), 2)
    win = auto_window(f, cols=220, rows=160)
    cs = gamma_curves(f, win, ("max",))[0]
    for poly in cs.polylines:
        assert np.all(win.contains(poly[:, 0], poly[:, 1]))
        steps = np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1]))
        assert np.all(steps <= 2 * win.cell_diagonal)


def test_hyperbola_set_counts_and_anchors():
    win = Window(-1.0, 6.0, -4.0, 4.0, cols=300, rows=240)
    cs = hyperbola_set([5.0, 3.5, 1.0, 0.0], 3, win)
    # every pair among the four deltas contributes; count distinct branches
    assert len(cs.polylines) >= 6
    verts = np.vstack(cs.polylines)
    # the (2, 1) pair passes through the real axis at both deltas
    cs2 = hyperbola_set([2.0, 1.0], 1, win)
    v2 = np.vstack(cs2.polylines)
    for anchor in ((2.0, 0.0), (1.0, 0.0)):
        assert np.min(np.hypot(v2[:, 0] - anchor[0], v2[:, 1] - anchor[1])) <= 2 * win.cell_diagonal
    assert verts.shape[1] == 2


def test_hyperbola_degenerate_pair_is_line_cross():
    win = Window(-2.0, 2.0, -2.0, 2.0, cols=160, rows=160)
    cs = hyperbola_set([0.0, 0.0], 1, win)
    verts = np.vstack(cs.polylines)
    assert np.max(np.minimum(np.abs(verts[:, 0] - verts[:, 1]),
                             np.abs(verts[:, 0] + verts[:, 1]))) <= 2 * win.cell_diagonal


def _reference_hyperbola_set(deltas, k, window):
    """hyperbola_set as one traced field per pair, the earlier loop."""
    d = np.asarray(deltas, dtype=float)
    polylines = []
    closed = []
    for j in range(k + 1):
        for i in range(j + 1, k + 1):
            center = 0.5 * (d[j] + d[i])
            rad_sq = (0.5 * (d[j] - d[i])) ** 2
            cs = trace_field(
                lambda s, t, c=center, r2=rad_sq: (s - c) ** 2 - t ** 2 - r2,
                window,
                kind="hyperbola",
            )
            polylines.extend(cs.polylines)
            closed.extend(cs.closed_flags)
    return CurveSet(polylines=tuple(polylines), closed_flags=tuple(closed), window=window,
                    kind="hyperbola")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hyperbola_set_in_one_pass_matches_the_pair_loop(k):
    # equal deltas make the line pair; the seeded deltas are arbitrary reals;
    # the 2x2 and 401x301 grids are the smallest and one over the field
    # budget, so a pair is sampled in row bands there
    rng = np.random.default_rng(k)
    delta_sets = [[5.0, 3.5, 1.0, 0.0], [2.0, 2.0, 2.0, 2.0], [1.0, 1.0, -0.5, -0.5],
                  np.sort(rng.normal(size=k + 1))[::-1] * 3.7,
                  build_frame(TOEPLITZ, k).deltas]
    for deltas in delta_sets:
        d = np.asarray(deltas, dtype=float)[:k + 1]
        lo, hi = float(d[-1]) - 2.5, float(d[0]) + 2.5
        for cols, rows in ((2, 2), (37, 23), (401, 301)):
            win = Window(lo, hi + 0.013, -3.1, 2.9, cols=cols, rows=rows)
            got = hyperbola_set(d, k, win)
            want = _reference_hyperbola_set(d, k, win)
            assert (got.kind, got.window) == ("hyperbola", win)
            assert _same_curves(got, want)


def _pair_at_every_node(frame, window):
    """gamma_curves with g sampled at every node: the tracer without windows."""
    return trace_module._trace_grid(
        window, 1, lambda lo, hi, s, t: g_field(frame, s, t, which=("max", "min")),
        ["gamma_max", "gamma_min"])


def test_windowed_gamma_pair_equals_the_whole_grid():
    # the pair's window is the box of the node columns near its band; at
    # every order of every gallery matrix and of seeded random_complex ones,
    # on the auto_window at two aspects and on windows cut through the band
    # and beyond it, the curves are those of sampling every node
    mats = [build_matrix(MatrixSpec(name)) for name, _, _ in gallery_entries()]
    mats += [build_matrix(MatrixSpec("random_complex", {"n": n, "seed": seed}))
             for n, seed in ((3, 2), (5, 3), (6, 11))]
    for a in mats:
        for k in range(1, a.shape[0]):
            frame = build_frame(a, k)
            lo, hi = frame.delta_next, float(frame.deltas[0])
            windows = [auto_window(frame, cols=61, rows=45), auto_window(frame, cols=23, rows=70),
                       Window(0.5 * (lo + hi), hi + 1.0, -1.0, 2.0, cols=31, rows=19),
                       Window(hi + 0.5, hi + 2.0, -1.0, 1.0, cols=12, rows=9)]
            for window in windows:
                got = gamma_curves(frame, window)
                want = _pair_at_every_node(frame, window)
                assert all(_same_curves(g, w) for g, w in zip(got, want)), (k, window)


def _hyperbola_windows(d):
    """Windows for the hyperbolas of the deltas d, mostly on integer nodes.

    The first has unit steps and a node row at t = 0; the next five have
    dt/ds = 0.1, 0.5, 1, 3 and 10; two have an edge through the vertex
    (d_0, 0) of the first pair; and the last two lie wholly right of every
    branch and between the branches of the pair (d_0, d_k).
    """
    lo, hi = float(np.floor(d[-1])) - 4.0, float(np.ceil(d[0])) + 4.0
    span = hi - lo
    steps = [(1.0, 0.1), (0.5, 0.25), (0.25, 0.25), (0.2, 0.6), (0.1, 1.0)]
    windows = [Window(lo, hi, -6.0, 6.0, cols=int(span) + 1, rows=13)]
    windows += [Window(lo, hi, -6.0, 6.0, cols=int(round(span / ds)) + 1,
                       rows=int(round(12.0 / dt)) + 1) for ds, dt in steps]
    windows += [Window(d[0], d[0] + 3.0, -1.5, 1.5, cols=25, rows=31),
                Window(d[0] - 2.0, d[0] + 2.0, 0.0, 2.0, cols=33, rows=17),
                Window(hi + 40.0, hi + 60.0, -1.0, 1.0, cols=21, rows=11)]
    if d[0] - d[-1] > 1.0:
        mid = 0.5 * (d[0] + d[-1])
        windows.append(Window(mid - 0.2, mid + 0.2, -0.1, 0.1, cols=9, rows=7))
    return windows


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("pairs", [1, 64])
def test_windowed_hyperbolas_equal_the_whole_grid(monkeypatch, k, pairs):
    # each pair alone in its call is sampled only on runs of cells around
    # its branches: with these field budgets every call holds one pair, and
    # one run or a few runs; equal deltas make line crosses, whose crossings
    # on these grids fall on the nodes, and so do those of integer deltas in
    # the node row t = 0
    monkeypatch.setattr(trace_module, "_FIELD_BLOCK_PAIRS", pairs)
    rng = np.random.default_rng(k)
    delta_sets = [np.arange(k, -1, -1.0) * 2.0, np.full(k + 1, 1.0),
                  np.repeat([2.0, -1.0], k + 1)[::2][:k + 1] if k > 1 else [2.0, 2.0],
                  np.sort(rng.normal(size=k + 1))[::-1] * 2.3,
                  build_frame(TOEPLITZ, min(k, 3)).deltas[:k + 1] if k < 4 else [5, 3, 3, 0, 0]]
    for deltas in delta_sets:
        d = np.asarray(deltas, dtype=float)[:k + 1]
        for win in _hyperbola_windows(d):
            got = hyperbola_set(d, k, win)
            want = _reference_hyperbola_set(d, k, win)
            assert _same_curves(got, want), (d, win)


def test_hyperbolas_take_values_only_near_their_branches(monkeypatch):
    # the three pairs of a 400 x 300 grid are sampled on runs of a few
    # cells per row, not on the 120,000 nodes of each grid
    sampled = []

    def counted(f, *args):
        vals = sample_values(f, *args)
        sampled.append(vals.size)
        return vals

    sample_values = trace_module._finite_values
    monkeypatch.setattr(trace_module, "_finite_values", counted)
    frame = build_frame(TOEPLITZ, 2)
    win = auto_window(frame, cols=400, rows=300)
    got = hyperbola_set(frame.deltas, 2, win)
    monkeypatch.undo()
    assert _same_curves(got, _reference_hyperbola_set(frame.deltas, 2, win))
    assert 0 < sum(sampled) < 3 * 300 * 30


def test_hyperbolas_beyond_the_window_are_not_sampled():
    # (s - c)^2 - t^2 - r^2 overflows between the branches in the rows with
    # |t| near 1e154, whose crossings lie beyond the window, so sampling
    # every node fails; t^2 + r^2 overflows there too, but hypot(t, r) does
    # not, so the runs leave those rows out and the pair traces, as the
    # whole grid does with its overflowing values left in
    d = np.array([1e154, -1e154])
    win = Window(-1.2e154, 1.2e154, -1e154, 1e154, cols=41, rows=21)
    c, rad_sq = 0.5 * (d[0] + d[1]), (0.5 * (d[0] - d[1])) ** 2

    def f(s, t):
        return (s - c) ** 2 - t ** 2 - rad_sq

    with pytest.raises(FloatingPointError):
        _reference_hyperbola_set(d, 1, win)
    with np.errstate(all="ignore"):
        vals = f(*np.meshgrid(*win.node_axes()))
    assert not np.all(np.isfinite(vals))
    want = trace_batch(vals[None], win, [f], ["hyperbola"])[0]
    got = hyperbola_set(d, 1, win)
    assert len(got.polylines) == 2 and _same_curves(got, want)


def test_one_angle_overlay_boxes_equal_the_whole_grid(monkeypatch):
    # with a field budget below two overlay grids, every overlay call holds
    # one angle and its window is the box of its band; the curves are those
    # of sampling every node, on the auto_window, a window cut through the
    # band and one beyond it
    def at_every_node(stack, window):
        grid = Window(window.s_min, window.s_max, window.t_min, window.t_max,
                      cols=max(2, (window.cols + 1) // 2), rows=max(2, (window.rows + 1) // 2))

        def sample(lo, hi, s, t):
            return g_field(stack[lo:hi], *_rotate(stack.theta[lo:hi, None, None], s, t))

        curves = trace_module._trace_grid(grid, len(stack), sample, ["overlay"] * len(stack))
        return trace_module._joined(curves, window, "overlay")

    for a, k in ((TOEPLITZ, 2), (random_complex(5, seed=3), 3), (A_TILDE, 1)):
        frame = build_frame(a, k)
        stack = build_frames(a, k, theta_grid(12))
        lo, hi = frame.delta_next, float(frame.deltas[0])
        windows = [auto_window(frame, cols=90, rows=70),
                   Window(0.5 * (lo + hi), hi + 1.0, -1.0, 2.0, cols=61, rows=41),
                   Window(hi + 30.0, hi + 31.0, 40.0, 41.0, cols=40, rows=30)]
        for window in windows:
            want = at_every_node(stack, window)
            monkeypatch.setattr(trace_module, "_FIELD_BLOCK_PAIRS", 300)
            got = envelope_overlays(stack, window)
            monkeypatch.undo()
            assert _same_curves(got, want)


def test_hyperbola_validation():
    win = Window(-1, 1, -1, 1, cols=10, rows=10)
    with pytest.raises(ParameterError):
        hyperbola_set([1.0, 2.0], 1, win)  # increasing
    with pytest.raises(ParameterError):
        hyperbola_set([1.0], 1, win)  # too short


def test_auto_window_contains_hermitian_spectrum():
    h = np.diag([3.0, 1.0, -2.0])
    f = build_frame(h, 1)
    win = auto_window(f)
    assert win.s_min <= -2.0 and win.s_max >= 3.0
    assert win.t_min < 0 < win.t_max


def test_auto_window_a_tilde_covers_loop():
    f = build_frame(A_TILDE, 2)
    win = auto_window(f)
    assert win.s_min <= 0.0 and win.s_max >= 3.0
    assert win.t_min <= -3.0 and win.t_max >= 3.0


def test_auto_window_contains_eigenvalues():
    a = build_matrix(MatrixSpec("toeplitz_eq1"))
    for k in (1, 2, 3):
        f = build_frame(a, k)
        win = auto_window(f)
        for ev in np.linalg.eigvals(a):
            assert win.contains(ev.real, ev.imag)


def test_auto_window_scales_with_the_matrix():
    # the window of A is sigma times that of A/sigma, bit for bit, so the CLI
    # (which works on A/sigma) and a caller with A's own frame agree; the
    # floor and the width test once were absolute, and matrix_C's windows at
    # k = 1 and 2, where the floor binds, differed
    from specbound import gallery_entries
    from specbound.linalg import _normalised

    for name, _, _ in gallery_entries():
        a = build_matrix(MatrixSpec(name))
        unit, sigma = _normalised(a)
        for k in range(1, min(3, a.shape[0] - 1) + 1):
            win = auto_window(build_frame(a, k), cols=60, rows=45)
            w1 = auto_window(build_frame(unit, k), cols=60, rows=45)
            assert (win.s_min, win.s_max, win.t_min, win.t_max) == (
                sigma * w1.s_min, sigma * w1.s_max, sigma * w1.t_min, sigma * w1.t_max), (name, k)


def test_point_in_polygon():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert point_in_polygon(0.5, 0.5, square)
    assert not point_in_polygon(1.5, 0.5, square)
    assert not point_in_polygon(-0.1, -0.1, square)
