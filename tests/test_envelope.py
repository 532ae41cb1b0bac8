import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specbound.envelope as envelope_module
from specbound import (
    MatrixSpec,
    ParameterError,
    Window,
    auto_window,
    build_frame,
    build_frames,
    build_matrix,
    envelope_margins,
    envelope_member_mask,
    envelope_membership,
    envelope_raster,
    g_field,
    membership_tolerance,
    numerical_range_boundary,
    point_in_polygon,
    rank_numrange_raster,
    rotation_spectra,
    theta_grid,
    trace_implicit,
)
from specbound.envelope import envelope_overlays
from conftest import random_complex

TOEPLITZ = build_matrix(MatrixSpec("toeplitz_eq1"))


def test_eigenvalues_are_members():
    for seed in range(12):
        a = random_complex(4, seed=seed + 1000)
        evs = np.linalg.eigvals(a)
        for k in (1, 2):
            assert np.all(envelope_member_mask(a, k, theta_grid(24), evs))


def test_point_right_of_delta1_excluded():
    a = random_complex(5, seed=42)
    f = build_frame(a, 2)
    p = complex(f.deltas[0] + 1.0 + float(np.max(np.abs(f.deltas))), 0.0)
    assert not envelope_membership(a, 2, [0.0], p)


def test_toeplitz_eigenvalues_120_thetas():
    evs = np.linalg.eigvals(TOEPLITZ)
    assert np.all(envelope_member_mask(TOEPLITZ, 2, theta_grid(120), evs))


def test_membership_needs_thetas():
    with pytest.raises(ParameterError):
        envelope_membership(TOEPLITZ, 2, [], 0j)
    with pytest.raises(ParameterError):
        envelope_member_mask(TOEPLITZ, 2, [], [100 + 0j])
    with pytest.raises(ParameterError):
        envelope_margins(TOEPLITZ, 2, [], [100 + 0j])


def _reference_mask(a, k, thetas, points):
    """Every point at every angle, in the given order, no culling."""
    pts = np.asarray(points, dtype=np.complex128)
    tol = membership_tolerance(a, k)
    member = np.ones(pts.shape, dtype=bool)
    stack = build_frames(a, k, thetas)
    for i in range(len(stack)):
        frame = stack[i]
        z = np.exp(1j * frame.theta) * pts
        member &= g_field(frame, z.real, z.imag) >= -tol
    return member


def test_culling_mask_is_bit_identical_to_reference():
    mats = [TOEPLITZ, build_matrix(MatrixSpec("matrix_A1")),
            build_matrix(MatrixSpec("pair_A"))]
    mats += [random_complex(5, seed=s) for s in (3, 17, 301)]
    thetas = theta_grid(45)
    shuffled = np.random.default_rng(9).permutation(thetas)
    for a in mats:
        for k in (1, 2, 3):
            win = auto_window(build_frame(a, k), cols=36, rows=27)
            s, t = win.cell_centers()
            grid = s[None, :] + 1j * t[:, None]
            ref = _reference_mask(a, k, thetas, grid)
            assert ref.any() and not ref.all()
            got = envelope_member_mask(a, k, thetas, grid)
            assert got.shape == grid.shape
            assert np.array_equal(got, ref)
            assert np.array_equal(envelope_member_mask(a, k, shuffled, grid), ref)


def test_culling_mask_zero_d_point():
    ev = np.linalg.eigvals(TOEPLITZ)[0]
    thetas = theta_grid(30)
    for p in (ev, ev + 40.0):
        got = envelope_member_mask(TOEPLITZ, 2, thetas, p)
        assert got.shape == ()
        assert got == _reference_mask(TOEPLITZ, 2, thetas, p)
    assert envelope_member_mask(TOEPLITZ, 2, thetas, ev)
    assert not envelope_member_mask(TOEPLITZ, 2, thetas, ev + 40.0)


def test_culling_mask_exits_once_every_point_is_dead(monkeypatch):
    import specbound.envelope as env

    f = build_frame(TOEPLITZ, 2)
    far = float(f.deltas[0]) + 100.0
    win = Window(far, far + 10.0, -5.0, 5.0, cols=20, rows=15)
    s, t = win.cell_centers()
    grid = s[None, :] + 1j * t[:, None]
    thetas = theta_grid(64)
    ref = _reference_mask(TOEPLITZ, 2, thetas, grid)
    assert not ref.any()
    calls = []

    def counted(frame, s, t):
        calls.append(np.size(s))
        return g_field(frame, s, t)

    monkeypatch.setattr(env, "g_field", counted)
    got = envelope_member_mask(TOEPLITZ, 2, thetas, grid)
    assert np.array_equal(got, ref)
    assert calls[0] == grid.size
    assert len(calls) < len(thetas)


@settings(max_examples=40, deadline=None)
@given(e=st.integers(-30, 30), which=st.integers(0, 3))
@example(e=30, which=0)
@example(e=20, which=3)
@example(e=-30, which=1)
def test_k3_mask_matches_reference_at_any_scale(e, which):
    # A -> cA, z -> cz: the k = 3 sign test must agree with g >= -tol from
    # the eigenvalues wherever g is finite (up to |A| ~ 1e44), with no
    # RuntimeWarning; unnormalised leading minors overflow from |A| ~ 1e15
    a0 = (TOEPLITZ, random_complex(5, seed=3), random_complex(6, seed=17),
          build_matrix(MatrixSpec("pair_A")))[which]
    c = 10.0 ** e
    win = auto_window(build_frame(a0, 3), cols=16, rows=12)
    s, t = win.cell_centers()
    grid = c * (s[None, :] + 1j * t[:, None])
    thetas = theta_grid(12)
    ref = _reference_mask(c * a0, 3, thetas, grid)
    assert np.array_equal(envelope_member_mask(c * a0, 3, thetas, grid), ref)


def _reference_margins(a, k, thetas, points):
    """One frame at a time in the given order; strict < keeps the first minimum."""
    pts = np.asarray(points, dtype=np.complex128)
    min_g = np.full(pts.shape, np.inf)
    worst = np.zeros(pts.shape)
    for theta in thetas:
        frame = build_frame(a, k, theta)
        z = np.exp(1j * frame.theta) * pts
        g = g_field(frame, z.real, z.imag)
        better = g < min_g
        worst = np.where(better, frame.theta, worst)
        min_g = np.where(better, g, min_g)
    return min_g, worst


def test_stacked_margins_are_bit_identical_to_reference(monkeypatch):
    mats = [TOEPLITZ, build_matrix(MatrixSpec("matrix_A1")),
            build_matrix(MatrixSpec("pair_A"))]
    mats += [random_complex(5, seed=s) for s in (3, 17, 301)]
    grid = theta_grid(45)
    angle_sets = [grid, np.random.default_rng(9).permutation(grid), [0.7],
                  [grid[3], grid[20], grid[3], grid[33]]]
    rng = np.random.default_rng(5)
    for a in mats:
        ev = np.linalg.eigvals(a)
        pts = np.concatenate([ev, ev + 0.25 - 0.1j,
                              rng.normal(size=6) + 1j * rng.normal(size=6)]).reshape(2, -1)
        for k in (1, 2, 3):
            for thetas in angle_sets:
                ref_g, ref_theta = _reference_margins(a, k, thetas, pts)
                got_g, got_theta = envelope_margins(a, k, thetas, pts)
                assert got_g.shape == pts.shape
                assert np.array_equal(got_g, ref_g)
                assert np.array_equal(got_theta, ref_theta)
            # a given stack, one angle per field block
            monkeypatch.setattr(envelope_module, "_FIELD_BLOCK_PAIRS", 1)
            got_g, got_theta = envelope_margins(a, k, grid, pts, stack=build_frames(a, k, grid))
            monkeypatch.undo()
            ref_g, ref_theta = _reference_margins(a, k, grid, pts)
            assert np.array_equal(got_g, ref_g)
            assert np.array_equal(got_theta, ref_theta)


def test_margins_ties_keep_the_first_angle(monkeypatch):
    # g is constant, so every angle attains the minimum: the first one wins,
    # within one block of angles and across blocks alike
    thetas = [2.0, 0.5, 2.0, 1.0, 3.0]
    pts = np.array([1.0 + 1j, -2.0, 0.5j])
    monkeypatch.setattr(envelope_module, "g_field", lambda frame, s, t: np.zeros(np.shape(s)))
    for pairs in (1, 3, 2 ** 14):
        monkeypatch.setattr(envelope_module, "_FIELD_BLOCK_PAIRS", pairs)
        min_g, worst = envelope_margins(TOEPLITZ, 2, thetas, pts)
        assert np.array_equal(min_g, np.zeros(3))
        assert np.array_equal(worst, np.full(3, 2.0))


def test_margins_reject_non_finite_g():
    a = random_complex(5, seed=3) * 1e60
    ev = np.linalg.eigvals(a)
    with pytest.raises(FloatingPointError):
        envelope_margins(a, 2, theta_grid(12), ev)


def test_margins_memory_is_bounded():
    # one check at n = 160: the stacked solve and the field work in chunks
    a = random_complex(160, seed=1)
    ev = np.linalg.eigvals(a)
    tracemalloc.start()
    try:
        envelope_margins(a, 2, theta_grid(120), ev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_single_theta_raster_equals_field_mask():
    win = Window(-2.0, 8.0, -7.0, 7.0, cols=80, rows=60)
    raster = envelope_raster(TOEPLITZ, 2, 1, win)
    f = build_frame(TOEPLITZ, 2)
    s, t = win.cell_centers()
    mask = g_field(f, s[None, :], t[:, None]) >= -membership_tolerance(TOEPLITZ, 2)
    assert np.array_equal(raster.bits, mask)
    assert raster.kind == "envelope" and raster.k == 2 and raster.ell == 0


def test_raster_monotone_in_theta_set():
    win = Window(-2.0, 8.0, -7.0, 7.0, cols=60, rows=45)
    r60 = envelope_raster(TOEPLITZ, 2, 60, win)
    r120 = envelope_raster(TOEPLITZ, 2, 120, win)
    # the 60-angle set is a subset of the 120-angle set
    assert np.all(~r120.bits | r60.bits)


def test_envelope_shrinks_with_order():
    win = Window(-2.0, 8.0, -7.0, 7.0, cols=60, rows=45)
    r1 = envelope_raster(TOEPLITZ, 1, 40, win)
    evs = np.linalg.eigvals(TOEPLITZ)
    # eigenvalue cells stay members of the order-1 envelope
    s, t = win.cell_centers()
    for ev in evs:
        ci = np.argmin(np.abs(s - ev.real))
        ri = np.argmin(np.abs(t - ev.imag))
        assert r1.bits[ri, ci]


def test_rank_raster_level1_contains_eigenvalues():
    win = Window(-2.0, 8.0, -7.0, 7.0, cols=100, rows=80)
    r = rank_numrange_raster(TOEPLITZ, 1, 90, win)
    s, t = win.cell_centers()
    for ev in np.linalg.eigvals(TOEPLITZ):
        ci = np.argmin(np.abs(s - ev.real))
        ri = np.argmin(np.abs(t - ev.imag))
        assert r.bits[ri, ci]
    assert r.kind == "rank_numrange" and r.ell == 1 and r.k == 0


def test_rank_raster_nests_inside_envelope():
    f = build_frame(TOEPLITZ, 2)
    win = auto_window(f, cols=90, rows=70)
    e2 = envelope_raster(TOEPLITZ, 2, 60, win)
    l3 = rank_numrange_raster(TOEPLITZ, 3, 60, win)
    assert np.all(~l3.bits | e2.bits)


def test_rank_raster_hermitian_top_level_empty():
    a = np.diag([2.0, 1.0, -1.0]).astype(complex)
    win = Window(-2.0, 3.0, -1.0, 1.0, cols=100, rows=40)
    r = rank_numrange_raster(a, 3, 60, win)
    assert r.bits.sum() == 0


def test_rank_raster_validates_level():
    win = Window(-1, 1, -1, 1, cols=10, rows=10)
    with pytest.raises(ParameterError):
        rank_numrange_raster(TOEPLITZ, 0, 10, win)
    with pytest.raises(ParameterError):
        rank_numrange_raster(TOEPLITZ, 5, 10, win)


def test_numrange_hermitian_is_real_segment():
    a = np.diag([3.0, 1.0, -2.0]).astype(complex)
    cs = numerical_range_boundary(a, 72)
    pts = cs.polylines[0]
    assert cs.closed_flags == (True,)
    assert np.max(np.abs(pts[:, 1])) <= 1e-8
    assert pts[:, 0].min() >= -2.0 - 1e-8 and pts[:, 0].max() <= 3.0 + 1e-8
    assert abs(pts[:, 0].min() + 2.0) <= 1e-8 and abs(pts[:, 0].max() - 3.0) <= 1e-8


def test_numrange_normal_matrix_is_eigenvalue_hull():
    # normal matrix: support function of the boundary equals that of the spectrum
    evs = np.array([1.0 + 1j, -1.0 + 0.5j, 0.0 - 1.5j, 2.0 - 0.2j])
    a = np.diag(evs)
    cs = numerical_range_boundary(a, 240)
    pts = cs.polylines[0][:, 0] + 1j * cs.polylines[0][:, 1]
    for theta in np.linspace(0, 2 * np.pi, 37):
        h_bound = np.max(np.real(np.exp(1j * theta) * pts))
        h_spec = np.max(np.real(np.exp(1j * theta) * evs))
        assert h_bound <= h_spec + 1e-8
        assert h_bound >= h_spec - 0.01  # finite angle sampling gap


def test_numrange_contains_spectrum_strictly_for_toeplitz():
    cs = numerical_range_boundary(TOEPLITZ, 180)
    poly = cs.polylines[0]
    for ev in np.linalg.eigvals(TOEPLITZ):
        assert point_in_polygon(ev.real, ev.imag, poly)


def test_numrange_convexity():
    a = random_complex(5, seed=77)
    cs = numerical_range_boundary(a, 120)
    pts = cs.polylines[0]
    z = pts[:, 0] + 1j * pts[:, 1]
    diam = float(np.max(np.abs(z[:, None] - z[None, :])))
    e1 = np.roll(z, -1) - z
    e2 = np.roll(z, -2) - np.roll(z, -1)
    cross = np.imag(np.conj(e1) * e2)
    # boundary walked clockwise when angles increase; allow rounding wiggle
    assert np.all(cross <= 1e-8 * diam**2) or np.all(cross >= -1e-8 * diam**2)


def _reference_numrange_points(a, theta_count):
    """The boundary points with every angle solved in one unchunked call."""
    thetas = theta_grid(theta_count)
    h = np.exp(1j * thetas)[:, None, None] * a[None, :, :]
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    u1 = np.linalg.eigh(h)[1][:, :, -1]
    z = np.einsum("mi,ij,mj->m", np.conj(u1), a, u1)
    return np.column_stack([z.real, z.imag])


def test_numrange_chunking_is_bit_identical(monkeypatch):
    import specbound.frame as frame_module

    for a in (TOEPLITZ, random_complex(40, seed=6), 1e-150 * random_complex(7, seed=2)):
        for count in (3, 37, 120):
            ref = _reference_numrange_points(a, count)
            assert np.array_equal(numerical_range_boundary(a, count).polylines[0], ref)
            monkeypatch.setattr(frame_module, "_CHUNK_BYTES", 1)  # one angle per chunk
            assert np.array_equal(numerical_range_boundary(a, count).polylines[0], ref)
            monkeypatch.undo()


def test_numrange_memory_is_bounded():
    # the unchunked solve held two 49 MB stacks of 160 x 160 matrices
    a = random_complex(160, seed=1)
    tracemalloc.start()
    try:
        numerical_range_boundary(a, 120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_rank_raster_takes_spectra_from_envelope_namespace(monkeypatch):
    calls = []

    def counted(a, thetas):
        calls.append(len(thetas))
        return rotation_spectra(a, thetas)

    monkeypatch.setattr(envelope_module, "rotation_spectra", counted)
    win = Window(-3.0, 9.0, -6.0, 6.0, cols=12, rows=10)
    rank_numrange_raster(TOEPLITZ, 1, 20, win)
    assert calls == [20]


def test_numrange_requires_three_angles():
    with pytest.raises(ParameterError):
        numerical_range_boundary(TOEPLITZ, 2)


def _component_labels(bits):
    """4-neighbour connected-component labels of a boolean grid."""
    from collections import deque

    labels = np.zeros(bits.shape, dtype=int)
    current = 0
    for r0 in range(bits.shape[0]):
        for c0 in range(bits.shape[1]):
            if bits[r0, c0] and labels[r0, c0] == 0:
                current += 1
                queue = deque([(r0, c0)])
                labels[r0, c0] = current
                while queue:
                    r, c = queue.popleft()
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                        if (0 <= rr < bits.shape[0] and 0 <= cc < bits.shape[1]
                                and bits[rr, cc] and labels[rr, cc] == 0):
                            labels[rr, cc] = current
                            queue.append((rr, cc))
    return labels, current


def test_envelope_isolates_eigenvalues_of_large_entry_matrix():
    a = build_matrix(MatrixSpec("matrix_A1"))
    f = build_frame(a, 2)
    win = auto_window(f, cols=180, rows=140)
    raster = envelope_raster(a, 2, 120, win)
    labels, count = _component_labels(raster.bits)
    assert count >= 3
    s, t = win.cell_centers()
    per_component = {}
    for ev in np.linalg.eigvals(a):
        ci = int(np.argmin(np.abs(s - ev.real)))
        ri = int(np.argmin(np.abs(t - ev.imag)))
        assert raster.bits[ri, ci]
        per_component[labels[ri, ci]] = per_component.get(labels[ri, ci], 0) + 1
    # at least two eigenvalues sit in singleton components
    assert sum(1 for v in per_component.values() if v == 1) >= 2


def test_membership_grid_rotation_shift_identity():
    # membership of a*A + b at mapped points equals membership of A at the
    # originals once the angle grid is shifted by arg(a)
    a = random_complex(4, seed=55)
    phi = 0.6
    scale = 2.0
    b = 0.3 - 0.8j
    mapped = scale * np.exp(1j * phi) * a + b * np.eye(4)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    thetas = theta_grid(40)
    base = envelope_member_mask(a, 2, thetas + phi, pts)
    image = envelope_member_mask(mapped, 2, thetas, scale * np.exp(1j * phi) * pts + b)
    assert np.array_equal(base, image)


# --- overlays -----------------------------------------------------------------

OVERLAY_MATRICES = [TOEPLITZ, build_matrix(MatrixSpec("matrix_A1")),
                    build_matrix(MatrixSpec("pair_A")),
                    random_complex(5, seed=3), random_complex(6, seed=17)]


def _rotated_plane_reference(frame, window):
    """One overlay traced the earlier way, as complex vertex arrays.

    The order-k curve of the frame is traced at the window's full
    resolution in the bounding box of the rotated window, then rotated back.
    It is not clipped, so it covers the whole window.
    """
    corners = np.array([complex(window.s_min, window.t_min),
                        complex(window.s_max, window.t_min),
                        complex(window.s_max, window.t_max),
                        complex(window.s_min, window.t_max)]) * np.exp(1j * frame.theta)
    box = Window(corners.real.min(), corners.real.max(), corners.imag.min(),
                 corners.imag.max(), cols=window.cols, rows=window.rows)
    cs = trace_implicit(lambda s, t: g_field(frame, s, t), box)
    back = np.exp(-1j * frame.theta)
    return [(p[:, 0] + 1j * p[:, 1]) * back for p in cs.polylines]


def _distance_to_polylines(points, polylines):
    """Distance of each complex point to the nearest segment of the polylines."""
    a = np.concatenate([p[:-1] for p in polylines])
    b = np.concatenate([p[1:] for p in polylines])
    d = b - a
    rel = points[:, None] - a[None, :]
    u = np.clip((rel * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    return np.min(np.abs(rel - u * d), axis=1)


def _overlay_grid(window):
    return Window(window.s_min, window.s_max, window.t_min, window.t_max,
                  cols=max(2, (window.cols + 1) // 2), rows=max(2, (window.rows + 1) // 2))


def test_overlays_follow_the_rotated_plane_curves():
    # every overlay vertex lies within one overlay-cell diagonal of the curve
    # the earlier rotated-plane method traced at twice the resolution, and
    # inside the window
    thetas = theta_grid(12)
    for a in OVERLAY_MATRICES:
        for k in range(1, min(3, a.shape[0] - 1) + 1):
            window = auto_window(build_frame(a, k), cols=120, rows=90)
            tolerance = _overlay_grid(window).cell_diagonal
            stack = build_frames(a, k, thetas)
            for i in range(len(stack)):
                overlays = envelope_overlays(stack[i:i + 1], window)
                assert overlays.kind == "overlay" and overlays.window == window
                assert overlays.polylines
                verts = np.vstack(overlays.polylines)
                assert np.all(window.contains(verts[:, 0], verts[:, 1]))
                ref = _rotated_plane_reference(stack[i], window)
                dist = _distance_to_polylines(verts[:, 0] + 1j * verts[:, 1], ref)
                assert np.max(dist) <= tolerance


def test_overlays_equal_tracing_the_rotated_field_on_the_half_grid():
    # each overlay is the zero set of z -> g(e^{i theta} z) on the half grid,
    # saddle cells included: both cases have saddle cells at some angles
    cases = ((build_matrix(MatrixSpec("pair_A")), (60, 45)),
             (random_complex(6, seed=17), (40, 30)))
    for a, (cols, rows) in cases:
        stack = build_frames(a, 3, theta_grid(24))
        window = auto_window(build_frame(a, 3), cols=cols, rows=rows)
        grid = _overlay_grid(window)
        s, t = np.meshgrid(*grid.node_axes())
        want = []
        saddles = 0
        for i in range(len(stack)):
            frame = stack[i]
            ph = np.exp(1j * frame.theta)

            def rotated(s, t, frame=frame, ph=ph):
                return g_field(frame, ph.real * s - ph.imag * t, ph.imag * s + ph.real * t)

            want.append(trace_implicit(rotated, grid))
            b = rotated(s, t) >= 0.0
            saddles += np.count_nonzero((b[:-1, :-1] == b[1:, 1:]) & (b[:-1, 1:] == b[1:, :-1])
                                        & (b[:-1, :-1] != b[:-1, 1:]))
        assert saddles > 0
        got = envelope_overlays(stack, window)
        polylines = [p for cs in want for p in cs.polylines]
        assert got.closed_flags == tuple(f for cs in want for f in cs.closed_flags)
        assert len(got.polylines) == len(polylines)
        for p, q in zip(got.polylines, polylines):
            assert np.array_equal(p, q)


def _same_curves(got, want):
    return (got.closed_flags == want.closed_flags
            and len(got.polylines) == len(want.polylines)
            and all(np.array_equal(p.view(np.int64), q.view(np.int64))
                    for p, q in zip(got.polylines, want.polylines)))


def test_overlays_do_not_depend_on_the_block_size(monkeypatch):
    # a budget of one (angle, node) pair evaluates one grid row of one angle
    # per call; a huge budget evaluates all 16 angles (16416 pairs) in one
    # call.  For k >= 3, g_field itself rounds differently once a call holds
    # 16384 points or more (NumPy elides the temporaries of the cofactor
    # products into in-place multiplies, which round differently), so there
    # only the budgets below that size are compared bit for bit.
    cases = ((TOEPLITZ, 2, (1, 10 ** 9)), (build_matrix(MatrixSpec("pair_A")), 1, (1, 10 ** 9)),
             (random_complex(5, seed=3), 3, (1,)))
    for a, k, budgets in cases:
        window = auto_window(build_frame(a, k), cols=75, rows=53)
        stack = build_frames(a, k, theta_grid(16))
        default = envelope_overlays(stack, window)
        for pairs in budgets:
            monkeypatch.setattr(envelope_module, "_FIELD_BLOCK_PAIRS", pairs)
            assert _same_curves(envelope_overlays(stack, window), default)
        monkeypatch.undo()


def test_raster_from_a_given_stack_is_the_same(monkeypatch):
    for a, k in ((TOEPLITZ, 2), (random_complex(5, seed=3), 3)):
        window = auto_window(build_frame(a, k), cols=48, rows=36)
        stack = build_frames(a, k, theta_grid(40))
        ref = envelope_raster(a, k, 40, window)
        monkeypatch.setattr(envelope_module, "build_frames", None)
        got = envelope_raster(a, k, 40, window, stack=stack)
        monkeypatch.undo()
        assert np.array_equal(got.bits, ref.bits)
