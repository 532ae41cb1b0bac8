import numpy as np
import pytest

from specbound import (
    FrameCache,
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
    theta_grid,
)
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
    for frame in build_frames(a, k, thetas):
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
    cache = FrameCache()
    r1 = envelope_raster(TOEPLITZ, 1, 40, win, cache=cache)
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
