import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specbound.envelope as envelope_module
import specbound.trace as trace_module
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
    envelope_raster,
    g_field,
    gamma_curves,
    hyperbola_set,
    membership_tolerance,
    numerical_range_boundary,
    point_in_polygon,
    rank_numrange_raster,
    rotation_spectra,
    theta_grid,
)
from specbound.envelope import envelope_overlays
from specbound.gallery import gallery_entries
from specbound.linalg import _normalised, max_abs
from conftest import (chunk_settings, overlay_grid, overlays_at_every_node, pair_at_every_node,
                      random_complex, trace_field)

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
    assert not envelope_member_mask(a, 2, [0.0], [p])[0]


def test_toeplitz_eigenvalues_120_thetas():
    evs = np.linalg.eigvals(TOEPLITZ)
    assert np.all(envelope_member_mask(TOEPLITZ, 2, theta_grid(120), evs))


def test_membership_needs_thetas():
    with pytest.raises(ParameterError):
        envelope_member_mask(TOEPLITZ, 2, [], [100 + 0j])
    with pytest.raises(ParameterError):
        envelope_margins(TOEPLITZ, 2, [], [100 + 0j])


def _reference_mask(a, k, thetas, points):
    """The mask's kernel at every point and angle, in the given order, no culling.

    Each call gets one angle's constants as scalars, so the mask's blocks of
    angles are compared with one-angle calls.
    """
    from specbound.inequality import _member, _member_constants

    sigma = 2.0 ** round(np.log2(np.max(np.abs(a))))
    pts = np.asarray(points, dtype=np.complex128) / sigma
    member = np.ones(pts.shape, dtype=bool)
    const = _member_constants(build_frames(a / sigma, k, thetas), 1.0)
    for i, theta in enumerate(const[0]):
        z = np.exp(1j * theta) * pts
        member &= _member([c[i] for c in const], z.real, z.imag)
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


def _counted_member_calls(monkeypatch):
    """(angles, points) of every membership call the mask makes from now on."""
    calls = []
    member = envelope_module._member

    def counted(const, s, t):
        # a lone angle comes as one flat row of points
        calls.append(np.shape(s) if np.ndim(s) == 2 else (1, np.size(s)))
        return member(const, s, t)

    monkeypatch.setattr(envelope_module, "_member", counted)
    return calls


def test_culling_mask_exits_once_every_point_is_dead(monkeypatch):
    # the first call covers every point; a call is a block of angles, so the
    # angles evaluated are the leading axes of the calls, and the mask stops
    # before it has evaluated every angle
    f = build_frame(TOEPLITZ, 2)
    far = float(f.deltas[0]) + 100.0
    win = Window(far, far + 10.0, -5.0, 5.0, cols=20, rows=15)
    s, t = win.cell_centers()
    grid = s[None, :] + 1j * t[:, None]
    thetas = theta_grid(64)
    ref = _reference_mask(TOEPLITZ, 2, thetas, grid)
    assert not ref.any()
    calls = _counted_member_calls(monkeypatch)
    got = envelope_member_mask(TOEPLITZ, 2, thetas, grid)
    assert np.array_equal(got, ref)
    assert calls[0] == (envelope_module._MASK_BLOCK_PAIRS // grid.size, grid.size)
    assert sum(rows for rows, _ in calls) < len(thetas)


@pytest.mark.parametrize("pairs", [1, 2 ** 30])
def test_culling_mask_does_not_depend_on_the_block_size(monkeypatch, pairs):
    # one angle per call, or every angle in one call: the same bits as the
    # one-angle reference, on shuffled and odd-count angle lists
    monkeypatch.setattr(envelope_module, "_MASK_BLOCK_PAIRS", pairs)
    rng = np.random.default_rng(13)
    mats = [TOEPLITZ, build_matrix(MatrixSpec("pair_A")), random_complex(6, seed=301)]
    for a in mats:
        for k in range(1, min(5, a.shape[0] - 1) + 1):
            win = auto_window(build_frame(a, k), cols=30, rows=21)
            s, t = win.cell_centers()
            grid = s[None, :] + 1j * t[:, None]
            for thetas in (theta_grid(37), rng.permutation(theta_grid(24)),
                           rng.uniform(-4.0, 4.0, 9)):
                ref = _reference_mask(a, k, thetas, grid)
                assert ref.any() and not ref.all(), (k, len(thetas))
                got = envelope_member_mask(a, k, thetas, grid)
                assert np.array_equal(got, ref), (k, len(thetas))


@pytest.mark.parametrize("pairs", [None, 500])
def test_culling_mask_calls_hold_at_most_the_block_pairs(monkeypatch, pairs):
    # the mask's memory bound: no call holds more than _MASK_BLOCK_PAIRS
    # (angle, point) pairs, unless a single angle alone has more live points
    if pairs is not None:
        monkeypatch.setattr(envelope_module, "_MASK_BLOCK_PAIRS", pairs)
    budget = envelope_module._MASK_BLOCK_PAIRS
    calls = _counted_member_calls(monkeypatch)
    thetas = theta_grid(120)
    for k in (2, 3):
        win = auto_window(build_frame(TOEPLITZ, k), cols=80, rows=60)
        s, t = win.cell_centers()
        grid = s[None, :] + 1j * t[:, None]
        calls.clear()
        got = envelope_member_mask(TOEPLITZ, k, thetas, grid)
        assert np.array_equal(got, _reference_mask(TOEPLITZ, k, thetas, grid))
        assert calls[0] == (1, grid.size)
        assert any(rows > 1 for rows, _ in calls)
        for rows, live in calls:
            assert rows * live <= budget or (rows == 1 and live > budget), (rows, live)


def test_mask_computes_no_determinant_or_eigenvalue(monkeypatch):
    # one kernel for every order: no eigvalsh, no cofactors, no inverse, no g_field
    import specbound.inequality as inequality

    def forbidden(*args, **kwargs):
        raise AssertionError("the mask called the field code")

    for name in ("eigvalsh", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for module in (inequality, envelope_module):
        monkeypatch.setattr(module, "g_field", forbidden)
    for name in ("_det3", "_adjugate3", "_m2_pieces"):
        monkeypatch.setattr(inequality, name, forbidden)
    a = random_complex(6, seed=17)
    for k in (1, 2, 3, 4, 5):
        win = auto_window(build_frame(a, k), cols=12, rows=9)
        member = envelope_raster(a, k, 24, win).bits
        assert member.any() and not member.all()
        assert envelope_member_mask(a, k, theta_grid(24), np.linalg.eigvals(a)).all()


# The scale properties run on these matrices; k is capped at n - 1.
SCALE_MATRICES = (TOEPLITZ, random_complex(5, seed=3), random_complex(6, seed=17),
                  build_matrix(MatrixSpec("pair_A")))


def _p_margin(a, k, thetas, points):
    """min over the angles of lambda_max(P) for A/sigma at z/sigma, by eigvalsh.

    P = kappa diag(delta_j - s) - (s - delta_{k+1}) W*W, formed as a matrix.
    """
    from specbound.frame import _shift_matrix

    sigma = 2.0 ** round(np.log2(np.max(np.abs(a))))
    stack = build_frames(a / sigma, k, thetas)
    z = np.exp(1j * stack.theta)[:, None] * (np.ravel(points) / sigma)
    w = _shift_matrix(stack)[:, None] - z[..., None, None] * np.eye(k)
    d = np.diagonal(w, axis1=-2, axis2=-1).real
    x = z.real - stack.delta_next[:, None]
    p = (stack.kappa[:, None, None, None] * (d[..., None] * np.eye(k))
         - x[..., None, None] * (np.conj(np.swapaxes(w, -1, -2)) @ w))
    return np.linalg.eigvalsh(p)[..., -1].min(axis=0).reshape(np.shape(points))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(e=st.integers(-30, 30), k=st.integers(1, 4), which=st.integers(0, 3))
@example(e=30, k=3, which=0)
@example(e=-30, k=3, which=1)
@example(e=-20, k=4, which=2)
def test_mask_is_invariant_under_scaling(e, k, which):
    # A -> cA, z -> cz leaves the regions as they are: bit for bit for
    # c = 2^e, and away from a 1e-9 band at the boundary for c = 10^e, with
    # no RuntimeWarning.  An absolute tolerance on g once made the whole
    # plane a member at c = 1e-20.
    a = SCALE_MATRICES[which]
    k = min(k, a.shape[0] - 1)
    win = auto_window(build_frame(a, k), cols=16, rows=12)
    s, t = win.cell_centers()
    pts = np.concatenate([(s[None, :] + 1j * t[:, None]).ravel(), np.linalg.eigvals(a)])
    thetas = theta_grid(12)
    base = envelope_member_mask(a, k, thetas, pts)
    assert base.any() and not base.all()
    assert np.array_equal(envelope_member_mask(2.0 ** e * a, k, thetas, 2.0 ** e * pts), base)
    c = 10.0 ** e
    scaled = envelope_member_mask(c * a, k, thetas, c * pts)
    margin = _p_margin(a, k, thetas, pts)
    sigma = 2.0 ** round(np.log2(np.max(np.abs(a))))
    clear = np.abs(margin + 1e-12) > 1e-9 * (1.0 + np.abs(pts) / sigma) ** 3
    assert np.array_equal(base[clear], margin[clear] >= -1e-12)
    assert np.array_equal(scaled[clear], base[clear])


@pytest.mark.parametrize("c", [1e-20, 1e-3, 1.0, 1e60, 1e150])
def test_far_point_is_not_a_member_at_any_scale(c):
    a = random_complex(5, seed=3)
    ev = np.linalg.eigvals(a)
    p = c * (ev[0] + 10.0 * (1 + 1j))
    for k in (1, 2, 3):
        assert not envelope_member_mask(c * a, k, theta_grid(120), [p])[0]
        assert envelope_member_mask(c * a, k, theta_grid(120), c * ev).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6), k=st.integers(1, 4),
       e=st.integers(-30, 30), j=st.integers(0, 23), d=st.floats(1e-3, 10.0),
       u=st.floats(-10.0, 10.0))
def test_points_beyond_a_sampled_support_line_are_never_members(seed, n, k, e, j, d, u):
    # at a sampled angle theta the point lies d max|a_ij| right of the line
    # Re(e^{i theta} z) = delta_1(theta) that bounds the numerical range;
    # there P <= -d^3 I in A/sigma units, far below the slack
    a = 10.0 ** e * random_complex(n, seed)
    k = min(k, n - 1)
    thetas = theta_grid(24)
    unit = np.max(np.abs(a))
    delta1 = rotation_spectra(a, [thetas[j]])[0, 0]
    p = np.exp(-1j * thetas[j]) * complex(delta1 + d * unit, u * unit)
    assert not envelope_member_mask(a, k, thetas, [p])[0]


def _normal_matrix(seed, n):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    return (q * lam) @ q.conj().T


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6), e=st.integers(-30, 30))
def test_eigenvalues_of_normal_matrices_are_members(seed, n, e):
    # the eigenvalues of a normal matrix lie on its curves, where only the
    # slack keeps them in
    a = 10.0 ** e * _normal_matrix(seed, n)
    ev = np.linalg.eigvals(a)
    for k in range(1, min(4, n - 1) + 1):
        assert envelope_member_mask(a, k, theta_grid(24), ev).all(), k


@pytest.mark.parametrize("name", ["toeplitz_eq1", "a_tilde", "a_hat", "pair_A", "pair_B",
                                  "matrix_C", "matrix_F", "matrix_A1", "frank"])
def test_eigenvalues_of_gallery_matrices_are_members(name):
    a = build_matrix(MatrixSpec(name))
    ev = np.linalg.eigvals(a)
    for k in range(1, min(4, a.shape[0] - 1) + 1):
        for c in (1.0, 2.0 ** -40, 1e-25, 1e40):
            assert envelope_member_mask(c * a, k, theta_grid(120), c * ev).all(), (k, c)


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
            monkeypatch.setattr(envelope_module, "_field_points", lambda k=None, width=1: 1)
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
        monkeypatch.setattr(envelope_module, "_field_points", lambda k=None, width=1: pairs)
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


def test_kept_cells_match_the_two_dimensional_nonzero(monkeypatch):
    # random cuts with empty rows (first >= stop), full rows and one-cell
    # rows, and the cuts of the benchmark's k = 2 rasters: the figures' at
    # 160 x 120 and the raster workload's at 240 x 180
    rng = np.random.default_rng(6)
    cuts = []
    for rows, cols in ((1, 1), (7, 9), (60, 45)):
        first, stop = rng.integers(0, cols + 1, (2, rows))
        first[::4], stop[::4] = 0, cols
        first[1::5], stop[1::5] = cols, 0
        cuts.append((first, stop, cols))
    kept_cells = envelope_module._kept_cells

    def recorded(first, stop):
        cuts.append((first, stop, win.cols))
        return kept_cells(first, stop)

    monkeypatch.setattr(envelope_module, "_kept_cells", recorded)
    for a in (TOEPLITZ, build_matrix(MatrixSpec("random_complex", {"n": 5, "seed": 1000004}))):
        for cols, rows in ((160, 120), (240, 180)):
            win = auto_window(build_frame(a, 2), cols=cols, rows=rows)
            envelope_raster(a, 2, 120, win)
    assert len(cuts) == 7
    for first, stop, cols in cuts:
        column = np.arange(cols)
        want = np.nonzero((column >= first[:, None]) & (column < stop[:, None]))
        got = kept_cells(first, stop)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


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


@pytest.mark.parametrize("c", [2.0 ** -60, 2.0 ** -7, 2.0 ** 9, 2.0 ** 50, 1e-9, 1e-12])
def test_rank_rasters_do_not_depend_on_the_scale(c):
    # A -> cA on the window scaled by c: bit for bit for a power of two.  An
    # absolute cut slack once made every cell a member at c = 1e-12.
    a = random_complex(5, seed=3)
    win = auto_window(build_frame(a, 1), cols=60, rows=45)
    scaled = Window(c * win.s_min, c * win.s_max, c * win.t_min, c * win.t_max,
                    cols=60, rows=45)
    for ell in (1, 3):
        base = rank_numrange_raster(a, ell, 120, win).bits
        assert not base.all()
        assert np.array_equal(rank_numrange_raster(c * a, ell, 120, scaled).bits, base)


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


def _reference_rank_raster(a, ell, theta_count, window):
    """The rank raster one angle at a time, over the whole complex grid.

    It tests the real part of the complex product e^{i theta} z at every
    cell, where rank_numrange_raster compares s with a quotient; the two
    rules differ only on a cell center within a few rounding errors of a
    quotient, which none of the windows it is compared on holds.
    """
    thetas = theta_grid(theta_count)
    s, t = window.cell_centers()
    grid = s[None, :] + 1j * t[:, None]
    unit, sigma = _normalised(a)
    tol = 1e-9 * sigma * (1.0 + max_abs(unit))
    bits = np.ones(grid.shape, dtype=bool)
    for theta, deltas in zip(thetas, rotation_spectra(a, thetas)):
        bits &= (np.exp(1j * theta) * grid).real <= deltas[ell - 1] + tol
    return bits


def test_rank_raster_matches_per_angle_reference(monkeypatch):
    # every level of the gallery and of seeded n = 5 and n = 12 matrices; 4
    # angles put cos theta at about +-6e-17, and 2 x 2 is the smallest grid;
    # the two matrices of the benchmark figures, matrix_A1 and pair_A also
    # at 400 x 300; one and two angles; a given window across W(A), one
    # 1e150 wide and one +-1e300; then with one angle per block
    mats = [(name, build_matrix(MatrixSpec(name))) for name, _, _ in gallery_entries()]
    mats += [("seeded", random_complex(n, seed=seed)) for n, seed in ((5, 11), (5, 12), (12, 4))]
    figure = "random_complex:n=5,seed=1000004"
    mats.append((figure, build_matrix(MatrixSpec("random_complex", {"n": 5, "seed": 1000004}))))
    given = [Window(-3.0, 9.0, -6.0, 6.0, cols=37, rows=23),
             Window(-5e149, 5e149, -2.0, 2.0, cols=37, rows=23),
             Window(-1e300, 1e300, -1e300, 1e300, cols=37, rows=23)]
    for name, a in mats:
        box = numerical_range_boundary(a, 120).window
        grids = [(2, 2), (37, 23)]
        if name in ("toeplitz_eq1", "matrix_A1", "pair_A", figure):
            grids.append((400, 300))
        windows = [Window(box.s_min, box.s_max, box.t_min, box.t_max, cols=cols, rows=rows)
                   for cols, rows in grids]
        for win in windows + given:
            for ell in range(1, a.shape[0] + 1):
                for count in (1, 2, 3, 4, 120):
                    got = rank_numrange_raster(a, ell, count, win).bits
                    assert np.array_equal(got, _reference_rank_raster(a, ell, count, win))
    monkeypatch.setattr(envelope_module, "_CUT_BLOCK_PAIRS", 1)
    for name, a in mats[:3]:
        box = numerical_range_boundary(a, 120).window
        win = Window(box.s_min, box.s_max, box.t_min, box.t_max, cols=37, rows=23)
        for ell in range(1, a.shape[0] + 1):
            got = rank_numrange_raster(a, ell, 120, win).bits
            assert np.array_equal(got, _reference_rank_raster(a, ell, 120, win))


def _quotient_rank_raster(a, ell, theta_count, window):
    """The rank raster's quotient rule one angle at a time, over the whole grid.

    At each angle, with c + i d = e^{i theta} and q = (delta_ell + tol + d t)
    / c on A/sigma and the cell centers over sigma, a cell is kept when
    s <= q for c > 0 and s >= q for c < 0.
    """
    thetas = theta_grid(theta_count)
    unit, sigma = _normalised(a)
    tol = 1e-9 * (1.0 + max_abs(unit))
    s, t = window.cell_centers()
    s, t = s / sigma, t[:, None] / sigma
    bits = np.ones((t.size, s.size), dtype=bool)
    for phase, deltas in zip(np.exp(1j * thetas), rotation_spectra(unit, thetas)):
        with np.errstate(over="ignore"):
            q = (deltas[ell - 1] + tol + phase.imag * t) / phase.real
        bits &= (s <= q) if phase.real > 0.0 else (s >= q)
    return bits


def _quotient_windows(a, ell, count, m):
    """9 x 3 windows whose top middle cell center is on, one ulp below and one above a quotient.

    The quotient is (cut + d t) / c of angle m and the top row, computed as
    rank_numrange_raster computes it; the windows are two ulps a column
    wide, so every cell center is exact.
    """
    unit, sigma = _normalised(a)
    thetas = theta_grid(count)
    phase = np.exp(1j * thetas)[m]
    cut = rotation_spectra(unit, thetas)[m, ell - 1] + 1e-9 * (1.0 + max_abs(unit))
    t = Window(0.0, 1.0, -1.0, 1.0, cols=2, rows=3).cell_centers()[1][0]
    q = (cut + phase.imag * (t / sigma)) / phase.real * sigma
    ulp = abs(np.spacing(q))
    for shift in (0, -1, 1):
        win = Window(q + (shift - 9) * ulp, q + (shift + 9) * ulp, -1.0, 1.0, cols=9, rows=3)
        assert win.cell_centers()[0][4] == q + shift * ulp
        yield win


def test_rank_raster_cuts_the_rows_at_their_quotients():
    # a cell center on the quotient of one angle and the top row, or one ulp
    # beside it, is kept as the quotient rule says, one angle at a time over
    # the whole grid; with one angle (c = 1) the cell on the quotient and the
    # one below it are kept, the one above it is not.  4 angles put cos
    # theta at about +-6e-17.
    for a in (TOEPLITZ, random_complex(5, seed=11)):
        for count in (1, 2, 4, 7):
            for m in range(count):
                for ell in (1, 2):
                    for i, win in enumerate(_quotient_windows(a, ell, count, m)):
                        got = rank_numrange_raster(a, ell, count, win).bits
                        assert np.array_equal(got, _quotient_rank_raster(a, ell, count, win))
                        if count == 1:
                            assert got[0, 4] == (i != 2)


def test_rank_raster_memory_is_bounded():
    # the half-plane cut forms its quotients over blocks of at most 2^16
    # (angle, row) pairs and rotation_spectra solves the angles in chunks of
    # a fixed byte budget, so 20000 angles over 48 rows need no (rows x
    # angles) array: the call peaked at 2.9-3.2 MiB traced (two solve threads
    # or one), mostly the chunked spectra, of which the cut took 1.6 MiB
    box = numerical_range_boundary(TOEPLITZ, 120).window
    win = Window(box.s_min, box.s_max, box.t_min, box.t_max, cols=64, rows=48)
    tracemalloc.start()
    try:
        rank_numrange_raster(TOEPLITZ, 2, 20000, win)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_rank_raster_of_a_window_wholly_outside_or_inside():
    box = numerical_range_boundary(TOEPLITZ, 120).window
    c = np.trace(TOEPLITZ) / 4
    outside = Window(box.s_max + 1.0, box.s_max + 2.0, box.t_min, box.t_max, cols=37, rows=23)
    inside = Window(c.real - 1e-3, c.real + 1e-3, c.imag - 1e-3, c.imag + 1e-3, cols=37, rows=23)
    for win, member in ((outside, False), (inside, True)):
        for count in (3, 4, 120):
            got = rank_numrange_raster(TOEPLITZ, 1, count, win).bits
            assert np.all(got == member)
            assert np.array_equal(got, _reference_rank_raster(TOEPLITZ, 1, count, win))


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
    """The boundary points with every solved angle in one unchunked call.

    An even count solves only its first half: the top eigenvector at
    theta + pi is the bottom one at theta.
    """
    solved = theta_count // 2 if theta_count % 2 == 0 else theta_count
    thetas = theta_grid(theta_count)[:solved]
    h = np.exp(1j * thetas)[:, None, None] * a[None, :, :]
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    v = np.linalg.eigh(h)[1]
    u1 = v[:, :, -1] if solved == theta_count else np.concatenate([v[:, :, -1], v[:, :, 0]])
    z = np.einsum("mi,ij,mj->m", np.conj(u1), a, u1)
    return np.column_stack([z.real, z.imag])


def test_numrange_chunking_is_bit_identical(monkeypatch):
    import specbound.frame as frame_module

    # 120 angles are antipodal; 3 and 37 are odd, so no angle has a pair
    for a in (TOEPLITZ, random_complex(40, seed=6), 1e-150 * random_complex(7, seed=2)):
        for count in (3, 37, 120):
            ref = _reference_numrange_points(a, count)
            assert np.array_equal(numerical_range_boundary(a, count).polylines[0], ref)
            for budget, workers in chunk_settings(a.shape[0]):
                monkeypatch.setattr(frame_module, "_CHUNK_BYTES", budget)
                monkeypatch.setattr(frame_module, "_WORKERS", workers)
                assert np.array_equal(numerical_range_boundary(a, count).polylines[0], ref)
                monkeypatch.undo()


def test_numrange_memory_is_bounded(monkeypatch):
    # the unchunked solve held two 49 MB stacks of 160 x 160 matrices; two
    # threads share the one budget, one angle each
    import specbound.frame as frame_module

    a = random_complex(160, seed=1)
    for workers in (1, 2):
        monkeypatch.setattr(frame_module, "_WORKERS", workers)
        assert frame_module._chunk_plan(160, 60) == (workers, 2 // workers)
        tracemalloc.start()
        try:
            numerical_range_boundary(a, 120)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, workers


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
    cs = trace_field(lambda s, t: g_field(frame, s, t), box)
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


def test_overlays_follow_the_rotated_plane_curves():
    # every overlay vertex lies within one overlay-cell diagonal of the curve
    # the earlier rotated-plane method traced at twice the resolution, and
    # inside the window
    thetas = theta_grid(12)
    for a in OVERLAY_MATRICES:
        for k in range(1, min(3, a.shape[0] - 1) + 1):
            window = auto_window(build_frame(a, k), cols=120, rows=90)
            tolerance = overlay_grid(window).cell_diagonal
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
        grid = overlay_grid(window)
        s, t = np.meshgrid(*grid.node_axes())
        want = []
        saddles = 0
        for i in range(len(stack)):
            frame = stack[i]
            ph = np.exp(1j * frame.theta)

            def rotated(s, t, frame=frame, ph=ph):
                return g_field(frame, ph.real * s - ph.imag * t, ph.imag * s + ph.real * t)

            want.append(trace_field(rotated, grid))
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
    # a field budget of one value evaluates one grid row of one item per
    # call; a huge one evaluates all 16 angles (16416 pairs) in one call,
    # past the size at which NumPy elides temporaries into in-place
    # products, so the k = 3 cofactor products are checked across it too.  A
    # trace budget of one value traces one item per marching-squares pass, a
    # huge one all items in one pass.  The same holds for the gamma pair (one
    # item of two fields) and the hyperbolas (one item per pair).
    cases = (TOEPLITZ, 2), (build_matrix(MatrixSpec("pair_A")), 1), (random_complex(5, seed=3), 3)
    for a, k in cases:
        frame = build_frame(a, k)
        window = auto_window(frame, cols=75, rows=53)
        stack = build_frames(a, k, theta_grid(16))
        traced = [lambda: (envelope_overlays(stack, window),),
                  lambda: gamma_curves(frame, window),
                  lambda: (hyperbola_set(frame.deltas, k, window),)]
        for trace in traced:
            default = trace()
            for pairs in (1, 10 ** 9, None):
                for nodes in (1, 10 ** 9, None):
                    if pairs is not None:
                        monkeypatch.setattr(trace_module, "_field_points",
                                            lambda k=None, width=1, pairs=pairs: pairs)
                    if nodes is not None:
                        monkeypatch.setattr(trace_module, "_TRACE_BLOCK_NODES", nodes)
                    got = trace()
                    monkeypatch.undo()
                    assert len(got) == len(default)
                    assert all(_same_curves(g, d) for g, d in zip(got, default))


def test_band_sampling_equals_sampling_every_node(monkeypatch):
    # gamma_curves and envelope_overlays evaluate g only within a margin of
    # the band delta_{k+1} <= x <= delta_1, on its runs of nodes in each row
    # (trace._band_runs); their curves must be those of g sampled at every
    # node.  With the default budget these grids put several angles in each
    # overlay call; a budget of 64 values splits every angle over calls of
    # a row or two.  The windows are the auto_window, or miss the band on
    # the left or the right, or straddle it.  The diagonal matrix has
    # kappa = 0 at every angle, so its curve is the line s = delta_{k+1}.
    diagonal = np.diag([2.0 + 1.0j, 1.0 - 2.0j, -0.5 + 0.5j, -1.5 - 1.0j])
    assert build_frame(diagonal, 2).kappa == 0.0
    points = []
    plain = trace_module.g_field

    def counting(frame, s, t, which="max"):
        points.append(np.broadcast(s, t).size)
        return plain(frame, s, t, which=which)

    for a in (TOEPLITZ, random_complex(5, seed=3), diagonal):
        for k in range(1, a.shape[0]):
            frame = build_frame(a, k)
            stack = build_frames(a, k, theta_grid(8))
            lo, hi = frame.delta_next, float(frame.deltas[0])
            windows = [auto_window(frame, cols=40, rows=30),
                       Window(lo - 3.0, lo - 1.0, -1.0, 1.0, cols=30, rows=20),
                       Window(hi + 1.0, hi + 3.0, -2.0, 2.0, cols=30, rows=20),
                       Window(lo - 0.5, 0.5 * (lo + hi), -1.5, 1.5, cols=36, rows=25)]
            for w, window in enumerate(windows):
                want_pair = pair_at_every_node(frame, window)
                want_overlays = overlays_at_every_node(stack, window)
                for pairs in (None, 64):
                    if pairs is not None:
                        monkeypatch.setattr(trace_module, "_field_points",
                                            lambda k=None, width=1, pairs=pairs: pairs)
                    monkeypatch.setattr(trace_module, "g_field", counting)
                    points.clear()
                    pair = gamma_curves(frame, window)
                    monkeypatch.setattr(trace_module, "g_field", plain)
                    overlays = envelope_overlays(stack, window)
                    monkeypatch.undo()
                    assert all(_same_curves(g, want) for g, want in zip(pair, want_pair))
                    assert _same_curves(overlays, want_overlays)
                    if w in (1, 2):
                        # a window beyond the band evaluates g at no node
                        assert sum(points) == 0
    # a grid of over 2^14 nodes, whose calls are one-angle row bands by default
    window = auto_window(build_frame(TOEPLITZ, 2), cols=300, rows=220)
    stack = build_frames(TOEPLITZ, 2, theta_grid(4))
    grid = overlay_grid(window)
    assert grid.cols * grid.rows > trace_module._field_points(2)
    assert _same_curves(envelope_overlays(stack, window), overlays_at_every_node(stack, window))


def test_gamma_pair_shares_every_field_call_on_a_large_grid(monkeypatch):
    # over 2^18 nodes the pair is still one item: every call, on a band of
    # the node grid or at saddle centers, evaluates both extremes
    frame = build_frame(random_complex(5, seed=3), 3)
    window = auto_window(frame, cols=600, rows=450)
    calls = []

    def counted(frame, s, t, which="max"):
        calls.append((np.ndim(t), which))
        return g_field(frame, s, t, which=which)

    monkeypatch.setattr(trace_module, "g_field", counted)
    pair = gamma_curves(frame, window)
    monkeypatch.undo()
    assert window.cols * window.rows > 2 ** 18
    assert sum(ndim == 2 for ndim, _ in calls) > 1
    assert all(which == ("max", "min") for _, which in calls)
    assert all(_same_curves(g, gamma_curves(frame, window, (side,))[0])
               for g, side in zip(pair, ("max", "min")))


def test_overlay_memory_is_bounded():
    # the default 800 x 600 figure traces on a 400 x 300 node grid: one
    # marching-squares pass over all 16 angles held 22 MiB
    window = auto_window(build_frame(TOEPLITZ, 2))
    stack = build_frames(TOEPLITZ, 2, theta_grid(16))
    tracemalloc.start()
    try:
        overlays = envelope_overlays(stack, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(overlays.polylines) >= 16
    assert peak < 8 * 2 ** 20


def test_raster_from_a_given_stack_is_the_same(monkeypatch):
    for a, k in ((TOEPLITZ, 2), (random_complex(5, seed=3), 3)):
        window = auto_window(build_frame(a, k), cols=48, rows=36)
        stack = build_frames(a, k, theta_grid(40))
        ref = envelope_raster(a, k, 40, window)
        monkeypatch.setattr(envelope_module, "build_frames", None)
        got = envelope_raster(a, k, 40, window, stack=stack)
        monkeypatch.undo()
        assert np.array_equal(got.bits, ref.bits)


def _mismatched(k, thetas):
    """(order, angles) pairs that differ from (k, thetas).

    They differ in the order, the angle count, the order of the angles, one
    angle by one ulp, and every angle.
    """
    thetas = np.asarray(thetas, dtype=float)
    nudged = thetas.copy()
    nudged[-1] = np.nextafter(nudged[-1], 10.0)
    return [(k - 1, thetas), (k, thetas[:-1]), (k, thetas[::-1]), (k, nudged),
            (k, theta_grid(40))]


def test_member_mask_rejects_a_stack_of_other_angles_or_order():
    # the stack's angles once silently replaced the given ones
    stack = build_frames(TOEPLITZ, 2, theta_grid(120))
    evs = np.linalg.eigvals(TOEPLITZ)
    assert envelope_member_mask(TOEPLITZ, 2, theta_grid(120), evs, stack=stack).all()
    for k, thetas in _mismatched(2, theta_grid(120)):
        with pytest.raises(ParameterError):
            envelope_member_mask(TOEPLITZ, k, thetas, evs, stack=stack)


def test_margins_reject_a_stack_of_other_angles_or_order():
    # with the 120-angle stack, worst angles outside [0, 1] were reported
    stack = build_frames(TOEPLITZ, 2, theta_grid(120))
    evs = np.linalg.eigvals(TOEPLITZ)
    given = envelope_margins(TOEPLITZ, 2, theta_grid(120), evs, stack=stack)
    assert all(np.array_equal(g, w) for g, w in
               zip(given, envelope_margins(TOEPLITZ, 2, theta_grid(120), evs)))
    for k, thetas in _mismatched(2, theta_grid(120)) + [(2, [0.0, 1.0])]:
        with pytest.raises(ParameterError):
            envelope_margins(TOEPLITZ, k, thetas, evs, stack=stack)


def test_raster_rejects_a_stack_of_another_angle_count_or_order():
    # a 40-angle raster from a 120-angle stack once had the 120-angle bits
    window = auto_window(build_frame(TOEPLITZ, 2), cols=40, rows=30)
    stack = build_frames(TOEPLITZ, 2, theta_grid(120))
    assert envelope_raster(TOEPLITZ, 2, 120, window, stack=stack).theta_count == 120
    for k, count in ((2, 40), (2, 119), (1, 120), (3, 120)):
        with pytest.raises(ParameterError):
            envelope_raster(TOEPLITZ, k, count, window, stack=stack)


DIAGONAL = np.diag([2.0 + 1.0j, 1.0 - 2.0j, -0.5 + 0.5j, -1.5 - 1.0j])


def _lemma_matrices():
    """Every gallery matrix, seeded random_complex ones, and a diagonal (kappa = 0) one."""
    mats = [build_matrix(MatrixSpec(name)) for name, _, _ in gallery_entries()]
    mats += [random_complex(n, seed=seed) for n in (5, 6, 8) for seed in (1, 4)]
    assert all(np.all(build_frames(DIAGONAL, k, theta_grid(24)).kappa == 0.0) for k in (1, 2, 3))
    return mats + [DIAGONAL]


def test_member_is_false_past_the_half_plane_margin():
    # At an angle theta, a point whose rotated abscissa x lies mu/2 or more
    # right of delta_1(theta), mu = _cut_margin(|A/sigma|_F, |z|), has
    # Q = -(P + eta I) >= ((mu/2)^3 - eta) I, so the kernel must reject it
    # at every order, for kappa = 0 too, at |z| up to 1e6; envelope_raster
    # drops such cells without the kernel.  The same points of 2^e A, scaled
    # by 2^e, are rejected by the whole mask.
    from specbound.envelope import _cut_margin
    from specbound.inequality import _member, _member_constants

    rng = np.random.default_rng(5)
    thetas = theta_grid(24)
    checked = 0
    for a in _lemma_matrices():
        a, _ = _normalised(a)
        norm = np.linalg.norm(a)
        for k in range(1, a.shape[0]):
            stack = build_frames(a, k, thetas)
            const = _member_constants(stack, 1.0)
            for i, theta in enumerate(thetas):
                delta1 = float(stack.deltas[i, 0])
                y = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 20),
                                    np.geomspace(1.0, 1e6, 20) * rng.choice([-1, 1], 20)])
                factor = np.repeat([1.001, 2.0, 1e3], y.size)
                y = np.tile(y, 3)
                x = delta1
                for _ in range(3):  # the point's own margin, again once |z| is known
                    x = delta1 + factor * 0.5 * _cut_margin(norm, np.abs(x + 1j * y))
                z = np.exp(-1j * theta) * (x + 1j * y)
                w = np.exp(1j * const[0][i]) * z
                past = w.real - delta1 >= 0.5 * _cut_margin(norm, np.abs(z))
                assert np.count_nonzero(past) > 0.9 * z.size
                member = _member([c[i] for c in const], w.real, w.imag)
                assert not member[past].any(), (a, k, theta)
                checked += np.count_nonzero(past)
                if i % 8 == 0:
                    for e in (-300, 7, 300):
                        assert not envelope_member_mask(2.0 ** e * a, k, [theta],
                                                        2.0 ** e * z[past]).any()
    assert checked > 10 ** 5


def _raster_windows(a, k, cols, rows):
    """The auto window and windows inside W(A), straddling its edge and missing it."""
    unit = max_abs(a)
    spectra = rotation_spectra(a, theta_grid(120))
    center = np.trace(a) / a.shape[0]
    phase = np.exp(1j * theta_grid(120))
    # the distance from the centroid, which lies in W(A), to each sampled support line
    room = float(np.min(spectra[:, 0] - (phase * center).real))
    assert room > 0.0
    h = 0.3 * room
    edge = float(spectra[0, 0])
    return [auto_window(build_frame(a, k), cols=cols, rows=rows),
            Window(center.real - h, center.real + h, center.imag - h, center.imag + h,
                   cols=cols, rows=rows),
            Window(edge - unit, edge + unit, -unit, unit, cols=cols, rows=rows),
            Window(edge + unit, edge + 3.0 * unit, -unit, unit, cols=cols, rows=rows)]


def test_raster_equals_the_mask_on_every_cell(monkeypatch):
    # envelope_raster runs the kernel only inside the half-planes of W(A)
    # and must give the bits of the mask on every cell center, at every
    # order, on grids of 240x180, 48x36 and an odd size, on the auto window
    # and on windows inside W(A), straddling its edge and missing it, also
    # with one angle per block of the cut.  A window that misses W(A) makes
    # no kernel call.
    from specbound.envelope import _cut_margin

    mats = [TOEPLITZ, build_matrix(MatrixSpec("a_hat")), random_complex(6, seed=3), DIAGONAL]
    tested = cut = 0
    for a in mats:
        unit, sigma = _normalised(a)
        norm = np.linalg.norm(unit)
        for k in range(1, a.shape[0]):
            stack = build_frames(a, k, theta_grid(48))
            phase = np.exp(1j * stack.theta)[:, None, None]
            for cols, rows in ((240, 180), (48, 36), (97, 61)):
                for w, window in enumerate(_raster_windows(a, k, cols, rows)):
                    s, t = window.cell_centers()
                    want = envelope_member_mask(a, k, theta_grid(48), s + 1j * t[:, None],
                                                stack=stack)
                    calls = _counted_member_calls(monkeypatch)
                    got = envelope_raster(a, k, 48, window, stack=stack).bits
                    monkeypatch.undo()
                    assert np.array_equal(got, want), (a, k, cols, w)
                    monkeypatch.setattr(envelope_module, "_CUT_BLOCK_PAIRS", 1)
                    blocked = envelope_raster(a, k, 48, window, stack=stack).bits
                    monkeypatch.undo()
                    assert np.array_equal(blocked, want), (a, k, cols, w)
                    # the kernel sees the cells within mu of every half-plane, give
                    # or take the rounding of a bound: at most one cell per row end
                    s, t = s / sigma, t[:, None] / sigma
                    mu = _cut_margin(norm, np.abs(s).max() + np.abs(t))
                    inside = np.all(phase.real * s - phase.imag * t
                                    <= stack.deltas[:, 0, None, None] / sigma + mu, axis=0)
                    first = calls[0][1] if calls else 0
                    assert abs(first - np.count_nonzero(inside)) <= 2 * rows, (a, k, cols, w)
                    if w == 3:
                        assert not calls and not got.any()
                    tested += 1
                    cut += first < cols * rows
    assert tested == 3 * 4 * (3 + 3 + 5 + 3) and cut > tested // 2


def test_envelope_raster_memory_is_bounded():
    # the half-plane cut forms its quotients a block of (angle, row) pairs at
    # a time, so 20000 angles on 800x600 need no (rows x angles) array.  The
    # diagonal matrix's order-2 envelope holds no cell center of this
    # window, so the kernel culls every cell within a few angles and the
    # call takes a fraction of a second.
    window = auto_window(build_frame(DIAGONAL, 2), cols=800, rows=600)
    stack = build_frames(DIAGONAL, 2, theta_grid(20000))
    tracemalloc.start()
    try:
        raster = envelope_raster(DIAGONAL, 2, 20000, window, stack=stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not raster.bits.any()
    assert peak < 16 * 2 ** 20


def test_overlay_calls_skip_the_angles_whose_band_misses_the_grid(monkeypatch):
    # An angle whose band delta_{k+1} <= Re(e^{i theta} z) <= delta_1 misses
    # every node of the grid gets its sign without g, in calls of several
    # angles (small grids) and of one (a 150x110 node grid); the curves stay
    # those of g at every node.  A window 1e150 out once made the angles near
    # pi/2 overflow there.
    angles = []
    plain = envelope_module.g_field

    def counting(block, s, t, which="max"):
        angles.append(len(block))
        return plain(block, s, t, which=which)

    stack = build_frames(TOEPLITZ, 2, theta_grid(12))
    edge = float(stack.deltas[0, 0])
    for window, far in ((Window(edge + 1.0, edge + 3.0, -0.5, 0.5, cols=30, rows=20), False),
                        (Window(edge + 1.0, edge + 3.0, -0.5, 0.5, cols=300, rows=220), False),
                        (Window(1e150, 2e150, -1.0, 1.0, cols=120, rows=90), True),
                        (Window(1e150, 2e150, -1.0, 1.0, cols=300, rows=220), True)):
        monkeypatch.setattr(envelope_module, "g_field", counting)
        angles.clear()
        got = envelope_overlays(stack, window)
        monkeypatch.undo()
        if far:
            assert sum(angles) == 0 and got.polylines == ()
        else:
            assert 0 < sum(angles) < len(stack)
            assert _same_curves(got, overlays_at_every_node(stack, window))
