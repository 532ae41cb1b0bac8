import numpy as np
import pytest

from specbound import (
    MatrixSpec,
    ParameterError,
    auto_window,
    build_frame,
    build_frames,
    build_matrix,
    crossing_condition,
    cubic_g1,
    explicit_g2,
    g_field,
    g2_constants,
    max_abs,
    theta_grid,
    union_poly_value,
    w_matrix,
)
from specbound.envelope import _rotate
from specbound.gallery import GALLERY
from conftest import bisect_root, random_complex, random_hermitian, random_unitary

A_TILDE = build_matrix(MatrixSpec("a_tilde"))


def _grid_points(frame, per_axis=24):
    win = auto_window(frame)
    s = np.linspace(win.s_min, win.s_max, per_axis)
    t = np.linspace(win.t_min, win.t_max, per_axis)
    return np.meshgrid(s, t)


def test_mk_matrix_k1():
    # M_1 = Re det W_1 = delta_1 - s, so g = kappa (delta_1 - s) - |det W_1|^2 (s - delta_2)
    f = build_frame(A_TILDE, 1)
    det = w_matrix(f, 0.7, 1.3)[0, 0]
    want = f.kappa * (f.deltas[0] - 0.7) - abs(det) ** 2 * (0.7 - f.delta_next)
    assert abs(g_field(f, 0.7, 1.3) - want) <= 1e-12 * (1 + abs(want))


def test_mk_matrix_k2_entries_match_explicit_forms():
    # the k = 2 kernel keeps M_2 as its real diagonal and the entry M_2[0, 1]
    from specbound.frame import _shift_matrix
    from specbound.inequality import _m2_pieces

    f = build_frame(random_complex(5, seed=3), 2)
    alpha, beta, gamma, _ = g2_constants(f)
    assert abs(gamma) > 0.1
    d1, d2 = f.deltas[:2]
    for s, t in ((0.0, 0.0), (1.2, -0.7), (2.5, 3.0)):
        m00, m11, moff, _ = _m2_pieces(_shift_matrix(f), np.asarray(complex(s, t)))
        a, b = d1 - s, d2 - s
        at, bt = alpha - t, beta - t
        m1 = a * (b**2 + bt**2) + b * abs(gamma) ** 2
        m3 = b * (a**2 + at**2) + a * abs(gamma) ** 2
        m2 = 1j * gamma * (a * bt + b * at)
        assert abs(m00 - m1) <= 1e-9 * (1 + abs(m1))
        assert abs(m11 - m3) <= 1e-9 * (1 + abs(m3))
        assert abs(np.conj(moff) - m2) <= 1e-9 * (1 + abs(m2))


def test_mk_matrix_zero_at_det_zero():
    # Hermitian input: W_k is diagonal real, singular at s = delta_1, t = alpha = 0
    h = np.diag([2.0, 1.0, -1.0])
    f = build_frame(h, 1)
    assert w_matrix(f, 2.0, 0.0)[0, 0] == 0.0 and g_field(f, 2.0, 0.0) == 0.0


def test_det_w2_matches_hand_expansion():
    f = build_frame(A_TILDE, 2)
    alpha, beta, gamma, _ = g2_constants(f)
    d1, d2 = f.deltas[:2]
    for s, t in ((2.0, 1.0), (0.4, -2.2)):
        w = w_matrix(f, s, t)
        det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
        a, b = d1 - s, d2 - s
        at, bt = alpha - t, beta - t
        expanded = (a * b - at * bt + abs(gamma) ** 2) + 1j * (a * bt + b * at)
        assert abs(det - expanded) <= 1e-10 * (1 + abs(det))


def test_field_product_rounds_as_scalar_product():
    # the k = 2 field's constant c01*c10 rounds as a scalar complex product,
    # whether it is computed for one frame or for a frame stack
    from specbound.inequality import _product

    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 1)) + 1j * rng.normal(size=(40, 1))
    y = rng.normal(size=(40, 1)) + 1j * rng.normal(size=(40, 1))
    expected = np.array([[complex(a) * complex(b)] for a, b in zip(x[:, 0], y[:, 0])])
    assert np.array_equal(_product(x, y), expected)
    assert _product(x[3, 0], y[3, 0]) == expected[3, 0]


def _generic_det(m):
    """det of k x k blocks: the 2 x 2 product spelled out, else np.linalg.det."""
    if m.shape[-1] == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def _generic_adjugate(m):
    """adj(m) of k x k blocks from k^2 cofactors, for any k >= 2.

    It shares no code with the field kernel, so it is the oracle of the
    spelled-out k = 3 cofactors and of the batched inverse at k >= 4.
    """
    k = m.shape[-1]
    out = np.empty_like(m)
    for i in range(k):
        cols = [c for c in range(k) if c != i]
        for j in range(k):
            rows = [r for r in range(k) if r != j]
            out[..., i, j] = (-1) ** (i + j) * _generic_det(m[..., rows, :][..., :, cols])
    return out


def test_adjugate3_is_bit_identical_to_cofactor_loop():
    from specbound.inequality import _adjugate3

    rng = np.random.default_rng(21)
    for trial in range(40):
        m = rng.normal(size=(257, 3, 3)) + 1j * rng.normal(size=(257, 3, 3))
        if trial % 4 == 1:
            m = m.real + 0j  # zero imaginary parts, signed zeros in the products
        elif trial % 4 == 2:
            m[rng.random(m.shape) < 0.3] = 0.0
        elif trial % 4 == 3:
            m = np.conj(np.swapaxes(m, -1, -2))  # the kernel passes W* as a view
        got = _adjugate3(m)
        assert got.tobytes() == _generic_adjugate(m).tobytes()


def _kernel(stack, s, t):
    """The membership kernel on the stack's own constants, one angle at a time.

    Each call gets one angle's constants as scalars.
    """
    from specbound.inequality import _member, _member_constants

    const = _member_constants(stack, 1.0)
    return np.array([_member([c[i] for c in const], si, ti)
                     for i, (si, ti) in enumerate(zip(s, t))])


def test_g_field_does_not_depend_on_call_size():
    # one 40,000-point call crosses the size at which NumPy turns products
    # with a temporary operand into in-place products; 1000-point calls do not
    from specbound import build_frames

    a = random_complex(6, seed=17)
    rng = np.random.default_rng(3)
    s = rng.uniform(-3.0, 3.0, 40_000)
    t = rng.uniform(-3.0, 3.0, 40_000)
    parts = [slice(lo, lo + 1000) for lo in range(0, s.size, 1000)]
    for k in (3, 4, 5):
        f = build_frame(a, k, 0.4)
        whole = g_field(f, s, t)
        pieces = np.concatenate([g_field(f, s[p], t[p]) for p in parts])
        assert whole.tobytes() == pieces.tobytes()
    # the membership kernel too, at every order
    for k in (1, 2, 3, 4):
        stack = build_frames(a, k, [0.4])
        member = np.concatenate([_kernel(stack, s[None, p], t[None, p])[0] for p in parts])
        assert np.array_equal(_kernel(stack, s[None], t[None])[0], member)


def _kernel_test_matrices():
    mats = [build_matrix(MatrixSpec(name)) for name in ("toeplitz_eq1", "matrix_A1", "pair_A")]
    return mats + [random_complex(n, seed=s) for n, s in ((4, 3), (5, 17), (6, 301))]


def test_member_kernel_sign_matches_g_field():
    # P = kappa D - (s - delta_{k+1}) W*W has an eigenvalue >= 0 exactly when
    # g >= 0: the kernel agrees with the sign of g wherever |g| is clear of
    # rounding, at every order and angle
    from specbound import build_frames, theta_grid

    for a in _kernel_test_matrices():
        for k in range(1, min(4, a.shape[0] - 1) + 1):
            win = auto_window(build_frame(a, k), cols=60, rows=45)
            s, t = win.cell_centers()
            grid = s[None, :] + 1j * t[:, None]
            stack = build_frames(a, k, theta_grid(24))
            z = np.exp(1j * stack.theta)[:, None, None] * grid
            g = g_field(stack, z.real, z.imag)
            clear = np.abs(g) > 1e-9 * np.max(np.abs(g))
            got = _kernel(stack, z.real, z.imag)
            assert (g >= 0.0).any() and (g < 0.0).any()
            assert np.array_equal(got[clear], g[clear] >= 0.0), (k, a.shape)


def test_k3_sign_test_boundary_is_a_member(monkeypatch):
    # H(A) = diag(4, 3, 2, -10) and a skew part that only couples e_1 to e_4:
    # W_3 is diagonal, kappa = 1, and P = diag(d_j (1 - x d_j)) with
    # d_j = delta_j - s and x = s + 10.  At s = 4, det W_3 = 0, so g = 0, and
    # P = diag(0, -15, -58) exactly: the boundary point is a member even
    # without the slack, and just right of it P < 0
    import specbound.inequality as inequality
    from specbound import build_frames

    a = np.diag([4.0, 3.0, 2.0, -10.0]).astype(complex)
    a[3, 0], a[0, 3] = 1.0, -1.0
    stack = build_frames(a, 3, [0.0])
    assert stack.kappa[0] == 1.0 and not stack.y_k.any()
    assert g_field(stack[0], 4.0, 0.0) == 0.0
    right = np.nextafter(4.0, np.inf)
    points = np.array([[4.0, right, 4.0 + 1e-11]])
    member = _kernel(stack, points, np.zeros_like(points))[0]
    # the slack of 1e-12 keeps a point whose P exceeds -1e-12, no further
    assert member.tolist() == [True, True, False]
    monkeypatch.setattr(inequality, "_ETA", 0.0)
    member = _kernel(stack, points, np.zeros_like(points))[0]
    assert member.tolist() == [True, False, False]


def test_k3_sign_test_drops_non_finite_points():
    # far out the kernel's entries overflow; it drops those points and warns
    # about nothing (RuntimeWarnings are errors in this suite)
    from specbound import build_frames

    a = random_complex(5, seed=3)
    s = np.array([1e200, -1e200, 1e120, np.nan, np.inf, 0.0])
    t = np.array([0.0, 1e200, -1e150, 0.0, 0.0, np.inf])
    for k in (1, 2, 3, 4):
        stack = build_frames(a, k, [0.0])
        assert not _kernel(stack, s[None], t[None]).any()
        ev = np.linalg.eigvals(a)
        assert _kernel(stack, ev.real[None], ev.imag[None]).all()


def _inverse_reference(frame, s, t, which):
    """(g, lhs, rhs) at one point, with M_k = |det W_k|^2 H(W_k^{-*}).

    det(W) adj(W*) = |det W|^2 (W*)^{-1}.  At k = 3 this route shares no
    code with the field kernel; at k >= 4 the kernel uses the same identity,
    and :func:`_cofactor_reference` is the independent route.
    """
    w = w_matrix(frame, s, t)
    det = np.linalg.det(w)
    winv = np.linalg.inv(w).conj().T
    m = abs(det) ** 2 * 0.5 * (winv + winv.conj().T)
    ev = np.linalg.eigvalsh(m)
    lhs = abs(det) ** 2 * (s - frame.delta_next)
    rhs = frame.kappa * (ev[-1] if which == "max" else ev[0])
    return rhs - lhs, lhs, rhs


@pytest.mark.parametrize("k", [3, 4])
def test_g_field_matches_inverse_reference(k):
    mats = [build_matrix(MatrixSpec(name)) for name in ("matrix_C", "toeplitz_eq1")]
    mats += [random_complex(n, seed=seed) for n, seed in ((5, 301), (6, 7), (7, 12))]
    for a in mats:
        if a.shape[0] <= k:
            continue
        for theta in (0.0, 2.2):
            f = build_frame(a, k, theta)
            ss, tt = _grid_points(f, per_axis=9)
            for which in ("max", "min"):
                field = g_field(f, ss, tt, which=which)
                for s, t, g in zip(ss.ravel(), tt.ravel(), field.ravel()):
                    ref, lhs, rhs = _inverse_reference(f, s, t, which)
                    assert abs(g - ref) <= 1e-9 * (abs(lhs) + abs(rhs))
                # g at one point
                s, t = float(ss[4, 5]), float(tt[4, 5])
                ref, lhs, rhs = _inverse_reference(f, s, t, which)
                assert abs(g_field(f, s, t, which=which) - ref) <= 1e-9 * (abs(lhs) + abs(rhs))


def _cofactor_reference(frame, s, t, which):
    """(g, lhs, rhs) at one point, with M_k = H(det(W_k) adj(W_k*)) by cofactors."""
    w = w_matrix(frame, s, t)
    det = _generic_det(w)
    p = det * _generic_adjugate(w.conj().T)
    ev = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
    lhs = abs(det) ** 2 * (s - frame.delta_next)
    rhs = frame.kappa * (ev[-1] if which == "max" else ev[0])
    return rhs - lhs, lhs, rhs


@pytest.mark.parametrize("k", [4, 5, 6])
def test_g_field_matches_cofactor_reference(k):
    # at k >= 4 the kernel inverts W_k; the cofactor loop is the independent route
    mats = [random_complex(7, seed=seed) for seed in (3, 12, 40)]
    mats.append(build_matrix(MatrixSpec("frank", {"n": 7})))
    for a in mats:
        for theta in (0.0, 2.2):
            f = build_frame(a, k, theta)
            ss, tt = _grid_points(f, per_axis=9)
            for which in ("max", "min"):
                field = g_field(f, ss, tt, which=which)
                for s, t, g in zip(ss.ravel(), tt.ravel(), field.ravel()):
                    ref, lhs, rhs = _cofactor_reference(f, s, t, which)
                    assert abs(g - ref) <= 1e-9 * (abs(lhs) + abs(rhs))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_g_field_is_zero_where_w_is_singular(k):
    # H(A) = diag(5, 4, 3, 2, 1, 0) and a skew part that only couples e_1 to
    # e_6: at the angles 0 and pi, W_k is diagonal and kappa = 1, so W_k is
    # singular at s = delta_j, t = 0, j <= k.  There det W_k = 0 makes M_k = 0
    # and g = 0 exactly, also when the singular blocks share a call with
    # regular ones.
    from specbound import build_frames

    a = np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]).astype(complex)
    a[5, 0], a[0, 5] = 1.0, -1.0
    stack = build_frames(a, k, [0.0, np.pi])
    assert np.array_equal(stack.kappa, [1.0, 1.0]) and not stack.y_k.any()
    regular = np.array([0.5, 0.25, -2.5])
    s = np.concatenate([stack.deltas[:, :k], np.tile(regular, (2, 1))], axis=1)
    t = np.zeros_like(s)
    g = g_field(stack, s, t, which=("max", "min"))
    assert g.shape == (2,) + s.shape
    assert np.all(g[:, :, :k] == 0.0)
    assert np.all(np.isfinite(g)) and np.all(g[:, :, k:] != 0.0)
    for i in range(2):
        assert g_field(stack[i], s[i], t[i], which=("max", "min")).tobytes() == g[:, i].tobytes()
    frame = build_frame(a, k)
    g = g_field(frame, s[0], t[0], which=("max", "min"))
    assert np.all(g[:, :k] == 0.0) and np.all(g[:, k:] != 0.0)


def test_g_field_pair_is_each_field_bit_for_bit():
    # ("max", "min") shares det W_k and M_k; each field is its own call, on a
    # frame and on a frame stack, on every path of the kernel (k = 1, 2, 3, 4)
    from specbound import build_frames

    a = random_complex(6, seed=17)
    rng = np.random.default_rng(5)
    s = rng.uniform(-3.0, 3.0, (7, 9))
    t = rng.uniform(-3.0, 3.0, (7, 9))
    for k in (1, 2, 3, 4):
        for frame, pts in ((build_frame(a, k, 0.4), (s, t)),
                           (build_frames(a, k, [0.0, 1.1, 2.5]), (s[None], t[None]))):
            pair = g_field(frame, *pts, which=("max", "min"))
            for got, side in zip(pair, ("max", "min")):
                want = g_field(frame, *pts, which=side)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert g_field(frame, *pts, which=("min",))[0].tobytes() == pair[1].tobytes()
    with pytest.raises(ParameterError):
        g_field(build_frame(a, 2), 0.0, 0.0, which=("max", "median"))


def test_g_field_rejects_unknown_which():
    a = random_complex(5, seed=3)
    for k in (1, 2, 3):
        f = build_frame(a, k)
        with pytest.raises(ParameterError):
            g_field(f, 0.0, 0.0, which="median")


def test_g_field_at_one_point_matches_the_grid():
    for seed in range(5):
        a = random_complex(5, seed=seed + 300)
        for k in (1, 2, 3, 4):
            f = build_frame(a, k)
            ss, tt = _grid_points(f, per_axis=7)
            field = g_field(f, ss, tt)
            for i in range(ss.shape[0]):
                for j in range(ss.shape[1]):
                    g = g_field(f, float(ss[i, j]), float(tt[i, j]))
                    assert np.ndim(g) == 0
                    assert abs(g - field[i, j]) <= 1e-10 * (1 + abs(g))


def test_eigenvalue_containment_theta_zero():
    # seeded sweep over sizes 4..8 at every order
    violations = 0
    for seed in range(1000):
        n = 4 + seed % 5
        a = random_complex(n, seed=seed)
        evs = np.linalg.eigvals(a)
        for k in (1, 2, 3):
            f = build_frame(a, k)
            tol = 1e-8 * (1 + max_abs(a)) ** (2 * k + 1)
            g = g_field(f, evs.real, evs.imag)
            violations += int(np.any(g < -tol))
    assert violations == 0


def test_hermitian_eigenvalues_on_curve():
    h = random_hermitian(5, seed=9).real
    for k in (1, 2):
        f = build_frame(h, k)
        for j in range(k):
            g = g_field(f, float(f.deltas[j]), 0.0)
            assert abs(g) <= 1e-10 * (1 + max_abs(h)) ** (2 * k + 1)


def test_no_curve_left_of_delta_next():
    for seed in range(10):
        a = random_complex(5, seed=seed + 50)
        for k in (1, 2):
            f = build_frame(a, k)
            span = float(f.deltas[0] - f.deltas[-1]) + 1.0
            s = f.delta_next - 1e-6 * (1 + span)
            for t in np.linspace(-2 * span, 2 * span, 17):
                if abs(np.linalg.det(w_matrix(f, s, float(t)))) > 1e-12:
                    assert g_field(f, s, float(t)) > 0.0


def test_g_and_its_companion_keep_their_signs_outside_the_band():
    # The tracer leaves the nodes outside delta_{k+1} <= x <= delta_1 of a
    # frame's rotated abscissa x out of the curve pair's window and fills
    # them by sign in one-angle overlay calls (trace._band_box,
    # trace._in_band), so it relies on their signs alone: there M_k is
    # congruent to diag(delta_j - x), so g and its lambda_min companion are
    # > 0 left of delta_{k+1} and < 0 right of delta_1.  Checked on the
    # computed values at every node of a grid, every order, at theta = 0 and
    # at the rotated frames of a stack, as the curve pair and the overlays
    # evaluate them.
    mats = [build_matrix(MatrixSpec(name)) for name in GALLERY]
    mats += [random_complex(n, seed=seed) for n in (3, 5, 8) for seed in (1, 2)]
    left_nodes = right_nodes = 0
    for a in mats:
        for k in range(1, a.shape[0]):
            frame = build_frame(a, k)
            s, t = auto_window(frame, cols=40, rows=30).node_axes()
            s, t = s[None, :], t[:, None]
            stack = build_frames(a, k, theta_grid(6))
            x, y = _rotate(stack.theta[:, None, None], s, t)
            planes = [(g_field(frame, s, t, which=("max", "min")), s + 0 * t,
                       frame.delta_next, frame.deltas[0]),
                      (g_field(stack, x, y, which=("max", "min")), x,
                       stack.delta_next[:, None, None], stack.deltas[:, 0, None, None])]
            for g, x, delta_next, delta_1 in planes:
                left, right = x < delta_next, x > delta_1
                assert np.all(g[:, left] >= 0.0) and np.all(g[:, right] < 0.0), (a, k)
                left_nodes += np.count_nonzero(left)
                right_nodes += np.count_nonzero(right)
    assert left_nodes > 10 ** 4 and right_nodes > 10 ** 4


def test_lambda_max_nonnegative_left_of_delta1():
    rng = np.random.default_rng(3)
    for seed in range(10):
        a = random_complex(5, seed=seed + 70)
        for k in (1, 2, 3):
            f = build_frame(a, k)
            scale = (1 + max_abs(a)) ** (2 * k - 1)
            for _ in range(20):
                s = float(f.deltas[0]) - abs(rng.normal()) * 3
                t = float(rng.normal() * 3)
                # kappa lambda_max(M_k) = g + |det W_k|^2 (s - delta_{k+1})
                lhs = abs(np.linalg.det(w_matrix(f, s, t))) ** 2 * (s - f.delta_next)
                assert g_field(f, s, t) + lhs >= -1e-10 * scale * f.kappa


def test_g_min_below_g():
    a = random_complex(6, seed=44)
    f = build_frame(a, 2)
    ss, tt = _grid_points(f, per_axis=12)
    for i in range(0, 12, 3):
        for j in range(0, 12, 3):
            s, t = ss[i, j], tt[i, j]
            assert g_field(f, s, t, which="min") <= g_field(f, s, t) + 1e-12
    # k = 1: the two coincide
    f1 = build_frame(a, 1)
    assert g_field(f1, 0.3, 0.4, which="min") == g_field(f1, 0.3, 0.4)


def test_cubic_g1_oracle_agreement():
    for seed in range(10):
        a = random_complex(5, seed=seed + 200)
        f = build_frame(a, 1)
        ss, tt = _grid_points(f)
        g = g_field(f, ss, tt)
        oracle = cubic_g1(f, ss, tt)
        assert np.all(np.abs(oracle - g) <= 1e-9 * (1 + np.abs(g)))


def test_explicit_g2_oracle_agreement():
    for seed in range(10):
        a = random_complex(5, seed=seed + 250)
        f = build_frame(a, 2)
        ss, tt = _grid_points(f)
        g = g_field(f, ss, tt)
        oracle = explicit_g2(f, ss, tt)
        assert np.all(np.abs(oracle - g) <= 1e-9 * (1 + np.abs(g)))


def test_oracles_require_matching_order():
    with pytest.raises(ParameterError):
        cubic_g1(build_frame(A_TILDE, 2), 0, 0)
    with pytest.raises(ParameterError):
        explicit_g2(build_frame(A_TILDE, 1), 0, 0)
    with pytest.raises(ParameterError):
        union_poly_value(build_frame(A_TILDE, 1), 0, 0)


def test_a_tilde_curve_heights_at_midpoint():
    f1 = build_frame(A_TILDE, 1)
    f2 = build_frame(A_TILDE, 2)
    t1 = bisect_root(lambda t: float(cubic_g1(f1, 2.0, t)), 1.0, 2.5)
    t2 = bisect_root(lambda t: float(explicit_g2(f2, 2.0, t)), 2.0, 4.0)
    assert abs(t1**2 - 3.0) <= 1e-10
    assert abs(t2**2 - 9.0) <= 1e-10


def test_union_poly_vanishes_on_both_curves():
    a = random_complex(5, seed=321)
    f = build_frame(a, 2)
    win = auto_window(f)
    # find curve points along vertical grid lines by bisection
    found = 0
    for s in np.linspace(win.s_min, win.s_max, 60):
        for which in ("max", "min"):
            t_axis = np.linspace(0, win.t_max, 200)
            vals = g_field(f, np.full_like(t_axis, s), t_axis, which=which)
            sign_change = np.nonzero(np.diff(vals >= 0))[0]
            if sign_change.size == 0:
                continue
            i = sign_change[0]
            t_root = bisect_root(
                lambda t: float(g_field(f, np.asarray(s), np.asarray(t), which=which)),
                t_axis[i], t_axis[i + 1],
            )
            u = float(union_poly_value(f, s, t_root))
            m00_scale = (1 + max_abs(a) + abs(s) + abs(t_root)) ** (4 * 2 + 2)
            assert abs(u) <= 1e-7 * m00_scale
            found += 1
    assert found > 10


def test_union_poly_zero_at_a_hat_meeting_points():
    a = build_matrix(MatrixSpec("a_hat"))
    f = build_frame(a, 2)
    eps = 1.01
    for sgn in (1.0, -1.0):
        for s in ((3 + np.sqrt(9 - 8 * eps**2)) / 4, (3 - np.sqrt(9 - 8 * eps**2)) / 4):
            t = sgn * np.sqrt(s**2 - 3 * s + 2)
            assert abs(float(union_poly_value(f, s, t))) <= 1e-7


def test_scaling_law():
    for seed in range(5):
        a = random_complex(5, seed=seed + 400)
        for k in (1, 2, 3):
            f = build_frame(a, k)
            for r in (0.5, 2.0, 7.0):
                fr = build_frame(r * a, k)
                for s, t in ((0.3, 0.9), (-0.5, 1.7)):
                    g1 = g_field(f, s, t)
                    g2 = g_field(fr, r * s, r * t)
                    assert abs(g2 - r ** (2 * k + 1) * g1) <= 1e-9 * (1 + abs(g2))


def test_zero_set_invariances():
    # sign of g agrees at mapped sample points for the basic transformations
    rng = np.random.default_rng(12)
    for seed in range(6):
        a = random_complex(4, seed=seed + 600)
        q = random_unitary(4, seed=seed + 700)
        for k in (1, 2):
            f = build_frame(a, k)
            f_sim = build_frame(q.conj().T @ a @ q, k)
            f_tr = build_frame(a.T, k)
            f_star = build_frame(a.conj().T, k)
            for _ in range(25):
                s = float(rng.normal() * 2)
                t = float(rng.normal() * 2)
                g0 = g_field(f, s, t)
                band = 1e-8 * (1 + max_abs(a)) ** (2 * k + 1)
                if abs(g0) <= band:
                    continue  # undecided within rounding of the zero set
                assert (g_field(f_sim, s, t) > 0) == (g0 > 0)
                assert (g_field(f_tr, s, t) > 0) == (g0 > 0)
                assert (g_field(f_star, s, -t) > 0) == (g0 > 0)


def test_shift_and_scale_invariance():
    a = random_complex(4, seed=900)
    r, b = 2.0, 0.75 - 0.3j
    f = build_frame(a, 2)
    f_map = build_frame(r * a + b * np.eye(4), 2)
    rng = np.random.default_rng(8)
    for _ in range(40):
        s = float(rng.normal() * 2)
        t = float(rng.normal() * 2)
        g0 = g_field(f, s, t)
        band = 1e-8 * (1 + max_abs(a)) ** 5
        if abs(g0) <= band:
            continue
        z = r * complex(s, t) + b
        assert (g_field(f_map, z.real, z.imag) > 0) == (g0 > 0)


def test_crossing_condition():
    cc = crossing_condition(A_TILDE)
    assert cc.holds
    assert abs(cc.lhs - 4.0) <= 1e-10
    assert abs(cc.rhs - 10.0) <= 1e-9

    # zero first coupling column with separated top eigenvalues: holds
    a = np.array([[2, 0, 0], [0, 1, -0.5], [0, 0.5, 0]], dtype=float)
    cc2 = crossing_condition(a)
    assert cc2.lhs <= 1e-14 and cc2.rhs > 0 and cc2.holds

    # coinciding top eigenvalues with nonzero coupling: cannot hold
    b = np.array([[1, 0, -0.5], [0, 1, 0], [0.5, 0, 0]], dtype=float)
    cc3 = crossing_condition(b)
    assert not cc3.holds and cc3.rhs == 0.0

    with pytest.raises(ParameterError):
        crossing_condition(random_complex(4, seed=1))
    with pytest.raises(ParameterError):
        crossing_condition(np.eye(2))
