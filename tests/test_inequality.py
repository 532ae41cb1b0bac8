import numpy as np
import pytest

from specbound import (
    MatrixSpec,
    ParameterError,
    auto_window,
    build_frame,
    build_matrix,
    crossing_condition,
    cubic_g1,
    explicit_g2,
    g_field,
    g_min_value,
    g_value,
    g2_constants,
    max_abs,
    union_poly_value,
    w_matrix,
)
from conftest import bisect_root, random_complex, random_hermitian, random_unitary

A_TILDE = build_matrix(MatrixSpec("a_tilde"))


def _grid_points(frame, per_axis=24):
    win = auto_window(frame)
    s = np.linspace(win.s_min, win.s_max, per_axis)
    t = np.linspace(win.t_min, win.t_max, per_axis)
    return np.meshgrid(s, t)


def test_mk_matrix_k1():
    f = build_frame(A_TILDE, 1)
    v = g_value(f, 0.7, 1.3)
    assert abs(v.lambda_max_mk - (f.deltas[0] - 0.7)) <= 1e-12


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
    v = g_value(f, 2.0, 0.0)
    assert v.det_wk == 0.0 and v.lambda_max_mk == 0.0 and v.g == 0.0


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


def _generic_adjugate(m):
    """The generic cofactor loop of the field kernel, for any k."""
    from specbound.inequality import _det_batched

    k = m.shape[-1]
    out = np.empty_like(m)
    for i in range(k):
        cols = [c for c in range(k) if c != i]
        for j in range(k):
            rows = [r for r in range(k) if r != j]
            out[..., i, j] = (-1) ** (i + j) * _det_batched(m[..., rows, :][..., :, cols])
    return out


def test_adjugate3_is_bit_identical_to_cofactor_loop():
    from specbound.inequality import _adjugate_batched

    rng = np.random.default_rng(21)
    for trial in range(40):
        m = rng.normal(size=(257, 3, 3)) + 1j * rng.normal(size=(257, 3, 3))
        if trial % 4 == 1:
            m = m.real + 0j  # zero imaginary parts, signed zeros in the products
        elif trial % 4 == 2:
            m[rng.random(m.shape) < 0.3] = 0.0
        elif trial % 4 == 3:
            m = np.conj(np.swapaxes(m, -1, -2))  # the kernel passes W* as a view
        got = _adjugate_batched(m)
        assert got.tobytes() == _generic_adjugate(m).tobytes()
    m4 = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    assert np.array_equal(_adjugate_batched(m4), _generic_adjugate(m4))


def _kernel(stack, s, t):
    """The membership kernel on the stack's own constants, one angle at a time."""
    from specbound.inequality import _member, _member_constants

    const = _member_constants(stack, 1.0)
    return np.array([_member(c, si, ti) for c, si, ti in zip(const, s, t)])


def test_g_field_does_not_depend_on_call_size():
    # one 40,000-point call crosses the size at which NumPy turns products
    # with a temporary operand into in-place products; 1000-point calls do not
    from specbound import build_frames

    a = random_complex(6, seed=17)
    rng = np.random.default_rng(3)
    s = rng.uniform(-3.0, 3.0, 40_000)
    t = rng.uniform(-3.0, 3.0, 40_000)
    parts = [slice(lo, lo + 1000) for lo in range(0, s.size, 1000)]
    for k in (3, 4):
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
    """(g, lhs, rhs, extreme, det) at one point, with M_k = |det W_k|^2 H(W_k^{-*}).

    det(W) adj(W*) = |det W|^2 (W*)^{-1}, so this route shares no cofactor
    or determinant code with the field kernel.
    """
    w = w_matrix(frame, s, t)
    det = np.linalg.det(w)
    winv = np.linalg.inv(w).conj().T
    m = abs(det) ** 2 * 0.5 * (winv + winv.conj().T)
    ev = np.linalg.eigvalsh(m)
    extreme = ev[-1] if which == "max" else ev[0]
    lhs = abs(det) ** 2 * (s - frame.delta_next)
    rhs = frame.kappa * extreme
    return rhs - lhs, lhs, rhs, extreme, det


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
                    ref, lhs, rhs, _, _ = _inverse_reference(f, s, t, which)
                    assert abs(g - ref) <= 1e-9 * (abs(lhs) + abs(rhs))
    # the scalar entry points are the field at one point, pieces included
    s, t = float(ss[4, 5]), float(tt[4, 5])
    for evaluate, which in ((g_value, "max"), (g_min_value, "min")):
        v = evaluate(f, s, t)
        assert v.g == g_field(f, s, t, which=which) == v.rhs - v.lhs
        ref = _inverse_reference(f, s, t, which)
        for got, want in zip((v.g, v.lhs, v.rhs, v.lambda_max_mk, v.det_wk), ref):
            assert abs(got - want) <= 1e-9 * (abs(ref[1]) + abs(ref[2]) + abs(want))


def test_g_field_rejects_unknown_which():
    a = random_complex(5, seed=3)
    for k in (1, 2, 3):
        f = build_frame(a, k)
        with pytest.raises(ParameterError):
            g_field(f, 0.0, 0.0, which="median")


def test_g_value_matches_g_field():
    for seed in range(5):
        a = random_complex(5, seed=seed + 300)
        for k in (1, 2, 3):
            f = build_frame(a, k)
            ss, tt = _grid_points(f, per_axis=7)
            field = g_field(f, ss, tt)
            for i in range(ss.shape[0]):
                for j in range(ss.shape[1]):
                    v = g_value(f, ss[i, j], tt[i, j])
                    assert abs(v.g - field[i, j]) <= 1e-10 * (1 + abs(v.g))
                    assert v.g == v.rhs - v.lhs


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
            v = g_value(f, float(f.deltas[j]), 0.0)
            assert abs(v.g) <= 1e-10 * (1 + max_abs(h)) ** (2 * k + 1)


def test_no_curve_left_of_delta_next():
    for seed in range(10):
        a = random_complex(5, seed=seed + 50)
        for k in (1, 2):
            f = build_frame(a, k)
            span = float(f.deltas[0] - f.deltas[-1]) + 1.0
            s = f.delta_next - 1e-6 * (1 + span)
            for t in np.linspace(-2 * span, 2 * span, 17):
                v = g_value(f, s, float(t))
                if abs(v.det_wk) > 1e-12:
                    assert v.g > 0.0


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
                v = g_value(f, s, t)
                assert v.lambda_max_mk >= -1e-10 * scale


def test_g_min_below_g():
    a = random_complex(6, seed=44)
    f = build_frame(a, 2)
    ss, tt = _grid_points(f, per_axis=12)
    for i in range(0, 12, 3):
        for j in range(0, 12, 3):
            assert g_min_value(f, ss[i, j], tt[i, j]).g <= g_value(f, ss[i, j], tt[i, j]).g + 1e-12
    # k = 1: the two coincide
    f1 = build_frame(a, 1)
    assert g_min_value(f1, 0.3, 0.4).g == g_value(f1, 0.3, 0.4).g


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
                    g1 = g_value(f, s, t).g
                    g2 = g_value(fr, r * s, r * t).g
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
                g0 = g_value(f, s, t).g
                band = 1e-8 * (1 + max_abs(a)) ** (2 * k + 1)
                if abs(g0) <= band:
                    continue  # undecided within rounding of the zero set
                assert (g_value(f_sim, s, t).g > 0) == (g0 > 0)
                assert (g_value(f_tr, s, t).g > 0) == (g0 > 0)
                assert (g_value(f_star, s, -t).g > 0) == (g0 > 0)


def test_shift_and_scale_invariance():
    a = random_complex(4, seed=900)
    r, b = 2.0, 0.75 - 0.3j
    f = build_frame(a, 2)
    f_map = build_frame(r * a + b * np.eye(4), 2)
    rng = np.random.default_rng(8)
    for _ in range(40):
        s = float(rng.normal() * 2)
        t = float(rng.normal() * 2)
        g0 = g_value(f, s, t).g
        band = 1e-8 * (1 + max_abs(a)) ** 5
        if abs(g0) <= band:
            continue
        z = r * complex(s, t) + b
        assert (g_value(f_map, z.real, z.imag).g > 0) == (g0 > 0)


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
