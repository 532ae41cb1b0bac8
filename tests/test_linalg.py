import numpy as np
import pytest

from specbound import (
    DimensionError,
    MatrixSpec,
    ParameterError,
    build_frame,
    build_matrix,
    hermitian_part,
    largest_singular_value_sq,
    max_abs,
    skew_part,
)
from specbound.envelope import theta_grid
from specbound.frame import _rotated_hermitian, _solve_chunk
from specbound.gallery import GALLERY
from specbound.inequality import _adjugate3, _det3
from specbound.linalg import _ct
from conftest import random_complex, random_hermitian


def test_hermitian_part_nilpotent():
    h = hermitian_part([[0, 1], [0, 0]])
    assert np.allclose(h, [[0, 0.5], [0.5, 0]], atol=0)


def test_parts_fixed_points():
    h0 = random_hermitian(5, seed=11)
    assert np.allclose(hermitian_part(h0), h0, atol=1e-15)
    assert max_abs(skew_part(h0)) <= 1e-15
    s0 = h0 * 1j  # skew-Hermitian
    assert np.allclose(skew_part(s0), s0, atol=1e-15)


def test_parts_exact_structure_and_sum():
    for seed in range(6):
        a = random_complex(6, seed=seed)
        h = hermitian_part(a)
        s = skew_part(a)
        assert np.array_equal(h, h.conj().T)
        assert np.array_equal(s, -s.conj().T)
        # recombination is exact up to one rounding per entry
        assert max_abs(h + s - a) <= 1e-15 * (1.0 + max_abs(a))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def test_one_pass_parts_equal_the_two_pass_forms_bit_for_bit():
    # (A + A*)/2 and (A - A*)/2 are exactly Hermitian and skew as computed,
    # up to the sign of a zero, so the second symmetrizing pass that
    # hermitian_part, skew_part and the frame layer once made, 0.5 (h + h*)
    # and 0.5 (s - s*), changes no bit of these inputs
    mats = [build_matrix(MatrixSpec(name)) for name in GALLERY]
    mats += [random_complex(n, seed=seed) for n in (3, 6, 9) for seed in range(3)]
    thetas = theta_grid(24)
    for a in mats:
        for e in (-300, -40, 0, 40, 300):
            x = np.ldexp(1.0, e) * np.asarray(a, dtype=np.complex128)
            h = 0.5 * (x + _ct(x))
            s = 0.5 * (x - _ct(x))
            assert np.array_equal(_bits(hermitian_part(x)), _bits(0.5 * (h + _ct(h))))
            assert np.array_equal(_bits(skew_part(x)), _bits(0.5 * (s - _ct(s))))
            a_rot, h_rot = _rotated_hermitian(x, thetas)
            h = 0.5 * (a_rot + _ct(a_rot))
            assert np.array_equal(_bits(h_rot), _bits(0.5 * (h + _ct(h))))
            s = 0.5 * (a_rot - _ct(a_rot))
            assert np.array_equal(_bits(_solve_chunk(x, thetas)[3]), _bits(0.5 * (s - _ct(s))))


def test_parts_sum_large_entries():
    a = build_matrix(MatrixSpec("matrix_A1"))
    assert max_abs(hermitian_part(a) + skew_part(a) - a) <= 1e-15 * (1.0 + max_abs(a))


def test_parts_reject_nonsquare():
    with pytest.raises(DimensionError):
        hermitian_part(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        skew_part(np.ones((2, 3)))


def test_parts_reject_nonfinite():
    with pytest.raises(ParameterError):
        hermitian_part([[np.nan, 0], [0, 0]])


def test_a_tilde_parts():
    a = build_matrix(MatrixSpec("a_tilde"))
    f = build_frame(a, 1)
    assert np.allclose(f.deltas, [3, 1, 0], atol=1e-12)
    su1 = skew_part(a) @ f.u[:, 0]
    assert abs(np.real(np.vdot(su1, su1)) - 4.0) <= 1e-12


# The field kernel's spelled-out 3 x 3 adjugate and determinant, used at k = 3.

@pytest.mark.parametrize("n", [3])
def test_adjugate_identity(n):
    for seed in range(5):
        m = random_complex(n, seed=seed + 10 * n)
        resid = _adjugate3(m) @ m - _det3(m) * np.eye(n)
        assert max_abs(resid) <= 1e-9 * (1.0 + max_abs(m) ** n)
    # rank-deficient input: the cofactors stay finite and adj(M) M = 0
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2] = random_complex(2, seed=9)
    assert _det3(m) == 0.0
    assert max_abs(_adjugate3(m) @ m) <= 1e-9 * (1.0 + max_abs(m) ** 3)


def test_adjugate_matches_det_times_inverse():
    m = random_complex(3, seed=3)
    expected = np.linalg.det(m) * np.linalg.solve(m, np.eye(3))
    assert max_abs(_adjugate3(m) - expected) <= 1e-9 * (1.0 + max_abs(m) ** 3)


def test_determinant_basics():
    assert _det3(np.eye(3, dtype=complex)) == 1.0
    assert _det3(np.diag([2.0, 3.0, 0.5]).astype(complex)) == 3.0
    m = random_complex(3, seed=3)
    assert abs(_det3(m) - np.linalg.det(m)) <= 1e-12 * (1.0 + max_abs(m) ** 3)


def test_largest_singular_value_sq():
    assert largest_singular_value_sq(np.zeros((3, 2))) == 0.0
    assert largest_singular_value_sq(np.zeros((0, 2))) == 0.0
    v = np.array([3.0, 4.0])
    assert abs(largest_singular_value_sq(v) - 25.0) <= 1e-12


def test_largest_singular_value_sq_gram_oracle():
    # closed-form top eigenvalue of the 2x2 Gram matrix as the oracle
    for seed in range(20):
        v = random_complex(3, seed=seed + 100)[:, :2]
        g11 = np.real(np.vdot(v[:, 0], v[:, 0]))
        g22 = np.real(np.vdot(v[:, 1], v[:, 1]))
        g12 = np.vdot(v[:, 0], v[:, 1])
        expected = 0.5 * (g11 + g22 + np.hypot(g11 - g22, 2 * abs(g12)))
        assert abs(largest_singular_value_sq(v) - expected) <= 1e-10 * (1 + expected)


def test_largest_singular_value_variational_bound():
    rng = np.random.default_rng(5)
    for seed in range(5):
        v = random_complex(4, seed=seed + 40)[:, :3]
        top = largest_singular_value_sq(v)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(v @ x) ** 2 <= top * (1 + 1e-12)
