"""Dense complex linear-algebra primitives shared by the curve and envelope code.

Matrices are plain numpy ``complex128`` 2-D arrays throughout.  All functions
are pure; arrays handed out by this module are treated as immutable by the
rest of the package.  Tolerances are scaled by ``1 + max|entry|`` so that the
same code works for matrices with entries of order one and of order hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "ShapeError",
    "ParameterError",
    "HermitianEigenDecomposition",
    "as_matrix",
    "max_abs",
    "hermitian_part",
    "skew_part",
    "eig_hermitian",
    "adjugate",
    "determinant",
    "largest_singular_value_sq",
    "lambda_extreme_hermitian",
]

# Condition-number cutoff above which det(M)*inv(M) is not trusted for the
# adjugate and the cofactor expansion is used instead.
_ADJUGATE_COND_LIMIT = 1e12


class DimensionError(ValueError):
    """Matrix has the wrong shape for the operation (e.g. not square)."""


class ShapeError(ValueError):
    """Matrix violates a required structure (e.g. not Hermitian)."""


class ParameterError(ValueError):
    """Scalar argument or option outside its allowed range."""


def as_matrix(a, square=True):
    """Coerce ``a`` to a finite complex128 2-D array.

    Raises DimensionError for non-2-D input (and non-square input unless
    ``square=False``), ParameterError if any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ParameterError("matrix entries must be finite (no NaN/Inf)")
    return m


def max_abs(a):
    """Largest entry modulus; 0.0 for empty arrays."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _ct(a):
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a):
    """(A + A*)/2, re-symmetrized so the result satisfies H = H* exactly."""
    a = as_matrix(a)
    h = 0.5 * (a + _ct(a))
    return 0.5 * (h + _ct(h))


def skew_part(a):
    """(A - A*)/2, re-skewed so the result satisfies S* = -S exactly."""
    a = as_matrix(a)
    s = 0.5 * (a - _ct(a))
    return 0.5 * (s - _ct(s))


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues (real, non-increasing) and matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_phases(v):
    """Rotate each eigenvector so its largest-modulus entry is real positive.

    Works on a single (n, n) matrix or a batch (..., n, n); the first index
    attaining the maximum modulus is used, which makes the output
    reproducible.
    """
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    mod = np.abs(lead)
    phase = np.where(mod == 0.0, 1.0 + 0.0j, lead / np.where(mod == 0.0, 1.0, mod))
    return v * np.conj(phase)[..., None, :]


def _require_hermitian(m, what):
    scale = 1.0 + max_abs(m)
    if max_abs(m - _ct(m)) > 1e-12 * scale:
        raise ShapeError(f"{what} requires a Hermitian matrix")
    return 0.5 * (m + _ct(m))


def eig_hermitian(h):
    """Full eigendecomposition of a Hermitian matrix.

    Values come out non-increasing; eigenvector phases are fixed so repeated
    runs give identical output.  Input is symmetrized before solving and must
    be Hermitian within 1e-12 relative to its magnitude.
    """
    h = as_matrix(h)
    hs = _require_hermitian(h, "eig_hermitian")
    w, v = np.linalg.eigh(hs)
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    v = _fix_phases(v)
    return HermitianEigenDecomposition(values=w, vectors=v)


def determinant(m):
    """Determinant as a Python complex.

    Sizes up to 3 use the exact cofactor expansion; larger matrices go
    through LU with partial pivoting.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    if n == 2:
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if n == 3:
        return complex(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    return complex(np.linalg.det(m))


def _adjugate_cofactor(m):
    n = m.shape[0]
    adj = np.empty_like(m)
    idx = np.arange(n)
    for i in range(n):
        cols = idx[idx != i]
        for j in range(n):
            rows = idx[idx != j]
            adj[i, j] = (-1) ** (i + j) * determinant(m[np.ix_(rows, cols)])
    return adj


def adjugate(m):
    """Adjugate (transposed cofactor matrix), with adj(M)M = det(M) I.

    The adjugate of a 1x1 matrix is [[1]] so that the identity above keeps
    holding.  Sizes up to 4 use the cofactor expansion directly; larger
    matrices use det(M) inv(M) unless the condition estimate is above 1e12,
    in which case the cofactor route is used as well.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n == 1:
        return np.array([[1.0 + 0.0j]])
    if n <= 4:
        return _adjugate_cofactor(m)
    cond = np.linalg.cond(m)
    if np.isfinite(cond) and cond <= _ADJUGATE_COND_LIMIT:
        return complex(np.linalg.det(m)) * np.linalg.inv(m)
    return _adjugate_cofactor(m)


def largest_singular_value_sq(v):
    """Squared largest singular value, i.e. the top eigenvalue of V*V.

    Accepts any rectangular matrix (1-D input is treated as a column) and
    returns a float, or a stack (..., r, c) of them, for which it returns an
    array over the stack from one batched SVD; an empty matrix gives 0.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim < 2:
        raise DimensionError(f"expected a matrix or vector, got {v.ndim} dimension(s)")
    if v.shape[-1] == 0 or v.shape[-2] == 0:
        top = np.zeros(v.shape[:-2])
    else:
        if not np.all(np.isfinite(v)):
            raise ParameterError("matrix entries must be finite (no NaN/Inf)")
        s = np.linalg.svd(v, compute_uv=False)[..., 0]
        # Squared by the scalar pow(), element by element, as the result for
        # one matrix always was: NumPy's array square rounds differently in
        # the last bit now and then, which would move kappa and every g
        # built on it.
        top = np.array([x ** 2 for x in s.ravel().tolist()]).reshape(s.shape)
    return float(top) if v.ndim == 2 else top


def lambda_extreme_hermitian(m, which="max"):
    """Largest or smallest eigenvalue of a Hermitian matrix.

    1x1 returns the sole (real) entry and 2x2 uses the closed form
    (trace/2 +- sqrt of the discriminant); larger sizes fall back to the
    dense solver.
    """
    if which not in ("max", "min"):
        raise ParameterError(f"which must be 'max' or 'min', got {which!r}")
    m = as_matrix(m)
    hs = _require_hermitian(m, "lambda_extreme_hermitian")
    n = hs.shape[0]
    if n == 1:
        return float(hs[0, 0].real)
    if n == 2:
        a = hs[0, 0].real
        d = hs[1, 1].real
        disc = np.hypot(0.5 * (a - d), abs(hs[0, 1]))
        return float(0.5 * (a + d) + disc if which == "max" else 0.5 * (a + d) - disc)
    w = np.linalg.eigvalsh(hs)
    return float(w[-1] if which == "max" else w[0])
