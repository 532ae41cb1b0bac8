"""Dense complex linear-algebra primitives shared by the curve and envelope code.

Matrices are plain numpy ``complex128`` arrays throughout: 2-D, or stacks
(..., n, n) where a function says so.  All functions are pure; arrays handed
out by this module are treated as immutable by the rest of the package.  The
exception classes raised for bad input across the package live here too.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionError",
    "ParameterError",
    "as_matrix",
    "max_abs",
    "hermitian_part",
    "skew_part",
    "largest_singular_value_sq",
]


class DimensionError(ValueError):
    """Matrix has the wrong shape for the operation (e.g. not square)."""


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


def _pow2_scale(a):
    """sigma = 2^round(log2 max|a_ij|), or 1.0 when every entry is zero.

    Dividing by a power of two is exact, and sigma(2^e A) = 2^e sigma(A), so
    A/sigma is the same matrix, bit for bit, for A and 2^e A.
    """
    m = max_abs(a)
    if m == 0.0:
        return 1.0
    mant, exp = math.frexp(m)
    # log2 m = exp + log2(mant), mant in [1/2, 1): it rounds down below 2^(-1/2)
    return math.ldexp(1.0, exp - (mant < math.sqrt(0.5)))


def _normalised(a):
    """(A/sigma, sigma) with sigma = :func:`_pow2_scale` of A.

    The one place sigma is chosen: A/sigma has max|a_ij| in [2^(-1/2),
    2^(1/2)) unless A is zero, and results computed on it are those of A
    divided by sigma, so multiplying them by sigma is exact.
    """
    sigma = _pow2_scale(a)
    return _divided(a, sigma), sigma


def _divided(z, sigma):
    """z / sigma as a complex array, each part divided on its own.

    For a power of two the result is exact, signs of zeros included, so
    dividing by 1 returns z bit for bit.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = z.real / sigma
    out.imag = z.imag / sigma
    return out


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
