"""Spectral frames: the per-(matrix, order, angle) quantities behind the curves.

For a square matrix A, an order ``k`` and a rotation angle ``theta``, the
frame bundles everything the inequality evaluator needs about
``e^{i theta} A``: the non-increasing eigenvalues delta_1 >= ... >= delta_n of
its Hermitian part with the diagonalizing unitary U, the rotated skew part
Y = U* S U, the leading k x k block of Y, the (n-k) x k coupling block, and
``kappa``, the squared largest singular value of that coupling block.

:func:`build_frames` returns a :class:`FrameStack`: the field quantities
(deltas, Y_k, kappa, ...) of many angles as arrays with a leading angle axis,
which :func:`specbound.inequality.g_field` evaluates in one call.  The
eigenproblems are solved one chunk of angles at a time; the chunk holds as
many angles as fit a fixed byte budget for the n x n work arrays, so peak
memory stays bounded for large n (every angle fits one chunk for small n).
The stack keeps no n x n array per angle.  :func:`build_frame` solves one
angle through the same chunk solver and returns a full :class:`SpectralFrame`
that also holds the rotated matrix, U and Y.  Frames and stacks are immutable
and cheap to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    ParameterError,
    as_matrix,
    largest_singular_value_sq,
    _ct,
    _fix_phases,
)

__all__ = ["SpectralFrame", "FrameStack", "build_frame", "build_frames",
           "rotation_spectra", "w_matrix"]

_DEGENERACY_RTOL = 1e-12

# Byte budget of one chunk of the angle-stacked solve, and the number of
# n x n complex arrays it holds per angle at its peak (rotated matrix,
# Hermitian and skew parts, eigenvectors, Y and the temporaries between
# them).  At n = 160 a chunk holds 2 angles (about 6 MiB); at n = 5 it
# holds 2621.  Larger chunks were no faster at n = 160.
_CHUNK_BYTES = 8 * 2 ** 20
_SOLVE_ARRAYS = 8


@dataclass(frozen=True)
class SpectralFrame:
    """Derived quantities for one (matrix, order, angle) triple.

    ``degenerate`` flags delta_k == delta_{k+1} within rounding; curves built
    from such frames depend on the eigenvector basis picked inside the
    degenerate eigenspace and should be read with that caveat.
    """

    k: int
    theta: float
    a_rot: np.ndarray
    deltas: np.ndarray
    u: np.ndarray
    y: np.ndarray
    delta_k_block: np.ndarray
    y_k: np.ndarray
    v_k: np.ndarray
    kappa: float
    delta_next: float
    degenerate: bool = False

    @property
    def n(self):
        return self.a_rot.shape[0]


@dataclass(frozen=True)
class FrameStack:
    """Field quantities of one (matrix, order) at m angles.

    Every array has a leading angle axis: ``theta`` (m,), ``deltas`` (m, n),
    ``delta_k_block`` (m, k), ``y_k`` (m, k, k), ``delta_next``, ``kappa``
    and ``degenerate`` (m,).  ``len(stack)`` is m; ``stack[i]`` is the frame
    at one angle (the same fields without the angle axis) and ``stack[i:j]``
    a sub-stack.  :func:`specbound.inequality.g_field` accepts all three;
    given a stack it expects points whose leading axis is the angle axis.
    """

    k: int
    theta: np.ndarray
    deltas: np.ndarray
    delta_k_block: np.ndarray
    y_k: np.ndarray
    delta_next: np.ndarray
    kappa: np.ndarray
    degenerate: np.ndarray

    def __len__(self):
        return len(self.theta)

    def __getitem__(self, index):
        return FrameStack(self.k, *(getattr(self, f.name)[index] for f in fields(self)[1:]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _check_order(k, n):
    if not 1 <= k <= n - 1:
        raise ParameterError(f"order k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")


def _chunk_angles(n):
    """Angles per chunk of the stacked solve for an n x n matrix."""
    return max(1, _CHUNK_BYTES // (_SOLVE_ARRAYS * np.dtype(np.complex128).itemsize * n * n))


def _rotated_hermitian(a, thetas):
    """e^{i theta} A and its exactly Hermitian part, with a leading angle axis."""
    ph = np.exp(1j * np.asarray(thetas, dtype=float))
    a_rot = ph[:, None, None] * a[None, :, :]
    h = 0.5 * (a_rot + _ct(a_rot))
    return a_rot, 0.5 * (h + _ct(h))


def _chunks(m, n):
    """Slices of m angles, each small enough for one stacked n x n solve."""
    step = _chunk_angles(n)
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def _solve_chunk(a, thetas):
    """Rotated matrices, spectra, unitaries and Y = U* S U for a few angles.

    One batched ``eigh`` over the angles; every result has a leading angle
    axis.
    """
    a_rot, h = _rotated_hermitian(a, thetas)
    s = 0.5 * (a_rot - _ct(a_rot))
    s = 0.5 * (s - _ct(s))
    w, v = np.linalg.eigh(h)
    w = w[:, ::-1]
    v = _fix_phases(v[:, :, ::-1])
    y = _ct(v) @ s @ v
    y = 0.5 * (y - _ct(y))
    return a_rot, w, v, y


def _stack(k, theta, deltas, y):
    """FrameStack from per-angle spectra and (at least the first k) columns of Y."""
    gap = deltas[:, k - 1] - deltas[:, k]
    scale = np.max(np.abs(deltas), axis=1)
    return FrameStack(
        k=k,
        theta=_freeze(theta),
        deltas=_freeze(deltas),
        delta_k_block=_freeze(deltas[:, :k]),
        y_k=_freeze(y[:, :k, :k]),
        delta_next=_freeze(deltas[:, k]),
        kappa=_freeze(largest_singular_value_sq(y[:, k:, :k])),
        degenerate=_freeze(gap <= _DEGENERACY_RTOL * (1.0 + scale)),
    )


def build_frame(A, k, theta=0.0):
    """Build the spectral frame of A for order k at rotation angle theta."""
    a = as_matrix(A)
    k = int(k)
    _check_order(k, a.shape[0])
    thetas = np.array([float(theta)])
    a_rot, w, v, y = _solve_chunk(a, thetas)
    one = _stack(k, thetas, w, y)[0]
    return SpectralFrame(
        k=k,
        theta=float(one.theta),
        a_rot=_freeze(a_rot[0]),
        deltas=_freeze(w[0]),
        u=_freeze(v[0]),
        y=_freeze(y[0]),
        delta_k_block=one.delta_k_block,
        y_k=one.y_k,
        v_k=_freeze(y[0, k:, :k]),
        kappa=float(one.kappa),
        delta_next=float(one.delta_next),
        degenerate=bool(one.degenerate),
    )


def build_frames(A, k, thetas):
    """FrameStack of A for order k at every angle in ``thetas``.

    The angles are solved in chunks (see the module docstring); the result
    is the same, bit for bit, whatever the chunk size.
    """
    a = as_matrix(A)
    k = int(k)
    n = a.shape[0]
    _check_order(k, n)
    theta = np.array([float(t) for t in thetas], dtype=float)
    m = theta.size
    deltas = np.empty((m, n))
    y = np.empty((m, n, k), dtype=np.complex128)
    for chunk in _chunks(m, n):
        _, w, _, y_chunk = _solve_chunk(a, theta[chunk])
        deltas[chunk] = w
        y[chunk] = y_chunk[:, :, :k]
    return _stack(k, theta, deltas, y)


def rotation_spectra(A, thetas):
    """Non-increasing eigenvalues of the Hermitian part of e^{i theta} A.

    Returns an (m, n) array, one row per angle.  Used by the half-plane
    (rank numerical range) machinery, which needs no eigenvectors.  The
    angles are solved in chunks, as in :func:`build_frames`.
    """
    a = as_matrix(A)
    thetas = np.asarray(thetas, dtype=float)
    w = np.empty((thetas.size, a.shape[0]))
    for chunk in _chunks(thetas.size, a.shape[0]):
        _, h = _rotated_hermitian(a, thetas[chunk])
        w[chunk] = np.linalg.eigvalsh(h)[:, ::-1]
    return w


def w_matrix(frame, s, t):
    """The shifted leading block W_k = Delta_k + Y_k - (s + i t) I_k.

    The Hermitian part of the result is exactly diag(delta_j - s) because the
    stored block Y_k is exactly skew-Hermitian.
    """
    k = frame.k
    w = frame.y_k.astype(np.complex128, copy=True)
    w[np.arange(k), np.arange(k)] += frame.delta_k_block - s - 1j * t
    return w
