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
Only the columns of Y the stack keeps are formed, as U* (S U_cols): the
first k, which give Y_k and the coupling block.  The stack keeps no n x n
array per angle, and its frames are the same, bit for bit, whatever the
chunk size.

Since H(e^{i(theta + pi)} A) = -H(e^{i theta} A), an angle and its antipode
share their eigenvectors, with the eigenvalues negated and in reverse
order.  When the second half of an angle list is the first half plus pi
(``theta_grid`` of an even count), only the first half is solved: at
theta + pi, deltas are -deltas reversed, U is U with its columns reversed
and Y = -Y reversed in both axes, so the solved half also forms the last k
columns of Y.  Such a derived frame is the exact frame of its antipode's
angle plus pi, which differs from its own angle by rounding, so it agrees
with a direct solve to rounding only (see :func:`build_frames`).  Other
lists, odd counts included, are solved angle by angle through the same
code with nothing derived.  :func:`rotation_spectra` and the numerical
range boundary pair their angles by the same rule.

:func:`build_frame` solves one angle through the same chunk solver and
returns a full :class:`SpectralFrame` that also holds the rotated matrix, U
and Y.  Frames and stacks are immutable and cheap to share between workers.
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
# n x n complex arrays it holds per solved angle at its peak (rotated matrix,
# Hermitian and skew parts, eigenvectors and the temporaries between them).
# At n = 160 a chunk holds 2 angles (about 6 MiB); at n = 5 it holds 2621.
# Larger chunks were no faster at n = 160.
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


def _antipodal(theta):
    """True when angle j + m/2 of ``theta`` is angle j plus pi, for every j.

    m must be even and the angles must match to within 8 eps on the unit
    circle; ``theta_grid`` of any even count passes.
    """
    m = len(theta)
    if m % 2 or not m:
        return False
    ph = np.exp(1j * np.asarray(theta, dtype=float))
    return bool(np.all(np.abs(ph[m // 2:] + ph[:m // 2]) <= 8.0 * np.finfo(float).eps))


def _paired_chunks(theta, n):
    """Chunks of the angles to solve, each with the slice of its antipodes.

    Yields (chunk, opposite).  On an antipodal list (:func:`_antipodal`) the
    chunks cover the first half and ``opposite`` is the chunk shifted by
    m/2, whose results follow from the chunk's by :func:`_antipode`;
    otherwise the chunks cover every angle and ``opposite`` is None.  Each
    chunk is small enough for one stacked n x n solve.
    """
    m = len(theta)
    half = m // 2 if _antipodal(theta) else m
    step = _chunk_angles(n)
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        yield slice(lo, hi), slice(lo + half, hi + half) if half < m else None


def _antipode(w, v=None):
    """Eigenvalues (and eigenvectors) at theta + pi from those at theta.

    H(e^{i(theta + pi)} A) = -H(e^{i theta} A) has the same eigenvectors,
    with the eigenvalues negated and so in reverse order; ``w`` (..., n) is
    sorted either way and ``v`` (..., n, n) holds the eigenvectors as columns
    in the same order.  Phase fixing acts on each column alone, so a fixed
    ``v`` stays fixed.
    """
    w = -w[..., ::-1]
    return w if v is None else (w, v[..., ::-1])


def _solve_chunk(a, thetas):
    """Rotated matrices, spectra, unitaries and skew parts for a few angles.

    One batched ``eigh`` over the angles; every result has a leading angle
    axis, the spectra non-increasing and the unitaries phase-fixed.
    """
    a_rot, h = _rotated_hermitian(a, thetas)
    s = 0.5 * (a_rot - _ct(a_rot))
    s = 0.5 * (s - _ct(s))
    w, v = np.linalg.eigh(h)
    return a_rot, w[:, ::-1], _fix_phases(v[:, :, ::-1]), s


def _y_columns(v, s, cols):
    """The columns ``cols`` of Y = U* S U, one product per angle."""
    return _ct(v) @ (s @ v[:, :, cols])


def _stack(k, theta, deltas, y):
    """FrameStack from per-angle spectra and the first k columns of Y.

    Only the leading k x k block of Y is made exactly skew-Hermitian; kappa
    comes from the coupling block below it as the product left it.
    """
    gap = deltas[:, k - 1] - deltas[:, k]
    scale = np.max(np.abs(deltas), axis=1)
    y_k = y[:, :k, :k]
    return FrameStack(
        k=k,
        theta=_freeze(theta),
        deltas=_freeze(deltas),
        delta_k_block=_freeze(deltas[:, :k]),
        y_k=_freeze(0.5 * (y_k - _ct(y_k))),
        delta_next=_freeze(deltas[:, k]),
        kappa=_freeze(largest_singular_value_sq(y[:, k:, :k])),
        degenerate=_freeze(gap <= _DEGENERACY_RTOL * (1.0 + scale)),
    )


def build_frame(A, k, theta=0.0):
    """Build the spectral frame of A for order k at rotation angle theta.

    The frame's quantities are those of ``build_frames(A, k, [theta])``, bit
    for bit.  Its full Y is exactly skew-Hermitian: the first k columns are
    the stack's, mirrored into the first k rows, and the rest is
    skew-symmetrised from the product U* S U.
    """
    a = as_matrix(A)
    k = int(k)
    _check_order(k, a.shape[0])
    thetas = np.array([float(theta)])
    a_rot, w, v, s = _solve_chunk(a, thetas)
    y_cols = _y_columns(v, s, np.arange(k))
    one = _stack(k, thetas, w, y_cols)[0]
    v_k = y_cols[0, k:]
    y = _ct(v[0]) @ s[0] @ v[0]
    y = 0.5 * (y - _ct(y))
    y[:k, :k] = one.y_k
    y[k:, :k] = v_k
    y[:k, k:] = -_ct(v_k)
    return SpectralFrame(
        k=k,
        theta=float(one.theta),
        a_rot=_freeze(a_rot[0]),
        deltas=_freeze(w[0]),
        u=_freeze(v[0]),
        y=_freeze(y),
        delta_k_block=one.delta_k_block,
        y_k=one.y_k,
        v_k=_freeze(v_k),
        kappa=float(one.kappa),
        delta_next=float(one.delta_next),
        degenerate=bool(one.degenerate),
    )


def build_frames(A, k, thetas):
    """FrameStack of A for order k at every angle in ``thetas``.

    The angles are solved in chunks; on an antipodal list only the first
    half is solved, and each frame of the second half is derived from its
    antipode (see the module docstring).  Either way the result is the
    same, bit for bit, whatever the chunk size.  On a list that is not
    antipodal, ``stack[i]`` equals ``build_frame(A, k, thetas[i])`` bit for
    bit.  On an antipodal one, the derived frame is the exact frame of the
    antipode's angle plus pi, which lies within 8 eps of the given angle,
    and the solved half forms 2k columns of Y instead of k; both frames
    then agree with ``build_frame`` to rounding only.  At n = 160 over 120
    angles, k = 1..3, the largest differences relative to the largest entry
    were 1.2e-15 in deltas, 3.7e-15 in kappa and 3.4e-13 in y_k.
    """
    a = as_matrix(A)
    k = int(k)
    n = a.shape[0]
    _check_order(k, n)
    theta = np.array([float(t) for t in thetas], dtype=float)
    m = theta.size
    deltas = np.empty((m, n))
    y = np.empty((m, n, k), dtype=np.complex128)
    for chunk, opposite in _paired_chunks(theta, n):
        _, w, v, s = _solve_chunk(a, theta[chunk])
        cols = np.arange(k) if opposite is None else np.r_[0:k, n - k:n]
        y_cols = _y_columns(v, s, cols)
        deltas[chunk] = w
        y[chunk] = y_cols[:, :, :k]
        if opposite is not None:
            # U at theta + pi is U with its columns reversed and S is -S, so
            # Y there is -Y reversed in both axes; its first k columns are
            # the last k of Y, which the product above also formed.
            deltas[opposite] = _antipode(w)
            y[opposite] = -y_cols[:, ::-1, ::-1][:, :, :k]
    return _stack(k, theta, deltas, y)


def rotation_spectra(A, thetas):
    """Non-increasing eigenvalues of the Hermitian part of e^{i theta} A.

    Returns an (m, n) array, one row per angle.  Used by the half-plane
    (rank numerical range) machinery, which needs no eigenvectors.  The
    angles are solved in chunks and antipodal pairs once, as in
    :func:`build_frames`.
    """
    a = as_matrix(A)
    thetas = np.asarray(thetas, dtype=float)
    w = np.empty((thetas.size, a.shape[0]))
    for chunk, opposite in _paired_chunks(thetas, a.shape[0]):
        _, h = _rotated_hermitian(a, thetas[chunk])
        w[chunk] = np.linalg.eigvalsh(h)[:, ::-1]
        if opposite is not None:
            w[opposite] = _antipode(w[chunk])
    return w


def _shift_matrix(frame):
    """Constant part C = Delta_k + Y_k of W_k = C - lambda I.

    For a frame stack, C has the stack's leading angle axis.
    """
    c = frame.y_k.astype(np.complex128, copy=True)
    k = frame.k
    c[..., np.arange(k), np.arange(k)] += frame.delta_k_block
    return c


def w_matrix(frame, s, t):
    """The shifted leading block W_k = Delta_k + Y_k - (s + i t) I_k.

    The Hermitian part of the result is exactly diag(delta_j - s) because the
    stored block Y_k is exactly skew-Hermitian.
    """
    return _shift_matrix(frame) - complex(s, t) * np.eye(frame.k)
