"""Spectral frames: the per-(matrix, order, angle) quantities behind the curves.

For a square matrix A, an order ``k`` and a rotation angle ``theta``, the
frame bundles everything the inequality evaluator needs about
``e^{i theta} A``: the non-increasing eigenvalues delta_1 >= ... >= delta_n of
its Hermitian part with the diagonalizing unitary U, the leading k x k
block Y_k of the rotated skew part Y = U* S U, the (n-k) x k coupling block
below it, and ``kappa``, the squared largest singular value of that coupling
block.

:func:`build_frames` returns a :class:`FrameStack`: the field quantities
(deltas, Y_k, kappa, ...) of many angles as arrays with a leading angle
axis, which :func:`specbound.inequality.g_field` evaluates in one call.  The
eigenproblems are solved one chunk of angles at a time, and the chunks being
solved together hold at most a fixed byte budget of n x n work arrays, so
peak memory stays bounded for large n (every angle fits one chunk for small
n).  When BLAS runs each solve on one thread and the angles need more than
one chunk of the budget, the chunks are solved on a few threads, since
NumPy's eigensolvers release the interpreter lock.  Each thread's chunk
then holds its share of the budget, and the results are written on the
calling thread in chunk order.  Only the columns of Y the stack keeps are
formed, as U* (S U_cols): the first k, which give Y_k and the coupling
block.  The stack keeps no n x n array per angle, and its frames are the
same, bit for bit, whatever the chunk size and the thread count.

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
returns a :class:`SpectralFrame` that also holds the rotated matrix, U and
the coupling block.  Neither function forms the whole of Y.  The private
:func:`_frames_and_first` returns a stack together with the frame at its
first angle, built from the chunk that solves that angle, so a caller that
needs both solves no angle twice.  Frames and stacks are immutable and
cheap to share between workers.
"""

from __future__ import annotations

import os
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

# Byte budget of the angle-stacked solve, shared by all the chunks being
# solved at once, and the number of n x n complex arrays a chunk holds per
# solved angle at its peak (rotated matrix, Hermitian and skew parts,
# eigenvectors and the temporaries between them).  At n = 160 the budget
# holds 2 angles (about 6 MiB): one chunk of 2 on one thread, or one angle
# per chunk on each of two threads; at n = 5 it holds 2621.  Larger chunks
# were no faster at n = 160.  Above n = 256 one angle exceeds the budget, so
# chunks hold one angle and are solved on one thread.  Traced peaks of an
# n = 160 build_frames over 120 angles were 7.3 MiB on one thread (where a
# solved chunk's 3 output arrays per angle live on until the next solve
# returns) and 5.5 MiB on two.
_CHUNK_BYTES = 8 * 2 ** 20
_SOLVE_ARRAYS = 8


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _solve_threads(environ, cpus):
    """Threads that may solve chunks at once without oversubscribing ``cpus``.

    The BLAS thread count of a solve is the first of OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS and OMP_NUM_THREADS in ``environ`` that is a positive
    integer.  When it is 1, every CPU may solve a chunk; otherwise, set
    higher or not set (BLAS then threads every solve itself), one thread
    solves them all.
    """
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            return cpus if value == 1 else 1
    return 1


# BLAS reads its thread variables once, when it loads, so the count is fixed
# at import.  With no variable set, BLAS threads every solve itself and the
# chunks run on one thread.
_WORKERS = _solve_threads(os.environ, _cpu_count())


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
    """e^{i theta} A and its Hermitian part, with a leading angle axis.

    The part is exactly Hermitian as computed (see
    :func:`specbound.linalg.hermitian_part`).
    """
    ph = np.exp(1j * np.asarray(thetas, dtype=float))
    a_rot = ph[:, None, None] * a[None, :, :]
    return a_rot, 0.5 * (a_rot + _ct(a_rot))


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


def _chunk_plan(n, count):
    """(threads, angles per chunk) for solving ``count`` angles of an n x n matrix.

    The threads are no more than ``_WORKERS``, than the budget's angles, and
    than the chunks the whole budget needs for ``count`` angles, so angles
    that fit one chunk are solved inline.  The threads share the byte
    budget: each chunk holds the budget's angles divided by the threads, so
    the chunks being solved never hold more than the budget unless one angle
    alone does.
    """
    budget = _chunk_angles(n)
    threads = max(1, min(_WORKERS, budget, -(-count // budget)))
    return threads, budget // threads


def _solved_chunks(theta, n, solve, reduce=lambda chunk, solved, paired: solved):
    """Solve the angles of ``theta`` for an n x n matrix a chunk at a time.

    ``solve(thetas)`` runs the eigensolve of one chunk of angles and
    ``reduce(chunk, solved, paired)`` keeps what the caller needs of it.  Yields
    (chunk, opposite, reduced) in chunk order, where ``chunk`` is the slice
    of ``theta`` solved.  On an antipodal list (:func:`_antipodal`)
    ``paired`` is True, the chunks cover the first half only, and
    ``opposite`` is the chunk shifted by m/2, whose results follow from the
    chunk's by :func:`_antipode`; otherwise the chunks cover every angle and
    ``opposite`` is None.

    The chunks and the threads that solve them come from :func:`_chunk_plan`.
    One thread solves inline.  More solve and reduce in a pool, which is
    shut down, its pending solves cancelled, when the generator ends, an
    error in a solve included, or is closed.
    """
    m = len(theta)
    paired = _antipodal(theta)
    half = m // 2 if paired else m
    threads, step = _chunk_plan(n, half)
    chunks = []
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        chunks.append((slice(lo, hi), slice(lo + half, hi + half) if paired else None))
    if threads == 1:
        for chunk, opposite in chunks:
            # ``solved`` stays referenced until the next solve returns.  Under
            # glibc's default thresholds, which library callers keep, freeing
            # it first let malloc give the top of the heap back to the system
            # and the next solve faulted it in again: five times the minor
            # faults of an n = 160 build_frames, about 10% of its time.
            # Under cli.main's settings the heap keeps it either way.
            solved = solve(theta[chunk])
            yield chunk, opposite, reduce(chunk, solved, paired)
        return
    from concurrent.futures import ThreadPoolExecutor

    # Here a chunk's arrays die in its thread: keeping them until the next
    # result held every thread's heap at its peak (2.4 MiB more resident for
    # n = 160 checks on two threads).  Under glibc's defaults, which library
    # callers keep, each thread's arena then gives its freed top back to the
    # system and faults it in again at the next solve (about 35k minor faults
    # per n = 160 check on two threads, against 8k inline).  cli.main sets
    # one arena and thresholds that keep the freed arrays in the heap, where
    # the next solve on any thread reuses them.
    pool = ThreadPoolExecutor(threads)
    try:
        futures = [pool.submit(lambda c: reduce(c, solve(theta[c]), paired), chunk)
                   for chunk, _ in chunks]
        for (chunk, opposite), future in zip(chunks, futures):
            yield chunk, opposite, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


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


def _frame(k, theta, solved):
    """SpectralFrame of order k at the first angle of ``solved``, the solve of ``theta``.

    ``solved`` is what :func:`_solve_chunk` returns for the angles
    ``theta``.  The frame forms its own k columns of Y from that angle alone,
    so it is the same, bit for bit, whatever else the chunk held, and it
    copies its n x n arrays, so it keeps no other angle of the chunk alive.
    """
    a_rot, w, v, s = (x[:1] for x in solved)
    y_cols = _y_columns(v, s, np.arange(k))
    one = _stack(k, theta[:1], w, y_cols)[0]
    return SpectralFrame(
        k=k,
        theta=float(one.theta),
        a_rot=_freeze(a_rot[0].copy()),
        deltas=_freeze(w[0]),
        u=_freeze(v[0].copy()),
        delta_k_block=one.delta_k_block,
        y_k=one.y_k,
        v_k=_freeze(y_cols[0, k:]),
        kappa=float(one.kappa),
        delta_next=float(one.delta_next),
        degenerate=bool(one.degenerate),
    )


def build_frame(A, k, theta=0.0):
    """Build the spectral frame of A for order k at rotation angle theta.

    The frame's quantities are those of ``build_frames(A, k, [theta])``, bit
    for bit; ``v_k`` is the (n-k) x k coupling block of Y = U* S U, below
    the stack's Y_k.
    """
    a = as_matrix(A)
    k = int(k)
    _check_order(k, a.shape[0])
    thetas = np.array([float(theta)])
    return _frame(k, thetas, _solve_chunk(a, thetas))


def _frames_and_first(A, k, thetas, first):
    """(``build_frames(A, k, thetas)``, the frame at thetas[0] or None), from one solve.

    With ``first`` true, the chunk that solves thetas[0] also builds that
    angle's :class:`SpectralFrame` (:func:`_frame`), which is then
    ``build_frame(A, k, thetas[0])`` bit for bit, though the stack's own Y
    columns of an antipodal list come from a 2k-column product; no angle is
    solved twice.  With ``first`` false this is :func:`build_frames`.
    """
    a = as_matrix(A)
    k = int(k)
    n = a.shape[0]
    _check_order(k, n)
    theta = np.array([float(t) for t in thetas], dtype=float)
    m = theta.size
    deltas = np.empty((m, n))
    y = np.empty((m, n, k), dtype=np.complex128)
    head = None

    def reduce(chunk, solved, paired):
        _, w, v, s = solved
        y_cols = _y_columns(v, s, np.r_[0:k, n - k:n] if paired else np.arange(k))
        return w, y_cols, _frame(k, theta[chunk], solved) if first and chunk.start == 0 else None

    for chunk, opposite, (w, y_cols, frame) in _solved_chunks(
            theta, n, lambda chunk_thetas: _solve_chunk(a, chunk_thetas), reduce):
        if frame is not None:
            head = frame
        deltas[chunk] = w
        y[chunk] = y_cols[:, :, :k]
        if opposite is not None:
            # U at theta + pi is U with its columns reversed and S is -S, so
            # Y there is -Y reversed in both axes; its first k columns are
            # the last k of Y, which the product above also formed.
            deltas[opposite] = _antipode(w)
            y[opposite] = -y_cols[:, ::-1, ::-1][:, :, :k]
    return _stack(k, theta, deltas, y), head


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
    return _frames_and_first(A, k, thetas, False)[0]


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

    def solve(chunk_thetas):
        return np.linalg.eigvalsh(_rotated_hermitian(a, chunk_thetas)[1])[:, ::-1]

    for chunk, opposite, spectra in _solved_chunks(thetas, a.shape[0], solve):
        w[chunk] = spectra
        if opposite is not None:
            w[opposite] = _antipode(spectra)
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
