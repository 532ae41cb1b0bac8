"""Rotation envelopes, numerical range and rank numerical ranges.

The allowed region of one frame (g >= 0) bounds the rotated spectrum; the
envelope region is the intersection of those regions over a sample of
rotation angles, pulled back to the original plane.  With finitely many
angles the intersection can only be too large, never too small, so
eigenvalue containment holds at any angle count.

Regions are reported as boolean rasters rather than polygons because the
envelope need not be convex or even connected.  :func:`envelope_overlays`
draws the order-k curve of every rotated frame in the same (unrotated)
plane, for figures that show how the envelope is cut out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .frame import _check_order, _chunks, _rotated_hermitian, build_frames, rotation_spectra
from .inequality import g_field, g_member_k3
from .linalg import ParameterError, as_matrix, max_abs
from .trace import CurveSet, Window, trace_values

__all__ = [
    "RegionRaster",
    "theta_grid",
    "membership_tolerance",
    "envelope_membership",
    "envelope_member_mask",
    "envelope_margins",
    "envelope_raster",
    "envelope_overlays",
    "numerical_range_boundary",
    "rank_numrange_raster",
]


@dataclass(frozen=True)
class RegionRaster:
    """Boolean membership grid over a window.

    ``bits`` has shape (rows, cols) with row 0 at the t_max edge (image
    convention).  ``k`` is the envelope order (0 for half-plane based
    rasters) and ``ell`` the rank level (0 unless kind is rank_numrange).
    """

    window: Window
    bits: np.ndarray
    theta_count: int
    k: int
    ell: int
    kind: str


def theta_grid(count):
    """Uniform angle samples 2*pi*m/count, m = 0..count-1."""
    if count < 1:
        raise ParameterError("theta count must be positive")
    return 2.0 * np.pi * np.arange(count) / count


def membership_tolerance(A, k):
    """Slack on g below which a point still counts as inside.

    Scaled as (1 + max|entry|)^(2k+1) to match how g itself grows with the
    matrix magnitude, so boundary eigenvalues are not lost to rounding.
    Raises ParameterError for an order outside 1..n-1 and OverflowError
    when the entries are too large for the power.
    """
    a = np.asarray(A)
    _check_order(int(k), a.shape[0])
    return 1e-9 * (1.0 + max_abs(a)) ** (2 * k + 1)


# (angle, point) pairs per field evaluation in envelope_margins and
# envelope_overlays; the k = 3 kernel holds about 1 KiB of temporaries per
# pair.
_FIELD_BLOCK_PAIRS = 2 ** 14


def _halfplane_tolerance(A):
    return 1e-9 * (1.0 + max_abs(np.asarray(A)))


def _angle_list(thetas):
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ParameterError("need at least one rotation angle")
    return thetas


def _bit_reversed(m):
    """0..m-1 in bit-reversed order: 0, m/2, m/4, 3m/4, ... (padded to 2^j)."""
    bits = (m - 1).bit_length()
    idx = np.arange(1 << bits)
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev[rev < m]


def envelope_member_mask(A, k, thetas, points, stack=None):
    """Membership of many points at once; returns a boolean array.

    ``points`` is any array of complex coordinates in the unrotated plane.
    A point is a member when g >= -tolerance in every rotated frame.
    ``stack`` is ``build_frames(A, k, thetas)`` when the caller already has
    it.

    The reducer culls: g is evaluated only on the points still alive, and a
    point is dropped at the first angle that rejects it.  Angles are visited
    in bit-reversed order of their position in ``thetas`` (0, m/2, m/4,
    3m/4, ...) so that widely spread angles cull outside points early.  The
    result is the same intersection, bit for bit, whatever the order of
    ``thetas`` and however early a point is dropped.

    For k = 3 the test computes no eigenvalues: g >= -tol holds exactly when
    (lhs - tol) I - kappa M_3 is not positive definite, which the signs of
    its three LDL* pivots decide (:func:`specbound.inequality.g_member_k3`;
    a point where the field is not finite is dropped).  Other orders compare
    :func:`g_field` with -tol.
    """
    a = as_matrix(A)
    pts = np.asarray(points, dtype=np.complex128)
    tol = membership_tolerance(a, k)
    if stack is None:
        stack = build_frames(a, k, _angle_list(thetas))
    flat = pts.ravel()
    alive = np.arange(flat.size)
    for i in _bit_reversed(len(stack)):
        if alive.size == 0:
            break
        frame = stack[i]
        z = np.exp(1j * frame.theta) * flat[alive]
        if stack.k == 3:
            keep = g_member_k3(frame, z.real, z.imag, tol)
        else:
            keep = g_field(frame, z.real, z.imag) >= -tol
        alive = alive[keep]
    member = np.zeros(flat.size, dtype=bool)
    member[alive] = True
    return member.reshape(pts.shape)


def envelope_membership(A, k, thetas, p):
    """True when the single point p lies in every rotated allowed region."""
    return bool(envelope_member_mask(A, k, thetas, np.asarray([complex(p)]))[0])


def envelope_margins(A, k, thetas, points, stack=None):
    """Worst-case g per point over the angle set.

    Returns (min_g, worst_theta) arrays shaped like ``points``;
    ``min_g >= -tolerance`` is the membership criterion.  ``worst_theta``
    is the first angle, in ``thetas`` order, at which g attains the minimum.
    ``stack`` is ``build_frames(A, k, thetas)`` when the caller already has
    it.  Unlike the mask variant this never exits early: g is evaluated on
    (angle, point) arrays, a block of angles at a time, so memory stays
    bounded for large point sets.  Raises FloatingPointError when g is not
    finite at some angle and point (matrix entries too large to evaluate).
    """
    a = as_matrix(A)
    pts = np.asarray(points, dtype=np.complex128)
    thetas = _angle_list(thetas)
    if stack is None:
        stack = build_frames(a, k, thetas)
    flat = pts.ravel()
    min_g = np.full(flat.size, np.inf)
    worst = np.zeros(flat.size, dtype=float)
    columns = np.arange(flat.size)
    step = max(1, _FIELD_BLOCK_PAIRS // max(flat.size, 1))
    for lo in range(0, len(stack), step):
        block = stack[lo:lo + step]
        z = np.exp(1j * block.theta)[:, None] * flat
        with np.errstate(over="raise", invalid="raise"):
            g = g_field(block, z.real, z.imag)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("the inequality is not finite at some angle")
        first = np.argmin(g, axis=0)
        g_block = g[first, columns]
        better = g_block < min_g
        worst = np.where(better, block.theta[first], worst)
        min_g = np.where(better, g_block, min_g)
    return min_g.reshape(pts.shape), worst.reshape(pts.shape)


def _cell_grid(window):
    s, t = window.cell_centers()
    return s[None, :] + 1j * t[:, None]


def envelope_raster(A, k, theta_count, window, stack=None):
    """Envelope membership sampled at every cell center of the window.

    ``stack`` is ``build_frames(A, k, theta_grid(theta_count))`` when the
    caller already has it.
    """
    bits = envelope_member_mask(A, k, theta_grid(theta_count), _cell_grid(window),
                                stack=stack)
    bits.setflags(write=False)
    return RegionRaster(
        window=window, bits=bits, theta_count=int(theta_count), k=int(k), ell=0,
        kind="envelope",
    )


def _rotate(theta, s, t):
    """Real and imaginary parts of e^{i theta} (s + i t), broadcast.

    Spelled out in real arithmetic so every element rounds the same way
    whatever the shape of the arrays it is computed in.
    """
    ph = np.exp(1j * theta)
    return ph.real * s - ph.imag * t, ph.imag * s + ph.real * t


def _rotated_field(frame, s, t):
    """g of one frame at e^{i theta} (s + i t), theta the frame's angle."""
    return g_field(frame, *_rotate(frame.theta, s, t))


def envelope_overlays(stack, window):
    """The order-k curve of every frame of the stack, drawn in the window's plane.

    The curve of the frame at angle theta is the zero set of
    z -> g(e^{i theta} z), so it is traced on the window itself and its
    vertices meet the window edges exactly.  Each curve is traced on one node
    grid at half the raster resolution, max(2, ceil(cols/2)) x
    max(2, ceil(rows/2)) nodes, because an overlay is drawn as a thin line
    over the raster.  g is evaluated on at most ``_FIELD_BLOCK_PAIRS``
    (angle, node) pairs per call: a block of angles when the grid is small,
    else a band of grid rows of one angle.  Saddle cells are resolved at
    e^{i theta} times the cell center.  The curves come in angle order.  For
    k = 1 and 2 they are the same, bit for bit, whatever the block size; for
    k >= 3 the last bits of g depend on whether one call holds 16384 points
    or more (NumPy then elides temporaries into in-place products, which
    round differently).
    """
    grid = Window(window.s_min, window.s_max, window.t_min, window.t_max,
                  cols=max(2, (window.cols + 1) // 2), rows=max(2, (window.rows + 1) // 2))
    s, t = grid.node_axes()
    t = t[:, None]
    polylines = []
    closed = []
    # Small blocks also keep the field's temporaries out of fresh pages: on a
    # 400x300 grid, one call per angle spent two thirds of its time faulting
    # them in (2.3 s against 0.7 s in bands, 120 angles, k = 2).
    angles = max(1, _FIELD_BLOCK_PAIRS // (grid.cols * grid.rows))
    band = max(1, _FIELD_BLOCK_PAIRS // grid.cols)
    for lo in range(0, len(stack), angles):
        block = stack[lo:lo + angles]
        theta = block.theta[:, None, None]
        vals = np.empty((len(block), grid.rows, grid.cols))
        for r in range(0, grid.rows, band):
            vals[:, r:r + band] = g_field(block, *_rotate(theta, s, t[r:r + band]))
        for i in range(len(block)):
            cs = trace_values(vals[i], grid, partial(_rotated_field, block[i]),
                              kind="overlay")
            polylines.extend(cs.polylines)
            closed.extend(cs.closed_flags)
    return CurveSet(polylines=tuple(polylines), closed_flags=tuple(closed),
                    window=window, kind="overlay")


def rank_numrange_raster(A, ell, theta_count, window):
    """Raster of the rank-ell numerical range (intersection of half-planes).

    Level ell = 1 is the half-plane approximation of the numerical range
    itself; higher levels use the ell-th eigenvalue of the rotated Hermitian
    part as the cut.
    """
    a = as_matrix(A)
    n = a.shape[0]
    if not 1 <= ell <= n:
        raise ParameterError(f"rank level must satisfy 1 <= ell <= {n}, got {ell}")
    thetas = theta_grid(theta_count)
    spectra = rotation_spectra(a, thetas)
    grid = _cell_grid(window)
    tol = _halfplane_tolerance(a)
    bits = np.ones(grid.shape, dtype=bool)
    for theta, deltas in zip(thetas, spectra):
        rotated = np.exp(1j * theta) * grid
        bits &= rotated.real <= deltas[ell - 1] + tol
        if not bits.any():
            break
    bits.setflags(write=False)
    return RegionRaster(
        window=window, bits=bits, theta_count=int(theta_count), k=0, ell=int(ell),
        kind="rank_numrange",
    )


def numerical_range_boundary(A, theta_count):
    """Closed boundary polyline of the numerical range.

    Each angle contributes the boundary point u1* A u1 where u1 is the top
    eigenvector of the rotated Hermitian part; traversing the angles in
    order walks the (convex) boundary once.
    """
    a = as_matrix(A)
    if theta_count < 3:
        raise ParameterError("numerical range boundary needs at least 3 angles")
    thetas = theta_grid(theta_count)
    z = np.empty(theta_count, dtype=np.complex128)
    for chunk in _chunks(theta_count, a.shape[0]):
        _, h = _rotated_hermitian(a, thetas[chunk])
        u1 = np.linalg.eigh(h)[1][:, :, -1]
        z[chunk] = np.einsum("mi,ij,mj->m", np.conj(u1), a, u1)
    pts = np.column_stack([z.real, z.imag])
    pts.setflags(write=False)

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * max(float(np.max(hi - lo)), 1e-6) + 1e-9
    window = Window(lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
    return CurveSet(
        polylines=(pts,), closed_flags=(True,), window=window, kind="numrange",
    )
