"""Rotation envelopes, numerical range and rank numerical ranges.

The allowed region of one frame (g >= 0) bounds the rotated spectrum; the
envelope region is the intersection of those regions over a sample of
rotation angles, pulled back to the original plane.  With finitely many
angles the intersection can only be too large, never too small, so
eigenvalue containment holds at any angle count.

Regions are reported as boolean rasters rather than polygons because the
envelope need not be convex or even connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import build_frames, rotation_spectra
from .inequality import g_field
from .linalg import ParameterError, as_matrix, max_abs, _ct
from .trace import CurveSet, Window

__all__ = [
    "RegionRaster",
    "theta_grid",
    "membership_tolerance",
    "envelope_membership",
    "envelope_member_mask",
    "envelope_margins",
    "envelope_raster",
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
    """
    return 1e-9 * (1.0 + max_abs(np.asarray(A))) ** (2 * k + 1)


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


def envelope_member_mask(A, k, thetas, points, cache=None):
    """Membership of many points at once; returns a boolean array.

    ``points`` is any array of complex coordinates in the unrotated plane.
    A point is a member when g >= -tolerance in every rotated frame.

    The reducer culls: g is evaluated only on the points still alive, and a
    point is dropped at the first angle that rejects it.  Angles are visited
    in bit-reversed order of their position in ``thetas`` (0, m/2, m/4,
    3m/4, ...) so that widely spread angles cull outside points early.  The
    result is the same intersection, bit for bit, whatever the order of
    ``thetas`` and however early a point is dropped.
    """
    a = as_matrix(A)
    pts = np.asarray(points, dtype=np.complex128)
    tol = membership_tolerance(a, k)
    frames = build_frames(a, k, _angle_list(thetas), cache=cache)
    flat = pts.ravel()
    alive = np.arange(flat.size)
    for i in _bit_reversed(len(frames)):
        if alive.size == 0:
            break
        frame = frames[i]
        z = np.exp(1j * frame.theta) * flat[alive]
        alive = alive[g_field(frame, z.real, z.imag) >= -tol]
    member = np.zeros(flat.size, dtype=bool)
    member[alive] = True
    return member.reshape(pts.shape)


def envelope_membership(A, k, thetas, p, cache=None):
    """True when the single point p lies in every rotated allowed region."""
    return bool(envelope_member_mask(A, k, thetas, np.asarray([complex(p)]), cache)[0])


def envelope_margins(A, k, thetas, points, cache=None):
    """Worst-case g per point over the angle set.

    Returns (min_g, worst_theta) arrays; ``min_g >= -tolerance`` is the
    membership criterion.  Unlike the mask variant this never exits early.
    """
    a = as_matrix(A)
    pts = np.asarray(points, dtype=np.complex128)
    min_g = np.full(pts.shape, np.inf)
    worst = np.zeros(pts.shape, dtype=float)
    frames = build_frames(a, k, _angle_list(thetas), cache=cache)
    for frame in frames:
        z = np.exp(1j * frame.theta) * pts
        g = g_field(frame, z.real, z.imag)
        better = g < min_g
        worst = np.where(better, frame.theta, worst)
        min_g = np.where(better, g, min_g)
    return min_g, worst


def _cell_grid(window):
    s, t = window.cell_centers()
    return s[None, :] + 1j * t[:, None]


def envelope_raster(A, k, theta_count, window, cache=None):
    """Envelope membership sampled at every cell center of the window."""
    bits = envelope_member_mask(A, k, theta_grid(theta_count), _cell_grid(window), cache)
    bits.setflags(write=False)
    return RegionRaster(
        window=window, bits=bits, theta_count=int(theta_count), k=int(k), ell=0,
        kind="envelope",
    )


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
    ph = np.exp(1j * thetas)
    h = ph[:, None, None] * a[None, :, :]
    h = 0.5 * (h + _ct(h))
    _, vecs = np.linalg.eigh(h)
    u1 = vecs[:, :, -1]
    z = np.einsum("mi,ij,mj->m", np.conj(u1), a, u1)
    pts = np.column_stack([z.real, z.imag])
    pts.setflags(write=False)

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * max(float(np.max(hi - lo)), 1e-6) + 1e-9
    window = Window(lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
    return CurveSet(
        polylines=(pts,), closed_flags=(True,), window=window, kind="numrange",
    )
