"""Rotation envelopes, numerical range and rank numerical ranges.

The allowed region of one frame (g >= 0) bounds the rotated spectrum; the
envelope region is the intersection of those regions over a sample of
rotation angles, pulled back to the original plane.  With finitely many
angles the intersection can only be too large, never too small, so
eigenvalue containment holds at any angle count.

Membership is decided on the normalised problem A/sigma, z/sigma with
sigma = 2^round(log2 max|a_ij|) from :func:`specbound.linalg._normalised`, a
power of two, so dividing by it is exact and the regions of 2^e A are those
of A scaled by 2^e, bit for bit.  The order-k test is the sign-only kernel
of :mod:`specbound.inequality` with a slack of 1e-12 in A/sigma units, the
same for every order, run on a block of angles per call; the half-plane cut
of the rank numerical ranges has the slack 1e-9 (1 + max|A/sigma|) in the
same units.  Every envelope lies in the numerical range W(A), the
intersection of the half-planes Re(e^{i theta} z) <= delta_1(theta), so
:func:`envelope_raster` first cuts each raster row to the interval of
cells that every sampled half-plane, widened by a margin, keeps, and runs
the kernel only there; a cell the cut drops is one the kernel would
reject, so the bits are those of the mask on every cell.

Regions are reported as boolean rasters rather than polygons because the
envelope need not be convex or even connected.  :func:`envelope_overlays`
draws the order-k curve of every rotated frame in the same (unrotated)
plane, for figures that show how the envelope is cut out; each angle is one
item of the sampler and tracer of :mod:`specbound.trace`, whose budgets
bound the nodes per field call and the angles per marching-squares pass.
g is evaluated only at the nodes that the angle's rotated band
delta_{k+1} <= c s - d t <= delta_1, widened by two cell diagonals, can
reach in each row, and never for an angle whose band misses every node of
the grid.
:func:`envelope_margins` evaluates g on blocks of (angle, point) pairs
under the same pair budget.  :func:`rank_numrange_raster` cuts each raster
row by each half-plane as an interval: the members of a row form a prefix
or a suffix of it, ending where the cell centers cross the quotient at
which the half-plane's boundary meets the row.  Each (angle, row) pair's
length comes from a binary search of that quotient and is proved by testing
the two cells at its end with the same complex product as a test of every
cell; the rare pairs that fail the proof are bisected with that product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import (
    _antipode,
    _check_order,
    _rotated_hermitian,
    _solved_chunks,
    build_frames,
    rotation_spectra,
)
from .inequality import _member, _member_constants, g_field
from .linalg import ParameterError, _divided, _normalised, as_matrix, max_abs
from .trace import (
    CurveSet,
    Window,
    _band_runs,
    _field_points,
    _joined,
    _trace_grid,
)

__all__ = [
    "RegionRaster",
    "theta_grid",
    "membership_tolerance",
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
    """Slack on g, 1e-9 (1 + max|entry|)^(2k+1), for reading g margins.

    ``check`` compares its margins with it, on A/sigma (see the CLI), and
    the benchmark checks its outputs with it.  The envelope mask does not
    use it: it decides membership from the sign-only kernel with its own
    scale-free slack.  The slack is absolute, so it only means something
    for a matrix whose largest entry is near 1.  Raises ParameterError for
    an order outside 1..n-1 and OverflowError when the entries are too
    large for the power.
    """
    a = np.asarray(A)
    _check_order(int(k), a.shape[0])
    return 1e-9 * (1.0 + max_abs(a)) ** (2 * k + 1)


def _angle_list(thetas):
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ParameterError("need at least one rotation angle")
    return thetas


def _frames(a, k, thetas, stack):
    """``build_frames(a, k, thetas)``, or ``stack`` when the caller has it.

    Raises ParameterError when ``stack`` holds another order than k, or
    other angles than exactly ``thetas`` in order, which would silently
    replace the given ones.
    """
    thetas = _angle_list(thetas)
    if stack is None:
        return build_frames(a, k, thetas)
    if stack.k != k or not np.array_equal(stack.theta, thetas):
        raise ParameterError("the frame stack must hold order k at exactly the given angles")
    return stack


def _bit_reversed(m):
    """0..m-1 in bit-reversed order: 0, m/2, m/4, 3m/4, ... (padded to 2^j)."""
    bits = (m - 1).bit_length()
    idx = np.arange(1 << bits)
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev[rev < m]


# (angle, point) pairs per membership call of envelope_member_mask.  Below
# the field's 2^14: on the benchmark's k = 3 rasters 2^12 was the fastest
# budget, and 2^14 raised their peak memory by about 5%.
_MASK_BLOCK_PAIRS = 2 ** 12


def _kernel_setup(A, k, thetas, stack):
    """(A/sigma, sigma, frames, scale): the normalised matrix and the frames of the mask.

    The frames are ``stack`` when the caller has it, in the units of A, and
    scale is sigma; else they are built for A/sigma and scale is 1.  Frame
    quantities divided by scale are in A/sigma units.
    """
    a, sigma = _normalised(as_matrix(A))
    scale = 1.0 if stack is None else sigma
    return a, sigma, _frames(a, k, thetas, stack), scale


def _culled(const, flat):
    """Members among the 1-d array ``flat`` of A/sigma points: the culling loop of the mask."""
    alive = np.arange(flat.size)
    order = _bit_reversed(len(const[0]))
    while alive.size and order.size:
        step = max(1, _MASK_BLOCK_PAIRS // alive.size)
        rows, order = order[:step], order[step:]
        # A lone angle gets scalar constants and a flat row: on large point
        # sets that call is 5-10% faster than with (1, 1) columns.
        rows = rows[0] if rows.size == 1 else rows[:, None]
        z = np.exp(1j * const[0][rows]) * flat[alive]
        member = _member([c[rows] for c in const], z.real, z.imag)
        alive = alive[member.reshape(-1, alive.size).all(axis=0)]
    member = np.zeros(flat.size, dtype=bool)
    member[alive] = True
    return member


def envelope_member_mask(A, k, thetas, points, stack=None):
    """Membership of many points at once; returns a boolean array.

    ``points`` is any array of complex coordinates in the unrotated plane.
    A point is a member when g >= 0 in every rotated frame, decided for
    A/sigma and z/sigma with sigma = 2^round(log2 max|a_ij|): P + eta I must
    not be negative definite, with P the cubic Hermitian matrix whose
    inertia gives the sign of g and eta = 1e-12 (see
    :func:`specbound.inequality._member`).  No determinant or eigenvalue is
    computed, every order takes the same path, and the result is the same,
    bit for bit, for 2^e A and 2^e z as for A and z.  A point where the test
    is not finite is not a member.  ``stack`` is ``build_frames(A, k,
    thetas)`` when the caller already has it; it is rescaled by sigma, not
    solved again, and ParameterError is raised unless it holds order k at
    exactly ``thetas``.  Without it the frames of A/sigma are built.

    The reducer culls: the test runs only on the points still alive, a
    block of angles per kernel call, and the points that some angle of the
    block rejects are dropped before the next block.  Angles are visited in
    bit-reversed order of their position in ``thetas`` (0, m/2, m/4, 3m/4,
    ...) so that widely spread angles cull outside points early.  A block
    is the next max(1, _MASK_BLOCK_PAIRS // live) angles of that order, so
    one call holds at most ``_MASK_BLOCK_PAIRS`` (angle, point) pairs unless
    a single angle has more live points: the first blocks of a large raster
    are one angle each, and once few points survive, one call tests them at
    many angles.  The result is the same intersection, bit for bit, whatever
    the order of ``thetas``, the block sizes and however early a point is
    dropped.  Every point given is tested; :func:`envelope_raster`, whose
    points form a grid, first drops the cells outside the numerical range's
    half-planes without the kernel.
    """
    _, sigma, frames, scale = _kernel_setup(A, k, thetas, stack)
    const = _member_constants(frames, scale)
    flat = _divided(points, sigma).ravel()
    return _culled(const, flat).reshape(np.shape(points))


def envelope_margins(A, k, thetas, points, stack=None):
    """Worst-case g per point over the angle set.

    Returns (min_g, worst_theta) arrays shaped like ``points``;
    ``min_g >= -tolerance`` is the membership criterion.  ``worst_theta``
    is the first angle, in ``thetas`` order, at which g attains the minimum.
    ``stack`` is ``build_frames(A, k, thetas)`` when the caller already has
    it, checked as in :func:`envelope_member_mask`.  Unlike the mask variant
    this never exits early: g is evaluated on (angle, point) arrays, a block
    of angles at a time, so memory stays bounded for large point sets.
    Raises FloatingPointError when g is not finite at some angle and point
    (matrix entries too large to evaluate).
    """
    a = as_matrix(A)
    pts = np.asarray(points, dtype=np.complex128)
    stack = _frames(a, k, thetas, stack)
    flat = pts.ravel()
    min_g = np.full(flat.size, np.inf)
    worst = np.zeros(flat.size, dtype=float)
    columns = np.arange(flat.size)
    step = max(1, _field_points(stack.k) // max(flat.size, 1))
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


def _cut_margin(norm, size):
    """Margin mu of the half-plane cut for points with |z| <= ``size``, in A/sigma units.

    ``norm`` is the Frobenius norm of A/sigma, which bounds |delta_j| and
    the norm of C = Delta_k + Y_k at every angle and order; see
    :func:`envelope_raster` for why 1e-3 (1 + norm + |z|) suffices.
    """
    return 1e-3 * (1.0 + norm + size)


def _half_plane_columns(theta, delta1, norm, s, t):
    """(first, stop): per row, the cells that no half-plane of the numerical range excludes.

    ``s`` holds the cell-center abscissae (non-decreasing) and ``t`` the
    ordinates of the rows, in A/sigma units; ``theta`` the angles and
    ``delta1`` delta_1 of each, over sigma.  Row r keeps the columns
    first[r] <= j < stop[r]: the cells whose rotated abscissa x = c s_j -
    d t_r, with c + i d = e^{i theta}, is at most delta_1 + mu_r at every
    angle, mu_r = :func:`_cut_margin` of max|s| + |t_r|.  At one angle and
    row that is a prefix of the row when c > 0 and a suffix when c < 0,
    bounded where s_j crosses (delta_1 + mu_r + d t_r) / c; an angle with
    c = 0 keeps the whole row.  The bounds of every (row, angle) pair come
    from one array per sign of c, and a row keeps the intersection of its
    intervals: the cells up to the least prefix bound and from the greatest
    suffix bound.
    """
    ph = np.exp(1j * theta)
    c, d = ph.real, ph.imag
    column = t[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        mu = _cut_margin(norm, np.abs(s).max() + np.abs(column))
        bound = [((delta1[side] + mu + d[side] * column) / c[side])
                 for side in (c > 0.0, c < 0.0)]
    stop = np.searchsorted(s, bound[0].min(axis=1, initial=np.inf), side="right")
    first = np.searchsorted(s, bound[1].max(axis=1, initial=-np.inf), side="left")
    return first, stop


def _kept_cells(first, stop):
    """(rows, cols) of the cells first[r] <= j < stop[r], row-major as np.nonzero lists them."""
    width = np.maximum(stop - first, 0)
    rows = np.repeat(np.arange(width.size), width)
    return rows, np.arange(width.sum()) + np.repeat(first - np.cumsum(width) + width, width)


def envelope_raster(A, k, theta_count, window, stack=None):
    """Envelope membership sampled at every cell center of the window.

    ``stack`` is ``build_frames(A, k, theta_grid(theta_count))`` when the
    caller already has it, checked as in :func:`envelope_member_mask`.  The
    bits are those of :func:`envelope_member_mask` on every cell center,
    bit for bit, but the kernel runs only on the cells inside the
    half-planes Re(e^{i theta} z) <= delta_1(theta) + mu of the numerical
    range W(A), a few columns per row (see :func:`_half_plane_columns`);
    every other cell is 0 without a kernel call.  A window that misses W(A)
    calls the kernel on no cell.

    Why the cut is exact.  In A/sigma units, at an angle theta, let x be the
    rotated abscissa of a point z and x >= delta_1 + mu/2, with mu =
    1e-3 (1 + nu + |z|) and nu = |A/sigma|_F.  W_k = C - (x + i y) I has the
    Hermitian part Delta_k - x I <= -(x - delta_1) I, so sigma_min(W_k) >=
    x - delta_1, and the kernel's Q = -(P + eta I) = (x - delta_{k+1}) W_k*
    W_k + kappa diag(x - delta_j) - eta I satisfies Q >= ((x - delta_{k+1})
    (x - delta_1)^2 + kappa (x - delta_1) - eta) I >= ((mu/2)^3 - eta) I,
    at every order and for kappa = 0 too.  So Q is positive definite and
    the point is not a member at theta.  The mask is the AND over the
    angles, so which angle rejects a cell does not change its bit.

    Rounding.  The kernel rounds the entries of Q with errors of a few
    units u = 2^-53 of (x - delta_{k+1}) (nu + |z|)^2 and of the kappa
    terms, and its LDL* pivots stay positive while the least eigenvalue of
    the diagonally scaled Q exceeds a small multiple of k^2 u.  Since |C|,
    |delta_j| <= nu, that eigenvalue is at least about (mu/2)^2 / (nu +
    |z|)^2 >= 2.5e-7 (mu/2 / (mu/2 + 2 nu) >= 2.5e-4 for the kappa part), far
    above it.  The cut itself compares each s_j with a bound computed from
    delta_1, mu and d t_r, each at most 1000 mu, so rounding moves the cut
    by less than 1e-12 mu; cells from delta_1 + mu on are dropped, and the
    kernel rejects from delta_1 + mu/2 on.  Every rounding thus errs on the
    side of keeping a cell, and a point whose Q is not finite is not a
    member either way.
    """
    a, sigma, frames, scale = _kernel_setup(A, k, theta_grid(theta_count), stack)
    const = _member_constants(frames, scale)
    s, t = window.cell_centers()
    first, stop = _half_plane_columns(const[0], frames.deltas[:, 0] / scale,
                                      np.linalg.norm(a), s / sigma, t / sigma)
    rows, cols = _kept_cells(first, stop)
    bits = np.zeros((window.rows, window.cols), dtype=bool)
    # s_j + i t_r rounds as the grid s + i t[:, None] of every cell does
    bits[rows, cols] = _culled(const, _divided(s[cols] + 1j * t[rows], sigma))
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


# (angle, row) pairs per block of rank_numrange_raster.
_RANK_BLOCK_PAIRS = 2 ** 16


def envelope_overlays(stack, window):
    """The order-k curve of every frame of the stack, drawn in the window's plane.

    The curve of the frame at angle theta is the zero set of
    z -> g(e^{i theta} z), so it is traced on the window itself and its
    vertices meet the window edges exactly.  Each curve is traced on one node
    grid at half the raster resolution, max(2, ceil(cols/2)) x
    max(2, ceil(rows/2)) nodes, because an overlay is drawn as a thin line
    over the raster.  Each angle is an item of the tracer in
    :mod:`specbound.trace`, which packs the angles into field calls of
    bounded size, one row of nodes per angle, so each angle's frame
    constants broadcast over its own row, and traces a block of angles per
    marching-squares pass.  Saddle cells are resolved at e^{i theta} times
    the cell center.

    The curve at theta lies in the band delta_{k+1} <= c s - d t <= delta_1,
    with c + i d = e^{i theta}, where M_k is congruent to diag(delta_j - (c
    s - d t)): g > 0 left of it and < 0 right of it.  In each node row the
    angle is sampled only on the run of nodes within two cell diagonals of
    the band, computed from c s - d t as :func:`_rotate` rounds it (see
    :func:`specbound.trace._band_runs`); a cell with a corner outside the
    run lies wholly on one side of the band, so it is inactive.  An angle
    whose band, not widened, misses every node of the grid has no run, as g
    has one sign on all its nodes, so g is evaluated nowhere for it.
    Without that, on a window 1e150 wide, the angles nearest pi/2, whose
    rotated abscissae are about 1e-16 of the coordinates, would be evaluated
    within the widened band and overflow.  The curves come in angle order
    and are the same, bit for bit, whatever the block sizes, and the same
    as evaluating g at every node wherever g is finite.  Raises
    FloatingPointError when g is not finite at some evaluated node.
    """
    grid = Window(window.s_min, window.s_max, window.t_min, window.t_max,
                  cols=max(2, (window.cols + 1) // 2), rows=max(2, (window.rows + 1) // 2))
    ph = np.exp(1j * stack.theta)
    runs = _band_runs(grid, stack.delta_next, stack.deltas[:, 0], ph.real, ph.imag)

    def sample(lo, hi, s, t):
        block = stack[lo:hi]
        return g_field(block, *_rotate(block.theta[:, None], s, t))

    curves = _trace_grid(grid, len(stack), sample, ["overlay"] * len(stack), runs, stack.k)
    return _joined(curves, window, "overlay")


def _passes(phase, jt, cut, prefix, s, at):
    """Whether the cell ``at`` cells in from each pair's edge passes the pair's half-plane.

    The edge is the left one for a prefix pair and the right one otherwise;
    a cell beyond either end of the row is taken at that end.  The test is
    that of every cell, the real part of the complex product e^{i theta}
    (s_j + i t_r) against the cut.
    """
    return (phase * (s.take(np.where(prefix, at, s.size - 1 - at), mode="clip") + jt)).real <= cut


def _bisected(phase, jt, cut, prefix, s):
    """Per pair, the count of cells that pass, found one bit at a time from the top."""
    count = np.zeros(phase.shape, dtype=np.intp)
    for bit in reversed(range(s.size.bit_length())):
        wider = np.minimum(count + (1 << bit), s.size)
        count = np.where(_passes(phase, jt, cut, prefix, s, wider - 1), wider, count)
    return count


def rank_numrange_raster(A, ell, theta_count, window):
    """Raster of the rank-ell numerical range (intersection of half-planes).

    Level ell = 1 is the half-plane approximation of the numerical range
    itself; higher levels use the ell-th eigenvalue of the rotated Hermitian
    part as the cut.

    A cell (row r, column j) is a member when, at every angle theta,
    Re(e^{i theta} (s_j + i t_r)) <= delta_ell(theta) + tol, with the
    product rounded as NumPy's complex array product rounds it.  In one row
    and at one angle that real part is monotone in s_j (rounding is
    monotone and the cell centers increase), so the members form a prefix
    of the row when c = cos theta >= 0 and a suffix otherwise, and a row's
    members are the intersection of its intervals.  The (angle, row) pairs
    are taken in blocks of at most ``_RANK_BLOCK_PAIRS``.

    Each pair's count comes from one quotient.  In exact arithmetic the
    test c s - d t <= cut, with d = sin theta and cut = delta_ell + tol,
    changes sign where s crosses q = (cut + d t) / c, so the candidate count
    is the number of cell centers below q, found by a binary search of the
    sorted centers, for a prefix, and the rest for a suffix.  The candidate
    is then checked with the product and comparison of the test itself: the
    last cell it keeps must pass, unless it keeps none, and the first it
    drops must fail, unless it drops none.  As the rounded test is monotone
    along the row, those two cells prove that the count is the one a test of
    every cell gives, however the quotient itself was rounded.  A pair whose
    candidate fails the check, as when a cell center lies within a few
    rounding errors of q, |c| is about 6e-17 or q is not finite, is counted
    by bisection instead, with the same product per probe; only those pairs
    are bisected.  The cut is made on A/sigma and the cell centers over
    sigma, as in :func:`envelope_member_mask`, with the slack tol = 1e-9
    (1 + max|A/sigma|).
    """
    a, sigma = _normalised(as_matrix(A))
    n = a.shape[0]
    if not 1 <= ell <= n:
        raise ParameterError(f"rank level must satisfy 1 <= ell <= {n}, got {ell}")
    thetas = theta_grid(theta_count)
    spectra = rotation_spectra(a, thetas)
    s, t = window.cell_centers()
    s, t = s / sigma, t / sigma
    cols = s.size
    jt = 1j * t
    tol = 1e-9 * (1.0 + max_abs(a))
    first = np.zeros(t.size, dtype=np.intp)
    stop = np.full(t.size, cols)
    step = max(1, _RANK_BLOCK_PAIRS // t.size)
    for lo in range(0, thetas.size, step):
        phase = np.exp(1j * thetas[lo:lo + step])[:, None]
        cut = (spectra[lo:lo + step, ell - 1] + tol)[:, None]
        prefix = phase.real >= 0.0
        # Per (angle, row) pair, the number of cells of the row that pass the
        # angle's test, counted from the left edge for a prefix and from the
        # right edge for a suffix.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = (cut + phase.imag * t) / phase.real
        left = np.searchsorted(s, q)
        count = np.where(prefix, left, cols - left)
        bad = ~(((count == 0) | _passes(phase, jt, cut, prefix, s, count - 1))
                & ((count == cols) | ~_passes(phase, jt, cut, prefix, s, count)))
        if bad.any():
            pairs = [x[bad] for x in np.broadcast_arrays(phase, jt, cut, prefix)]
            count[bad] = _bisected(*pairs, s)
        first = np.maximum(first, np.where(prefix, 0, cols - count).max(axis=0))
        stop = np.minimum(stop, np.where(prefix, count, cols).min(axis=0))
    column = np.arange(cols)
    bits = (column >= first[:, None]) & (column < stop[:, None])
    bits.setflags(write=False)
    return RegionRaster(
        window=window, bits=bits, theta_count=int(theta_count), k=0, ell=int(ell),
        kind="rank_numrange",
    )


def _top_rayleigh(a, v):
    """u* A u for the last eigenvector u of each angle (eigh's order: the top one)."""
    u1 = v[:, :, -1]
    return np.einsum("mi,ij,mj->m", np.conj(u1), a, u1)


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

    def reduce(solved, paired):
        w, v = solved
        # the top eigenvector at theta + pi is the bottom one at theta
        return _top_rayleigh(a, v), _top_rayleigh(a, _antipode(w, v)[1]) if paired else None

    def solve(chunk_thetas):
        return np.linalg.eigh(_rotated_hermitian(a, chunk_thetas)[1])

    for chunk, opposite, (top, bottom) in _solved_chunks(thetas, a.shape[0], solve, reduce):
        z[chunk] = top
        if opposite is not None:
            z[opposite] = bottom
    pts = np.column_stack([z.real, z.imag])
    pts.setflags(write=False)

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * max(float(np.max(hi - lo)), 1e-6) + 1e-9
    # Python floats, which the SVG writer's !r formats as plain numbers
    (s_min, t_min), (s_max, t_max) = (lo - pad).tolist(), (hi + pad).tolist()
    window = Window(s_min, s_max, t_min, t_max)
    return CurveSet(
        polylines=(pts,), closed_flags=(True,), window=window, kind="numrange",
    )
