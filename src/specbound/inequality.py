"""Signed evaluation of the spectrum-bounding inequality.

The central scalar field is

    g(s, t) = kappa * lambda_max(M_k) - |det W_k|^2 * (s - delta_{k+1})

with M_k the Hermitian part of det(W_k) adj(W_k*).  Eigenvalues of the
rotated matrix satisfy g >= 0, the zero set of g is the order-k bounding
curve, and replacing lambda_max by lambda_min gives the companion curve.

Two independent closed forms, :func:`cubic_g1` (k = 1) and
:func:`explicit_g2` (k = 2), are kept deliberately separate from the generic
evaluator so each can serve as an oracle for the other in tests.

Every other value of g comes from one vectorized evaluator, :func:`g_field`,
which evaluates g over whole coordinate arrays at once, or at one point, and
is what the tracing and check code calls.  k = 1 and k = 2 use closed forms
for det W_k and the extreme eigenvalue of M_k; k = 3 builds M_k from
spelled-out cofactors and k >= 4 from one batched inverse, det(W_k)
adj(W_k*) = |det W_k|^2 W_k^{-*}, and both call ``eigvalsh``.

The envelope mask needs only the sign of g, and decides it for every order
with one private kernel, :func:`_member`: g >= 0 exactly when the cubic
Hermitian matrix P = kappa diag(delta_j - s) - (s - delta_{k+1}) W_k* W_k is
not negative definite, which LDL* pivots decide without a determinant, an
adjugate or an eigenvalue.  P is homogeneous of degree 3 in (A, z), so the
mask runs it on A/sigma with a fixed slack (see
:func:`specbound.envelope.envelope_member_mask`).  Its constants,
from :func:`_member_constants`, carry a leading angle axis and the kernel is
elementwise, so one call decides a block of angles, each on its own row of
points, exactly as one call per angle would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .frame import _shift_matrix, build_frame
from .linalg import ParameterError, as_matrix, skew_part, _ct

__all__ = [
    "CrossingCondition",
    "g_field",
    "cubic_g1",
    "explicit_g2",
    "g1_constants",
    "g2_constants",
    "union_poly_value",
    "crossing_condition",
]


@dataclass(frozen=True)
class CrossingCondition:
    """Sufficient condition for the k=1 curve to cut inside the k=2 curve."""

    holds: bool
    lhs: float
    rhs: float


# --- vectorized field -------------------------------------------------------

def _product(x, y):
    """x * y for complex scalars or arrays, rounded as the scalar product is.

    NumPy's complex array multiply can round differently from its scalar
    multiply; spelling the product out in real arithmetic gives the scalar
    result for arrays too, so a frame stack and its frames agree bit for bit.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _m2_pieces(c, lam):
    """det W_2 and the three independent entries of M_2 on a grid."""
    w00 = c[..., 0, 0] - lam
    w11 = c[..., 1, 1] - lam
    w01 = c[..., 0, 1]
    w10 = c[..., 1, 0]
    det = w00 * w11 - _product(w01, w10)
    m00 = np.real(det * np.conj(w11))
    m11 = np.real(det * np.conj(w00))
    moff = -0.5 * (det * np.conj(w10) + np.conj(det) * w01)
    return m00, m11, moff, det


# In the products that form M_k, the temporary operand comes first.  NumPy
# turns ``temporary * array`` on large arrays into an in-place product; with
# the temporary on the right it swaps the operands to do so, and the swapped
# complex product rounds differently, so a value of g would depend on how
# many points one call holds.


def _det3(w):
    return (
        (w[..., 1, 1] * w[..., 2, 2] - w[..., 1, 2] * w[..., 2, 1]) * w[..., 0, 0]
        - (w[..., 1, 0] * w[..., 2, 2] - w[..., 1, 2] * w[..., 2, 0]) * w[..., 0, 1]
        + (w[..., 1, 0] * w[..., 2, 1] - w[..., 1, 1] * w[..., 2, 0]) * w[..., 0, 2]
    )


# (-1)^(i+j) for the 3 x 3 cofactors; multiplying by it rounds exactly as an
# integer sign ``(-1) ** (i + j) * minor`` does.
_SIGNS3 = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]])


def _adjugate3(m):
    """adj(m) of 3 x 3 blocks, with adj(m) m = det(m) I.

    Cofactor (i, j) is the 2 x 2 minor without row j and column i, spelled
    out, so no fancy-indexed copy of a minor is made.  The tests keep a
    generic cofactor loop with the same products in the same order, and the
    two agree bit for bit.
    """
    m00, m01, m02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    m10, m11, m12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    m20, m21, m22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    out = np.empty_like(m)
    out[..., 0, 0] = m11 * m22 - m12 * m21
    out[..., 0, 1] = m01 * m22 - m02 * m21
    out[..., 0, 2] = m01 * m12 - m02 * m11
    out[..., 1, 0] = m10 * m22 - m12 * m20
    out[..., 1, 1] = m00 * m22 - m02 * m20
    out[..., 1, 2] = m00 * m12 - m02 * m10
    out[..., 2, 0] = m10 * m21 - m11 * m20
    out[..., 2, 1] = m00 * m21 - m01 * m20
    out[..., 2, 2] = m00 * m11 - m01 * m10
    out *= _SIGNS3
    return out


def _eigvalsh_or_nan(m):
    """Eigenvalues of each Hermitian block of m, all NaN for a block that is not finite.

    ``eigvalsh`` rejects a whole call when one block is not finite (entries
    too large to evaluate); the NaN lets callers report such a field as not
    finite instead.
    """
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        finite = np.isfinite(m).all(axis=(-2, -1))
        ev = np.linalg.eigvalsh(np.where(finite[..., None, None], m, 0.0))
        ev[~finite] = np.nan
        return ev


def g_field(frame, s, t, which="max"):
    """Vectorized g over broadcastable coordinate arrays.

    ``frame`` is a :class:`SpectralFrame`, one angle of a frame stack, or a
    :class:`FrameStack`; for a stack of m angles, ``s`` and ``t`` have a
    leading axis of length m (or 1) that pairs each angle with its points.
    Scalar ``s`` and ``t`` give g at one point.  ``which="min"`` evaluates
    the companion field (lambda_min in place of lambda_max).  A tuple such
    as ``("max", "min")`` gives the fields stacked on a new leading axis,
    from one evaluation of det W_k and M_k; each is the same, bit for bit,
    as its own call.
    """
    sides = (which,) if isinstance(which, str) else tuple(which)
    for side in sides:
        if side not in ("max", "min"):
            raise ParameterError(f"which must be 'max' or 'min', got {side!r}")
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    lam = s + 1j * t
    k = frame.k
    c = _shift_matrix(frame)
    kappa, delta_next = frame.kappa, frame.delta_next
    lead = c.ndim - 2
    if lead:
        # A frame stack: its angle axes lead the point axes, and each frame
        # quantity broadcasts over the points behind them.
        pad = (1,) * (lam.ndim - lead)
        c = c.reshape(c.shape[:lead] + pad + (k, k))
        kappa = np.reshape(kappa, np.shape(kappa) + pad)
        delta_next = np.reshape(delta_next, np.shape(delta_next) + pad)
    if k == 1:
        det = c[..., 0, 0] - lam
        extreme = [np.real(det)] * len(sides)
    elif k == 2:
        m00, m11, moff, det = _m2_pieces(c, lam)
        disc = np.sqrt((m00 - m11) ** 2 + 4.0 * np.abs(moff) ** 2)
        tr = m00 + m11
        del m00, m11, moff  # free the pieces before the extremes of a pair
        extreme = [0.5 * (tr + disc) if side == "max" else 0.5 * (tr - disc)
                   for side in sides]
    else:
        # M_k, the Hermitian part of det(W_k) adj(W_k*), one k x k matrix per point
        w = c - lam[..., None, None] * np.eye(k)
        if k == 3:
            det = _det3(w)
            p = _adjugate3(_ct(w)) * det[..., None, None]
        else:
            # det(W) adj(W*) = |det W|^2 W^{-*}.  Where det W = 0 that is 0, so
            # a singular block is inverted as I, which one batched inverse
            # would otherwise reject for the whole call.
            det = np.linalg.det(w)
            winv = np.linalg.inv(np.where((det == 0)[..., None, None], np.eye(k), w))
            p = _ct(winv) * (det.real ** 2 + det.imag ** 2)[..., None, None]
        ev = _eigvalsh_or_nan(0.5 * (p + _ct(p)))
        extreme = [ev[..., -1] if side == "max" else ev[..., 0] for side in sides]
    lhs = (det.real ** 2 + det.imag ** 2) * (s - delta_next)
    g = np.empty((len(sides),) + lhs.shape)
    for i, e in enumerate(extreme):
        np.subtract(kappa * e, lhs, out=g[i, ...])
    return g[0] if isinstance(which, str) else g


# Slack of the membership kernel in A/sigma units (see _member).
_ETA = 1e-12


def _member_constants(stack, sigma):
    """Constants of :func:`_member` for the stack's matrix over sigma, per angle.

    C = ``_shift_matrix(stack)``, kappa and delta_{k+1} are divided by
    sigma, sigma^2 and sigma, which is exact for a power of two.  As
    C + C* = 2 Delta_k, W*W = C*C - 2 s Delta_k + 2 i t Y_k + |lambda|^2 I:
    diagonal entry j is |C_jj - lambda|^2 plus the squared norm of column j
    off the diagonal, and entry (j, l), j < l, is (C*C)_jl + 2 i t C_jl.
    Returns (theta, delta_{k+1}, kappa, columns, pairs), arrays whose
    leading axis is the angle: ``columns`` is (m, k, 3), holding (Re C_jj,
    Im C_jj, column norm) for each j, and ``pairs`` is (m, k(k-1)/2, 4),
    holding (Re (C*C)_jl, Im (C*C)_jl, 2 Im C_jl, 2 Re C_jl) for each j < l
    in row order.  Index every array with one angle for its scalars, or with
    ``[rows, None]`` for the (b, 1) constants of a block of angles.
    """
    k = stack.k
    c = _shift_matrix(stack) / sigma
    cc = _ct(c) @ c
    j, l = np.triu_indices(k, 1)
    diag = c[:, range(k), range(k)]
    norms = (np.abs(c * (1.0 - np.eye(k))) ** 2).sum(axis=1)
    columns = np.stack([diag.real, diag.imag, norms], axis=-1)
    pairs = np.stack([cc.real[:, j, l], cc.imag[:, j, l], 2.0 * c.imag[:, j, l],
                      2.0 * c.real[:, j, l]], axis=-1)
    return stack.theta, stack.delta_next / sigma, stack.kappa / sigma / sigma, columns, pairs


def _member(const, s, t):
    """g >= 0 at the points s + i t, as a boolean array.

    Where det W_k != 0, M_k = |det W|^2 W^{-*} D W^{-1} with D = diag(delta_j
    - s), so by Sylvester's law of inertia g >= 0 exactly when P = kappa D -
    (s - delta_{k+1}) W*W is not negative definite; where det W_k = 0, g = 0
    and P is not negative definite either.  P needs no determinant and is
    homogeneous of degree 3 in (A, z).  With ``const`` from
    :func:`_member_constants`, in A/sigma units, the point is a member unless
    Q = -(P + _ETA I) is positive definite, which the unpivoted LDL* pivots
    of Q decide, in real arithmetic on its upper triangle.  Pivots are
    ratios, so they stay finite wherever Q does; a point where Q is not
    finite, as the sum of its entries tells, is not a member.  The slack
    keeps boundary points: eigenvalues of normal matrices lie on the curves,
    and with no slack some fell short by up to 1.9e-14.

    Every operation is elementwise, so the constants broadcast against the
    points: one angle's scalars with any array of points, or the (b, 1)
    constants of a block of b angles with (b, p) points, row i being the
    points rotated by angle i.  Each element is the same, bit for bit, as
    the one-angle call on that point.

    The entries, the finiteness sum and the Schur updates are formed in
    place, each temporary freed once it is consumed, so a call allocates a
    few arrays instead of one per operation.  They are the operations of the
    formulas in the comments below, in the same association: only the
    operands of a real product or sum are swapped, which IEEE arithmetic
    rounds the same, so every entry and pivot is the one the formulas give.
    Two steps are shortened without changing a verdict: the finiteness sum
    leaves out the leading 0 of Python's ``sum``, which changes at most the
    sign of a zero sum, and "every pivot is positive" is read as "the least
    pivot is positive", with ``np.minimum`` keeping a NaN pivot.  The tests
    keep the kernel written as expressions and compare the verdicts.
    """
    _, dnext, kappa, columns, pairs = const
    if np.ndim(s) == 0 or np.shape(s) != np.shape(t):
        # in-place steps need every temporary to be an array of the result's
        # shape; 0-d points would give NumPy scalars, which take no out=
        shape = np.broadcast_shapes(np.shape(s), np.shape(t), np.shape(dnext))
        s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
        return _member(const, s, t).reshape(shape)
    k = columns.shape[-2]
    re, im = {}, {}
    with np.errstate(all="ignore"):
        x = s - dnext
        for j in range(k):
            delta, imag, norm = (columns[..., j, i] for i in range(3))
            # x ((s - delta)^2 + (t - imag)^2 + norm) + kappa (s - delta) - _ETA
            d = s - delta
            e = t - imag
            e *= e
            q = d * d
            q += e
            del e
            q += norm
            q *= x
            d *= kappa
            q += d
            del d
            q -= _ETA
            re[j, j] = q
        for n, jl in enumerate(combinations(range(k), 2)):
            ccr, cci, yi, yr = (pairs[..., n, i] for i in range(4))
            # x (ccr - yi t) and x (cci + yr t)
            qr = yi * t
            np.subtract(ccr, qr, out=qr)
            qr *= x
            qi = yr * t
            qi += cci
            qi *= x
            re[jl], im[jl] = qr, qi
        del x
        # Q is finite where sum(re.values()) + sum(im.values()) is, the sums
        # added in that order; leaving out sum()'s leading 0 can change only
        # the sign of a zero sum
        total = _summed(list(re.values()))
        if im:
            total += _summed(list(im.values()))
        finite = np.isfinite(total)
        # the sum's array serves as scratch of the Schur updates
        u, v = (total, np.empty_like(total)) if k > 1 else (None, None)
        low = None
        for j in range(k):
            p = re.pop((j, j))
            ratio = {l: (re[j, l] / p, im[j, l] / p) for l in range(j + 1, k)}
            # every pivot is positive exactly where the least one is, and
            # np.minimum keeps a NaN pivot, which is not positive either
            low = p if low is None else np.minimum(low, p, out=low)
            for i, l in combinations_with_replacement(ratio, 2):
                # the Schur complement: Q_il -= conj(Q_ji) Q_jl / Q_jj
                (ar, ai), (br, bi) = (re[j, i], im[j, i]), ratio[l]
                np.multiply(ar, br, out=u)
                np.multiply(ai, bi, out=v)
                u += v
                re[i, l] -= u
                if i < l:
                    np.multiply(ar, bi, out=u)
                    np.multiply(ai, br, out=v)
                    u -= v
                    im[i, l] -= u
            for l in ratio:
                del re[j, l], im[j, l]
            del ratio
        # finite & ~definite, as booleans compare
        return np.less(low > 0.0, finite)


def _summed(values):
    """values[0] + values[1] + ..., in a new array unless there is one value."""
    if len(values) == 1:
        return values[0]
    total = values[0] + values[1]
    for value in values[2:]:
        total += value
    return total


# --- closed-form oracles ----------------------------------------------------

def g1_constants(frame):
    """(alpha, K_1) computed from S(a_rot) and the top eigenvector directly."""
    if frame.k != 1:
        raise ParameterError("g1_constants requires a k=1 frame")
    sk = skew_part(frame.a_rot)
    u1 = frame.u[:, 0]
    su1 = sk @ u1
    alpha = float(np.imag(np.vdot(u1, su1)))
    k1 = float(np.real(np.vdot(su1, su1))) - alpha ** 2
    return alpha, k1


def cubic_g1(frame, s, t):
    """Closed-form k=1 value K_1 (d1 - s) - [(d1 - s)^2 + (alpha - t)^2](s - d2).

    Sign-consistent with :func:`g_field` on k=1 frames (same zero set); kept
    on an independent code path so the two can check each other.
    """
    alpha, k1 = g1_constants(frame)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    d1 = float(frame.deltas[0])
    d2 = float(frame.deltas[1])
    return k1 * (d1 - s) - ((d1 - s) ** 2 + (alpha - t) ** 2) * (s - d2)


def g2_constants(frame):
    """(alpha, beta, gamma, K_2) for the explicit k=2 form.

    K_2 comes out of the Gram radical in terms of S u_1 and S u_2, not from
    the singular value stored on the frame, so this route stays independent
    of the generic evaluator.
    """
    if frame.k != 2:
        raise ParameterError("g2_constants requires a k=2 frame")
    sk = skew_part(frame.a_rot)
    u1 = frame.u[:, 0]
    u2 = frame.u[:, 1]
    su1 = sk @ u1
    su2 = sk @ u2
    alpha = float(np.imag(np.vdot(u1, su1)))
    beta = float(np.imag(np.vdot(u2, su2)))
    gamma = complex(np.vdot(u2, su1))
    n1 = float(np.real(np.vdot(su1, su1)))
    n2 = float(np.real(np.vdot(su2, su2)))
    cross = complex(np.vdot(su2, su1)) + 1j * gamma * (alpha + beta)
    k2 = 0.5 * (
        n1 + n2 - alpha ** 2 - beta ** 2 - 2.0 * abs(gamma) ** 2
        + np.sqrt((n1 - n2 - alpha ** 2 + beta ** 2) ** 2 + 4.0 * abs(cross) ** 2)
    )
    return alpha, beta, gamma, float(k2)


def explicit_g2(frame, s, t):
    """Closed-form k=2 value from alpha, beta, gamma, K_2 and m_1, m_2, m_3."""
    alpha, beta, gamma, k2 = g2_constants(frame)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    d1, d2, d3 = (float(x) for x in frame.deltas[:3])
    a = d1 - s
    b = d2 - s
    at = alpha - t
    bt = beta - t
    gsq = abs(gamma) ** 2
    det_sq = (a * b - at * bt + gsq) ** 2 + (a * bt + b * at) ** 2
    m1 = a * (b ** 2 + bt ** 2) + b * gsq
    m3 = b * (a ** 2 + at ** 2) + a * gsq
    m2_sq = gsq * (a * bt + b * at) ** 2
    lam_max = 0.5 * (m1 + m3 + np.sqrt((m1 - m3) ** 2 + 4.0 * m2_sq))
    return k2 * lam_max - det_sq * (s - d3)


def union_poly_value(frame, s, t):
    """Polynomial whose zero set is the union of the two k=2 curves.

    4 D^2 x^2 - 4 kappa tr(M_2) D x + 4 kappa^2 det(M_2) with D = |det W_2|^2
    and x = s - delta_3; it vanishes wherever either g or its lambda_min
    companion vanishes.
    """
    if frame.k != 2:
        raise ParameterError("union_poly_value requires a k=2 frame")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    m00, m11, moff, det = _m2_pieces(_shift_matrix(frame), s + 1j * t)
    dsq = det.real ** 2 + det.imag ** 2
    tr = m00 + m11
    det_m = m00 * m11 - np.abs(moff) ** 2
    x = s - frame.delta_next
    kap = frame.kappa
    return 4.0 * dsq ** 2 * x ** 2 - 4.0 * kap * tr * dsq * x + 4.0 * kap ** 2 * det_m


def crossing_condition(A):
    """Test ||v_1||^2 < K_2 (d1 - d2)/(d1 + d2 - 2 d3) on a real matrix.

    When it holds, the k=1 curve is more restrictive than the k=2 curve
    somewhere in the band d2 < s < d1 (evaluated at s = (d1 + d2)/2).  The
    derivation assumes real entries, so complex input is rejected.
    """
    a = as_matrix(A)
    if np.any(a.imag != 0.0):
        raise ParameterError("crossing_condition is defined for real matrices only")
    if a.shape[0] < 3:
        raise ParameterError("crossing_condition needs a matrix of size at least 3")
    fr = build_frame(a, 2, 0.0)
    v1 = fr.v_k[:, 0]
    v2 = fr.v_k[:, 1]
    n1 = float(np.real(np.vdot(v1, v1)))
    n2 = float(np.real(np.vdot(v2, v2)))
    c12 = abs(complex(np.vdot(v2, v1))) ** 2
    k2 = 0.5 * (n1 + n2 + np.sqrt((n1 - n2) ** 2 + 4.0 * c12))
    d1, d2 = float(fr.deltas[0]), float(fr.deltas[1])
    d3 = fr.delta_next
    denom = d1 + d2 - 2.0 * d3
    rhs = k2 * (d1 - d2) / denom if denom > 0.0 else 0.0
    return CrossingCondition(holds=bool(n1 < rhs), lhs=n1, rhs=float(rhs))
