"""Named demo matrices, seeded random ensembles and diagonal-case analytics.

The named constructors build the small matrices used throughout the test
suite and the command line.  The block-diagonal-style entries (pair_A,
pair_B, matrix_C, matrix_F, a_hat) have a diagonal leading block in the
rotated-frame sense, which makes their bounding curves piecewise cubic and
analyzable in closed form; the helpers at the bottom of this module
(epsilon thresholds, real-axis crossings, region index, cubic prediction)
implement exactly that analysis and double as independent test oracles.

Random ensembles use SplitMix64, a seeded generator with 64 bits of state,
so test corpora reproduce bit-for-bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import ParameterError

__all__ = [
    "MatrixSpec",
    "DiagonalCaseReport",
    "GALLERY",
    "build_matrix",
    "gallery_entries",
    "splitmix64_uniforms",
    "epsilon_thresholds",
    "s_pm",
    "region_index",
    "simultaneous_merge_deltas",
    "diagonal_gamma_prediction",
    "diagonal_case_report",
]


# --- seeded random source ----------------------------------------------------

_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def splitmix64_uniforms(seed, count):
    """``count`` doubles in [0, 1) from the SplitMix64 stream of ``seed``.

    Output i is derived from state seed + (i+1)*golden_gamma mod 2^64 through
    the standard two-multiply finalizer; the top 53 bits become the double.
    """
    idx = np.arange(1, int(count) + 1, dtype=np.uint64)
    z = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF) + idx * _U64(_SM64_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(_SM64_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_SM64_MIX2)
    z = z ^ (z >> _U64(31))
    return (z >> _U64(11)).astype(np.float64) * 2.0 ** -53


def _symmetric_uniforms(seed, count):
    return 2.0 * splitmix64_uniforms(seed, count) - 1.0


# --- named constructors ------------------------------------------------------

def _toeplitz_demo():
    return np.array(
        [[1, 1, 0, 1j], [2, 1, 1, 0], [3, 2, 1, 1], [4, 3, 2, 1]],
        dtype=np.complex128,
    )


def _a_tilde():
    return np.array([[3, 0, -2], [0, 1, -4], [2, 4, 0]], dtype=np.complex128)


def _a_hat():
    return np.array(
        [[2, 0, 0, -1.01], [0, 1, 0, 0], [0, 0, 0, -1], [1.01, 0, 1, 0]],
        dtype=np.complex128,
    )


def _pair(d1, eps):
    return np.array(
        [
            [d1, 0, 0, -eps / 2],
            [0, 1, -eps, 0],
            [0, eps, 0, -0.25],
            [eps / 2, 0, 0.25, 0],
        ],
        dtype=np.complex128,
    )


def _matrix_c(eps):
    e = eps / np.sqrt(2.0)
    return np.array(
        [
            [941 / 580, 0, 0, 0, 0, -e],
            [0, 29 / 20, 0, 0, -e, 0],
            [0, 0, 5 / 4, 0, 0, -e],
            [0, 0, 0, 1, -e, 0],
            [0, e, 0, e, 0, -0.25],
            [e, 0, e, 0, 0.25, 0],
        ],
        dtype=np.complex128,
    )


def _matrix_f(eps1, eps2):
    return np.array(
        [
            [5, -eps2, 0, 0],
            [eps2, 5, -eps1, 0],
            [0, eps1, 0, -1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )


def _matrix_a1():
    return np.array(
        [
            [14 + 19j, -4 - 1j, -55 - 13j, -32 + 13j],
            [27 + 2j, 14 - 25j, 64, 72],
            [54 + 1j, 47 - 3j, 14 + 44j, -32 - 42j],
            [76, 73, 4 - 2j, -11 + 24j],
        ],
        dtype=np.complex128,
    )


def _frank(n):
    if n < 1:
        raise ParameterError("frank size must be positive")
    a = np.zeros((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j <= i - 2:
                continue
            a[i - 1, j - 1] = n + 1 - i if j == i - 1 else n + 1 - j
    return a


def _random_real(n, seed):
    if n < 1:
        raise ParameterError("random matrix size must be positive")
    return _symmetric_uniforms(seed, n * n).reshape(n, n).astype(np.complex128)


def _random_complex(n, seed):
    if n < 1:
        raise ParameterError("random matrix size must be positive")
    u = _symmetric_uniforms(seed, 2 * n * n)
    return (u[0::2] + 1j * u[1::2]).reshape(n, n)


@dataclass(frozen=True)
class _GalleryEntry:
    builder: object
    params: tuple  # of (name, default) pairs; default None means required
    summary: str


GALLERY = {
    "toeplitz_eq1": _GalleryEntry(
        lambda: _toeplitz_demo(), (),
        "4x4 Toeplitz-style demo matrix with one imaginary corner entry"),
    "a_tilde": _GalleryEntry(
        lambda: _a_tilde(), (),
        "3x3 real matrix whose order-1 curve cuts inside the order-2 curve"),
    "a_hat": _GalleryEntry(
        lambda: _a_hat(), (),
        "4x4 real matrix whose order-2 curve meets its companion curve"),
    "pair_A": _GalleryEntry(
        lambda eps: _pair(1.36, eps), (("eps", 0.45),),
        "4x4 coupling-parameter family: loops merge outward as eps grows"),
    "pair_B": _GalleryEntry(
        lambda eps: _pair(1.16, eps), (("eps", 0.35),),
        "4x4 coupling-parameter family: loops merge with each other first"),
    "matrix_C": _GalleryEntry(
        lambda eps: _matrix_c(eps), (("eps", 0.5),),
        "6x6 family whose four order-4 loop mergers happen simultaneously"),
    "matrix_F": _GalleryEntry(
        lambda eps1, eps2: _matrix_f(eps1, eps2),
        (("eps1", 2.52), ("eps2", 0.66)),
        "4x4 two-parameter family that can trap an eigenvalue-free loop"),
    "matrix_A1": _GalleryEntry(
        lambda: _matrix_a1(), (),
        "4x4 complex matrix with entries of order 100"),
    "frank": _GalleryEntry(
        lambda n: _frank(n), (("n", 11),),
        "Frank matrix: upper Hessenberg, determinant 1, ill-conditioned"),
    "random_real": _GalleryEntry(
        lambda n, seed: _random_real(n, seed), (("n", 5), ("seed", 1)),
        "seeded random real matrix, entries uniform in [-1, 1]"),
    "random_complex": _GalleryEntry(
        lambda n, seed: _random_complex(n, seed), (("n", 5), ("seed", 1)),
        "seeded random complex matrix, re/im uniform in [-1, 1]"),
}


# Parameters that count something or seed a stream; every other parameter
# is a real number.
_INTEGER_PARAMS = ("n", "seed")


def _integer_param(name, key, value):
    """``value`` as an int, or ParameterError unless it is finite and integral."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ParameterError(f"{name} parameter {key!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MatrixSpec:
    """A gallery constructor name plus its parameters."""

    name: str
    params: Mapping = field(default_factory=dict)


def build_matrix(spec):
    """Instantiate a gallery matrix from its spec.

    Unknown names, unknown parameters, missing required parameters and a
    size ``n`` or ``seed`` that is not a finite integral number raise
    ParameterError.  Identical specs always produce identical matrices.
    """
    entry = GALLERY.get(spec.name)
    if entry is None:
        raise ParameterError(
            f"unknown gallery matrix {spec.name!r}; known: {', '.join(sorted(GALLERY))}"
        )
    allowed = dict(entry.params)
    kwargs = {}
    for key, value in spec.params.items():
        if key not in allowed:
            raise ParameterError(f"{spec.name} takes no parameter {key!r}")
        if key in _INTEGER_PARAMS:
            value = _integer_param(spec.name, key, value)
        kwargs[key] = value
    for key, default in entry.params:
        if key not in kwargs:
            if default is None:
                raise ParameterError(f"{spec.name} requires parameter {key!r}")
            kwargs[key] = default
    return entry.builder(**kwargs)


def gallery_entries():
    """(name, parameter signature, summary) rows for the CLI listing."""
    rows = []
    for name in sorted(GALLERY):
        entry = GALLERY[name]
        sig = ", ".join(f"{p}={d}" for p, d in entry.params) or "-"
        rows.append((name, sig, entry.summary))
    return rows


# --- diagonal-frame analytics -------------------------------------------------

def _check_deltas(deltas, minimum):
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size < minimum:
        raise ParameterError(f"need at least {minimum} deltas")
    if np.any(np.diff(d) > 0):
        raise ParameterError("deltas must be non-increasing")
    return d


def epsilon_thresholds(deltas, k):
    """Coupling strengths at which the k loops merge, one per j = 1..k.

    For j < k the threshold is sqrt((d_{j+1} - d_{k+1})(d_j - d_{j+1}));
    the last one is (d_k - d_{k+1})/2, where the leftmost loop joins the
    unbounded component.
    """
    if k < 1:
        raise ParameterError("k must be positive")
    d = _check_deltas(deltas, k + 1)
    last = d[k]
    eps = [np.sqrt((d[j + 1] - last) * (d[j] - d[j + 1])) for j in range(k - 1)]
    eps.append(0.5 * (d[k - 1] - last))
    return np.asarray(eps, dtype=float)


def s_pm(delta_j, delta_last, eps):
    """Real-axis crossings of the region-j cubic, or None above the threshold.

    Solves [(d_j - s)^2](s - d_last) = eps^2 (d_j - s) at t = 0 apart from
    the root s = d_j; the pair is real exactly when eps <= (d_j - d_last)/2.
    """
    if delta_j < delta_last:
        raise ParameterError("delta_j must be >= delta_last")
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    half = 0.5 * (delta_j - delta_last)
    rad = half * half - eps * eps
    if rad < 0:
        return None
    root = np.sqrt(rad)
    mid = 0.5 * (delta_j + delta_last)
    return (float(mid - root), float(mid + root))


def region_index(deltas, k, s, t):
    """1-based index j of the diagonal entry of M_k that is largest at (s, t).

    Valid when the leading block is diagonal, where the entries are
    (d_j - s) prod_{r != j} |d_r - lambda|^2.  Entry j beats entry i (j < i)
    exactly when (d_j - s)(d_i - s) <= t^2; ties go to the smaller index.
    Accepts scalars or broadcastable arrays.
    """
    d = _check_deltas(deltas, k)
    if k < 1:
        raise ParameterError("k must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    t_sq = t * t
    winner = np.zeros(s.shape, dtype=np.int64)
    for i in range(1, k):
        dw = d[winner]
        keep = ((dw - s) * (d[i] - s) <= t_sq) | (dw == d[i])
        winner = np.where(keep, winner, i)
    result = winner + 1
    if result.ndim == 0:
        return int(result)
    return result


def simultaneous_merge_deltas(delta_last, delta_k, k):
    """Deltas d_1 .. d_{k+1} whose k merge thresholds all coincide.

    Built by the downward recurrence d_{j-1} = d_j +
    (d_k - d_{k+1})^2 / (4 (d_j - d_{k+1})), which pins every threshold at
    (d_k - d_{k+1})/2.
    """
    if k < 1:
        raise ParameterError("k must be positive")
    if not delta_k > delta_last:
        raise ParameterError("delta_k must exceed delta_last")
    gap_sq = (delta_k - delta_last) ** 2
    ds = [float(delta_k)]
    for _ in range(k - 1):
        ds.append(ds[-1] + gap_sq / (4.0 * (ds[-1] - delta_last)))
    ds.reverse()
    ds.append(float(delta_last))
    return np.asarray(ds, dtype=float)


def diagonal_gamma_prediction(deltas, k, eps, s, t):
    """Piecewise-cubic prediction of the order-k curve for diagonal frames.

    Evaluates eps^2 (d_j - s) - [(d_j - s)^2 + t^2](s - d_{k+1}) with j
    chosen by :func:`region_index`; the sign field matches the generic
    evaluator away from the region-boundary hyperbolas.
    """
    d = _check_deltas(deltas, k + 1)
    j = np.asarray(region_index(d[:k], k, s, t))
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    dj = d[j - 1]
    value = eps * eps * (dj - s) - ((dj - s) ** 2 + t * t) * (s - d[k])
    if value.ndim == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class DiagonalCaseReport:
    """Summary of the diagonal-frame analysis for one (deltas, k, eps)."""

    deltas: np.ndarray
    epsilon_thresholds: np.ndarray
    s_minus: tuple
    s_plus: tuple
    region_boundaries: tuple  # (center, radius) per pair j < i among d_1..d_{k+1}


def diagonal_case_report(deltas, k, eps):
    d = _check_deltas(deltas, k + 1)
    thresholds = epsilon_thresholds(d, k)
    s_lo = []
    s_hi = []
    for j in range(k):
        pair = s_pm(d[j], d[k], eps)
        s_lo.append(None if pair is None else pair[0])
        s_hi.append(None if pair is None else pair[1])
    boundaries = tuple(
        (0.5 * (d[j] + d[i]), 0.5 * (d[j] - d[i]))
        for j in range(k + 1)
        for i in range(j + 1, k + 1)
    )
    return DiagonalCaseReport(
        deltas=d,
        epsilon_thresholds=thresholds,
        s_minus=tuple(s_lo),
        s_plus=tuple(s_hi),
        region_boundaries=boundaries,
    )
