"""Command-line interface.

:func:`main` is the one entry point.  Subcommands:

* ``curve``    trace the order-k bounding curve of one matrix (theta = 0);
  ``--format`` svg or csv
* ``envelope`` rasterize the rotation envelope and overlay the rotated curves
  (traced in the display plane at half the raster resolution); svg, csv or
  pgm.  One solve of the angles serves the raster, the overlays and, without
  ``--window``, the frame at angle 0 that the window is drawn from
* ``numrange`` numerical range boundary and rank-level half-plane rasters;
  svg, csv or pgm
* ``gallery``  list the built-in demo matrices
* ``check``    verify that every eigenvalue satisfies the inequality at all
  sampled angles and emit a JSON report, with sigma as ``scale``

The argument parser states every rule of the command line: the formats of
each subcommand, that ``curve``, ``envelope`` and ``numrange`` need
``--out`` (``check`` writes to stdout without it) and take ``--grid`` and
``--window``, with their syntax, and that exactly one of ``--matrix`` and
``--gallery`` is given.  So a usage error is reported before any matrix
work, except a ``numrange`` rank level outside 0..n, which needs n: it is
reported once the matrix is read, before any solve, in every format.  The
parser is built once per process and shared by every :func:`main` call.

Every subcommand that reads a matrix runs on A/sigma, sigma the power of two
nearest max|a_ij| (:func:`specbound.linalg._normalised`, called once per
run): frames, fields, masks, traces, rasters and windows are computed on
A/sigma, and a ``--window`` is divided by sigma on the way in.  One write
step (:func:`_write`) multiplies vertices, windows, delta lines and
eigenvalues by sigma and writes the requested format; ``check`` multiplies
its eigenvalues in the report.  Both are exact.  So the outputs of 2^e A
are those of A with every coordinate scaled by 2^e.

:func:`main` first sets glibc's allocator for the run, once per process
(:func:`_tune_allocator`): one malloc arena, and mmap and trim thresholds
high enough that the mask, field and frame arrays freed and allocated again
at every angle block stay in the heap instead of going back to the system
and being faulted in again.  Off glibc it does nothing, and importing
:mod:`specbound` changes no setting; the outputs do not depend on it.

Exit codes: 0 success (and, for check, spectrum contained), 1 usage error,
2 file/input error (including entries too large to evaluate, an
eigensolver that does not converge and a job too large for memory), 3
containment violation reported by check.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .envelope import (
    envelope_margins,
    envelope_overlays,
    envelope_raster,
    membership_tolerance,
    numerical_range_boundary,
    rank_numrange_raster,
    theta_grid,
)
from .fileio import (
    MatrixFileError,
    parse_matrix_file,
    write_curves_csv,
    write_json_report,
    write_pgm,
    write_svg,
)
from .frame import _frames_and_first, build_frame, build_frames
from .gallery import GALLERY, MatrixSpec, build_matrix, gallery_entries
from .linalg import DimensionError, ParameterError, _normalised, as_matrix
from .trace import Window, auto_window, gamma_curves, hyperbola_set

__all__ = ["main"]

_REPORT_SCHEMA_VERSION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_grid(text):
    try:
        cols, rows = text.lower().split("x")
        return int(cols), int(rows)
    except ValueError:
        raise UsageError(f"--grid expects WxH, got {text!r}") from None


def _parse_window(text):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"--window expects smin,smax,tmin,tmax, got {text!r}") from None
    if len(parts) != 4:
        raise UsageError(f"--window expects four numbers, got {len(parts)}")
    return parts


def _parse_gallery(text, seed):
    name, _, param_text = text.partition(":")
    params = {}
    if param_text:
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or not value:
                raise UsageError(f"gallery parameters must be key=value, got {item!r}")
            try:
                params[key] = int(value) if value.lstrip("+-").isdigit() else float(value)
            except ValueError:
                raise UsageError(f"bad gallery parameter value {item!r}") from None
    if name not in GALLERY:
        raise UsageError(
            f"unknown gallery matrix {name!r}; run the gallery command for the list"
        )
    if seed is not None and any(p == "seed" for p, _ in GALLERY[name].params):
        params.setdefault("seed", seed)
    return MatrixSpec(name=name, params=params)


def build_parser():
    parser = _Parser(prog="specbound",
                     description="Spectrum-bounding curves, envelopes and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=None):
        # a subcommand with formats writes a file, drawn on --grid in --window;
        # check takes neither, and its report may go to stdout
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--matrix", metavar="PATH", help="matrix text file")
        source.add_argument("--gallery", metavar="NAME[:k=v,...]",
                            help="built-in matrix, e.g. pair_A:eps=0.45")
        p.add_argument("--k", type=int, default=1, help="order (default 1)")
        p.add_argument("--theta-count", type=int, default=120,
                       help="rotation samples (default 120)")
        p.add_argument("--seed", type=int, help="seed for random gallery matrices")
        p.add_argument("--out", metavar="PATH", required=formats is not None,
                       help="output file")
        if formats is not None:
            p.add_argument("--format", dest="fmt", default="svg", choices=formats)
            p.add_argument("--grid", type=_parse_grid, default="800x600",
                           help="resolution WxH")
            p.add_argument("--window", type=_parse_window,
                           help="explicit window smin,smax,tmin,tmax")

    p_curve = sub.add_parser("curve", help="trace bounding curves at theta = 0")
    add_common(p_curve, ("svg", "csv"))
    p_curve.add_argument("--with-gamma-min", action="store_true",
                         help="also trace the lambda_min companion curve")
    p_curve.add_argument("--with-hyperbolas", action="store_true",
                         help="also trace the region-boundary hyperbolas")

    p_env = sub.add_parser("envelope", help="rasterize the rotation envelope")
    add_common(p_env, ("svg", "csv", "pgm"))

    p_nr = sub.add_parser("numrange",
                          help="numerical range boundary / rank-level rasters "
                               "(--k selects the rank level; 0 = boundary only)")
    add_common(p_nr, ("svg", "csv", "pgm"))
    p_nr.set_defaults(k=0)

    sub.add_parser("gallery", help="list built-in matrices")

    p_check = sub.add_parser("check", help="verify eigenvalue containment")
    add_common(p_check)
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser every main() call shares; parse_args keeps no state in it."""
    return build_parser()


# glibc's mallopt options (malloc.h) and the values main() sets, in order.
# Setting any threshold switches off glibc's dynamic mmap threshold, which
# rises to 32 MiB as large blocks are freed, so the mmap threshold is set at
# that ceiling (with 4 MiB an n = 600 check took more faults than under the
# defaults), and the trim threshold, twice that as glibc's dynamic rule
# makes it, only once the mmap threshold took.  One arena keeps the chunk
# threads' freed arrays in one heap instead of one heap per thread, each
# held at its own peak (about 1.3 MiB more resident over n = 160 checks).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOPT_SETTINGS = (
    (_M_MMAP_THRESHOLD, 32 * 2 ** 20),
    (_M_TRIM_THRESHOLD, 64 * 2 ** 20),
    (_M_ARENA_MAX, 1),
)


def _glibc_mallopt():
    """glibc's ``mallopt`` through ctypes, or None when the C library is not glibc."""
    if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


@functools.lru_cache(maxsize=1)
def _tune_allocator():
    """Apply ``_MALLOPT_SETTINGS`` once per process; True when every one took.

    Stops at the first setting glibc rejects (``mallopt`` returns 0), and does
    nothing where the lookup fails, so a run never fails for it.
    """
    try:
        mallopt = _glibc_mallopt()
    except (OSError, AttributeError, TypeError, ValueError):
        return False
    if mallopt is None:
        return False
    return all(mallopt(option, value) == 1 for option, value in _MALLOPT_SETTINGS)


def _window_times(window, c):
    """The window with its bounds multiplied by c, a power of two: exact."""
    return replace(window, s_min=window.s_min * c, s_max=window.s_max * c,
                   t_min=window.t_min * c, t_max=window.t_max * c)


def _curves_times(cs, c):
    """The curve set with its vertices and window multiplied by c."""
    return replace(cs, polylines=tuple(p * c for p in cs.polylines),
                   window=_window_times(cs.window, c))


def _load(ns):
    """(A/sigma, sigma, the ``--window`` in units of A/sigma or None)."""
    window = None
    if getattr(ns, "window", None) is not None:
        window = Window(*ns.window, cols=ns.grid[0], rows=ns.grid[1])
    if ns.matrix is not None:
        m = parse_matrix_file(ns.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(
                f"matrix file holds a {m.shape[0]}x{m.shape[1]} matrix; "
                "a square matrix is required"
            )
    else:
        m = build_matrix(_parse_gallery(ns.gallery, ns.seed))
    a, sigma = _normalised(as_matrix(m))
    return a, sigma, None if window is None else _window_times(window, 1.0 / sigma)


def _write(ns, a, sigma, window, curves=(), raster=None, vlines=(), experimental=()):
    """Write the run's ``--format`` to ``--out``, every coordinate times sigma.

    ``a`` is A/sigma and ``window`` is in its units.  A PGM is the raster
    alone and a CSV the curves alone; an SVG draws the raster, the dashed
    ``vlines``, the curves (those indexed by ``experimental`` marked so) and
    the eigenvalues of A.
    """
    if ns.fmt == "pgm":
        write_pgm(ns.out, raster)
        return
    curves = [_curves_times(cs, sigma) for cs in curves]
    if ns.fmt == "csv":
        write_curves_csv(ns.out, curves)
        return
    extra = {id(curves[i]): {"data-experimental": "true"} for i in experimental}
    write_svg(ns.out, _window_times(window, sigma), curves,
              eigenvalues=np.linalg.eigvals(a) * sigma,
              vlines=np.multiply(vlines, sigma), raster=raster, extra_attrs=extra)


def _matrix_label(ns):
    if ns.matrix is not None:
        return ns.matrix
    spec = _parse_gallery(ns.gallery, ns.seed)
    if spec.params:
        params = ",".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
        return f"{spec.name}:{params}"
    return spec.name


def _run_curve(ns):
    a, sigma, window = _load(ns)
    frame = build_frame(a, ns.k, 0.0)
    window = window or auto_window(frame, cols=ns.grid[0], rows=ns.grid[1])
    which = ("max", "min") if ns.with_gamma_min else ("max",)
    curves = list(gamma_curves(frame, window, which))
    if ns.with_hyperbolas:
        curves.append(hyperbola_set(frame.deltas, ns.k, window))
    # The lambda_min companion is only worked out in closed form for k = 2;
    # higher orders are emitted but marked as experimental.
    _write(ns, a, sigma, window, curves, vlines=frame.deltas[: ns.k + 1],
           experimental=(1,) if ns.k >= 3 and ns.with_gamma_min else ())
    for cs in curves:
        for note in cs.warnings:
            print(f"warning: {note}", file=sys.stderr)
    return 0


def _run_envelope(ns):
    a, sigma, window = _load(ns)
    # theta_grid starts at 0, so the window's frame comes from the stack's solve
    stack, frame = _frames_and_first(a, ns.k, theta_grid(ns.theta_count), window is None)
    window = window or auto_window(frame, cols=ns.grid[0], rows=ns.grid[1])
    overlays = [] if ns.fmt == "pgm" else [envelope_overlays(stack, window)]
    raster = None
    if ns.fmt != "csv":
        raster = envelope_raster(a, ns.k, ns.theta_count, window, stack=stack)
    _write(ns, a, sigma, window, overlays, raster=raster)
    return 0


def _run_numrange(ns):
    a, sigma, window = _load(ns)
    if not 0 <= ns.k <= a.shape[0]:
        raise UsageError(f"numrange --k is a rank level in 0..{a.shape[0]}, got {ns.k}")
    curves = []
    # a PGM on a given window is the rank raster alone
    if ns.fmt != "pgm" or window is None:
        curves.append(numerical_range_boundary(a, ns.theta_count))
    raster = None
    if ns.fmt != "csv":
        window = window or replace(curves[0].window, cols=ns.grid[0], rows=ns.grid[1])
        if ns.fmt == "pgm" or ns.k >= 1:
            raster = rank_numrange_raster(a, max(ns.k, 1), ns.theta_count, window)
    _write(ns, a, sigma, window, curves, raster=raster)
    return 0


def _run_gallery(_ns):
    for name, sig, summary in gallery_entries():
        print(f"{name:16s} {sig:28s} {summary}")
    return 0


def _run_check(ns):
    a, sigma, _ = _load(ns)
    tol = membership_tolerance(a, ns.k)
    eigenvalues = np.linalg.eigvals(a)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    thetas = theta_grid(ns.theta_count)
    stack = build_frames(a, ns.k, thetas)
    min_g, worst = envelope_margins(a, ns.k, thetas, eigenvalues, stack=stack)
    contained = bool(np.all(min_g >= -tol))
    report = {
        "schema_version": _REPORT_SCHEMA_VERSION,
        "command": "check",
        "matrix": {"n": int(a.shape[0]), "source": _matrix_label(ns)},
        "k": int(ns.k),
        "theta_count": int(ns.theta_count),
        "scale": sigma,
        "degenerate_angles": int(np.count_nonzero(stack.degenerate)),
        "tolerance": tol,
        "eigenvalues": [
            {
                "re": float(ev.real) * sigma,
                "im": float(ev.imag) * sigma,
                "min_g_over_theta": float(g),
                "worst_theta": float(th),
            }
            for ev, g, th in zip(eigenvalues, min_g, worst)
        ],
        "min_g": float(np.min(min_g)) if min_g.size else 0.0,
        "contained": contained,
    }
    text = write_json_report(ns.out, report)
    if ns.out is None:
        sys.stdout.write(text)
    return 0 if contained else 3


_RUNNERS = {
    "curve": _run_curve,
    "envelope": _run_envelope,
    "numrange": _run_numrange,
    "gallery": _run_gallery,
    "check": _run_check,
}


def main(argv=None):
    """Run one command line; returns the process exit status."""
    _tune_allocator()
    try:
        ns = _parser().parse_args(argv)
        return _RUNNERS[ns.command](ns)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixFileError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: arithmetic overflow, matrix entries too large: {exc}",
              file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this job: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed on this matrix: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
