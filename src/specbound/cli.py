"""Command-line interface.

Subcommands:

* ``curve``    trace the order-k bounding curve of one matrix (theta = 0)
* ``envelope`` rasterize the rotation envelope and overlay the rotated curves
  (traced in the display plane at half the raster resolution)
* ``numrange`` numerical range boundary and rank-level half-plane rasters
* ``gallery``  list the built-in demo matrices
* ``check``    verify that every eigenvalue satisfies the inequality at all
  sampled angles and emit a JSON report, with sigma as ``scale``

Every subcommand that reads a matrix runs on A/sigma, sigma the power of two
nearest max|a_ij| (:func:`specbound.linalg._normalised`, called once per
run): frames, fields, masks, traces, rasters and windows are computed on
A/sigma, a ``--window`` is divided by sigma on the way in, and vertices,
windows, delta lines and eigenvalues are multiplied by sigma just before
they are written, which is exact.  So the outputs of 2^e A are those of A
with every coordinate scaled by 2^e.

Exit codes: 0 success (and, for check, spectrum contained), 1 usage error,
2 file/input error (including entries too large to evaluate), 3 containment
violation reported by check.  An output format a subcommand does not support
is rejected before any matrix work.  The argument parser is built once per
process and shared by every :func:`main` call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace
from typing import Optional

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
from .frame import build_frame, build_frames
from .gallery import GALLERY, MatrixSpec, build_matrix, gallery_entries
from .linalg import DimensionError, ParameterError, _normalised, as_matrix
from .trace import Window, auto_window, gamma_curves, hyperbola_set

__all__ = ["RunConfig", "run", "main"]

_REPORT_SCHEMA_VERSION = 2


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything one invocation needs; built from parsed CLI flags."""

    command: str
    k: int = 1
    theta_count: int = 120
    grid: tuple = (800, 600)
    window: Optional[Window] = None
    matrix_path: Optional[str] = None
    gallery_spec: Optional[MatrixSpec] = None
    out: Optional[str] = None
    fmt: str = "svg"
    seed: Optional[int] = None
    include_gamma_min: bool = False
    include_hyperbolas: bool = False


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

    def add_common(p, with_format=True):
        p.add_argument("--matrix", metavar="PATH", help="matrix text file")
        p.add_argument("--gallery", metavar="NAME[:k=v,...]",
                       help="built-in matrix, e.g. pair_A:eps=0.45")
        p.add_argument("--k", type=int, default=1, help="order (default 1)")
        p.add_argument("--theta-count", type=int, default=120,
                       help="rotation samples (default 120)")
        p.add_argument("--grid", default="800x600", help="resolution WxH")
        p.add_argument("--window", help="explicit window smin,smax,tmin,tmax")
        p.add_argument("--seed", type=int, help="seed for random gallery matrices")
        p.add_argument("--out", metavar="PATH", help="output file")
        if with_format:
            p.add_argument("--format", dest="fmt", default="svg",
                           choices=("svg", "csv", "pgm", "json"))

    p_curve = sub.add_parser("curve", help="trace bounding curves at theta = 0")
    add_common(p_curve)
    p_curve.add_argument("--with-gamma-min", action="store_true",
                         help="also trace the lambda_min companion curve")
    p_curve.add_argument("--with-hyperbolas", action="store_true",
                         help="also trace the region-boundary hyperbolas")

    p_env = sub.add_parser("envelope", help="rasterize the rotation envelope")
    add_common(p_env)

    p_nr = sub.add_parser("numrange",
                          help="numerical range boundary / rank-level rasters "
                               "(--k selects the rank level; 0 = boundary only)")
    add_common(p_nr)
    p_nr.set_defaults(k=0)

    sub.add_parser("gallery", help="list built-in matrices")

    p_check = sub.add_parser("check", help="verify eigenvalue containment")
    add_common(p_check, with_format=False)
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser every main() call shares; parse_args keeps no state in it."""
    return build_parser()


def _config_from_args(ns):
    cfg = RunConfig(command=ns.command)
    if ns.command == "gallery":
        return cfg
    cfg.k = ns.k
    cfg.theta_count = ns.theta_count
    cfg.grid = _parse_grid(ns.grid)
    if ns.window:
        s_min, s_max, t_min, t_max = _parse_window(ns.window)
        try:
            cfg.window = Window(s_min, s_max, t_min, t_max,
                                cols=cfg.grid[0], rows=cfg.grid[1])
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
    cfg.matrix_path = ns.matrix
    cfg.seed = ns.seed
    if ns.gallery:
        cfg.gallery_spec = _parse_gallery(ns.gallery, ns.seed)
    cfg.out = ns.out
    cfg.fmt = getattr(ns, "fmt", "json")
    cfg.include_gamma_min = getattr(ns, "with_gamma_min", False)
    cfg.include_hyperbolas = getattr(ns, "with_hyperbolas", False)
    return cfg


def _load_matrix(cfg):
    """(A/sigma, sigma) for the run's matrix."""
    if (cfg.matrix_path is None) == (cfg.gallery_spec is None):
        raise UsageError("give exactly one of --matrix and --gallery")
    if cfg.matrix_path is not None:
        m = parse_matrix_file(cfg.matrix_path)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(
                f"matrix file holds a {m.shape[0]}x{m.shape[1]} matrix; "
                "a square matrix is required"
            )
    else:
        m = build_matrix(cfg.gallery_spec)
    return _normalised(as_matrix(m))


def _window_times(window, c):
    """The window with its bounds multiplied by c, a power of two: exact."""
    return replace(window, s_min=window.s_min * c, s_max=window.s_max * c,
                   t_min=window.t_min * c, t_max=window.t_max * c)


def _curves_times(cs, c):
    """The curve set with its vertices and window multiplied by c."""
    return replace(cs, polylines=tuple(p * c for p in cs.polylines),
                   window=_window_times(cs.window, c))


def _unit_window(cfg, sigma):
    """The ``--window``, if one was given, in units of A/sigma."""
    return None if cfg.window is None else _window_times(cfg.window, 1.0 / sigma)


def _require_out(cfg):
    if not cfg.out:
        raise UsageError(f"command {cfg.command!r} needs --out")
    return cfg.out


def _matrix_label(cfg):
    if cfg.matrix_path is not None:
        return cfg.matrix_path
    spec = cfg.gallery_spec
    if spec.params:
        params = ",".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
        return f"{spec.name}:{params}"
    return spec.name


def _run_curve(cfg):
    if cfg.fmt not in ("svg", "csv"):
        raise UsageError(f"curve output supports svg and csv, not {cfg.fmt!r}")
    a, sigma = _load_matrix(cfg)
    frame = build_frame(a, cfg.k, 0.0)
    window = _unit_window(cfg, sigma) or auto_window(frame, cols=cfg.grid[0],
                                                     rows=cfg.grid[1])
    which = ("max", "min") if cfg.include_gamma_min else ("max",)
    curves = list(gamma_curves(frame, window, which))
    if cfg.include_hyperbolas:
        curves.append(hyperbola_set(frame.deltas, cfg.k, window))
    curves = [_curves_times(cs, sigma) for cs in curves]
    out = _require_out(cfg)
    if cfg.fmt == "csv":
        write_curves_csv(out, curves)
    else:
        extra = {}
        if cfg.k >= 3 and cfg.include_gamma_min:
            # The lambda_min companion is only worked out in closed form for
            # k = 2; higher orders are emitted but marked as experimental.
            extra[id(curves[1])] = {"data-experimental": "true"}
        write_svg(out, _window_times(window, sigma), curves,
                  eigenvalues=np.linalg.eigvals(a) * sigma,
                  vlines=frame.deltas[: cfg.k + 1] * sigma, extra_attrs=extra)
    for cs in curves:
        for note in cs.warnings:
            print(f"warning: {note}", file=sys.stderr)
    return 0


def _run_envelope(cfg):
    if cfg.fmt not in ("svg", "csv", "pgm"):
        raise UsageError(f"envelope output supports svg, csv and pgm, not {cfg.fmt!r}")
    a, sigma = _load_matrix(cfg)
    window = _unit_window(cfg, sigma) or auto_window(
        build_frame(a, cfg.k, 0.0), cols=cfg.grid[0], rows=cfg.grid[1])
    out = _require_out(cfg)
    stack = build_frames(a, cfg.k, theta_grid(cfg.theta_count))
    if cfg.fmt == "pgm":
        write_pgm(out, envelope_raster(a, cfg.k, cfg.theta_count, window, stack=stack))
        return 0
    overlays = _curves_times(envelope_overlays(stack, window), sigma)
    if cfg.fmt == "csv":
        write_curves_csv(out, [overlays])
        return 0
    raster = envelope_raster(a, cfg.k, cfg.theta_count, window, stack=stack)
    write_svg(out, _window_times(window, sigma), [overlays],
              eigenvalues=np.linalg.eigvals(a) * sigma, raster=raster)
    return 0


def _run_numrange(cfg):
    if cfg.fmt not in ("svg", "csv", "pgm"):
        raise UsageError(f"numrange output supports svg, csv and pgm, not {cfg.fmt!r}")
    if cfg.k < 0:
        raise UsageError(f"numrange --k is a rank level >= 0, got {cfg.k}")
    a, sigma = _load_matrix(cfg)
    out = _require_out(cfg)
    window = _unit_window(cfg, sigma)
    # a PGM on a given window is the rank raster alone
    if cfg.fmt != "pgm" or window is None:
        boundary = numerical_range_boundary(a, cfg.theta_count)
    if cfg.fmt == "csv":
        write_curves_csv(out, [_curves_times(boundary, sigma)])
        return 0
    if window is None:
        bw = boundary.window
        window = Window(bw.s_min, bw.s_max, bw.t_min, bw.t_max,
                        cols=cfg.grid[0], rows=cfg.grid[1])
    if cfg.fmt == "pgm":
        write_pgm(out, rank_numrange_raster(a, max(cfg.k, 1), cfg.theta_count, window))
        return 0
    raster = None
    if cfg.k >= 1:
        raster = rank_numrange_raster(a, cfg.k, cfg.theta_count, window)
    write_svg(out, _window_times(window, sigma), [_curves_times(boundary, sigma)],
              eigenvalues=np.linalg.eigvals(a) * sigma, raster=raster)
    return 0


def _run_gallery(_cfg):
    for name, sig, summary in gallery_entries():
        print(f"{name:16s} {sig:28s} {summary}")
    return 0


def _run_check(cfg):
    a, sigma = _load_matrix(cfg)
    tol = membership_tolerance(a, cfg.k)
    eigenvalues = np.linalg.eigvals(a)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    thetas = theta_grid(cfg.theta_count)
    stack = build_frames(a, cfg.k, thetas)
    min_g, worst = envelope_margins(a, cfg.k, thetas, eigenvalues, stack=stack)
    contained = bool(np.all(min_g >= -tol))
    report = {
        "schema_version": _REPORT_SCHEMA_VERSION,
        "command": "check",
        "matrix": {"n": int(a.shape[0]), "source": _matrix_label(cfg)},
        "k": int(cfg.k),
        "theta_count": int(cfg.theta_count),
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
    text = write_json_report(cfg.out, report)
    if cfg.out is None:
        sys.stdout.write(text)
    return 0 if contained else 3


_RUNNERS = {
    "curve": _run_curve,
    "envelope": _run_envelope,
    "numrange": _run_numrange,
    "gallery": _run_gallery,
    "check": _run_check,
}


def run(config):
    """Execute one configuration; returns the process exit status."""
    return _RUNNERS[config.command](config)


def main(argv=None):
    try:
        ns = _parser().parse_args(argv)
        config = _config_from_args(ns)
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixFileError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: arithmetic overflow, matrix entries too large: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
