"""Per-layer spans recorded from outside the program.

The traced passes swap timing wrappers onto the module attributes through
which specbound's layers call each other, then restore the originals.  No
file under ``src/`` is edited: a caller such as ``specbound.cli`` resolves
``build_frames`` in its own namespace at call time, so wrapping
``specbound.cli.build_frames`` times exactly the calls the CLI makes.

A span is ``[name, start, end, parent, job, overhead, attrs]``.  ``overhead``
is the time this module spent in its own hooks around the call (counting
points, tracking live points); it is charged to no layer.  Self time is a
span's duration minus the durations and overheads of its children.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter

MASK = "envelope.envelope_member_mask"
MARGINS = "envelope.envelope_margins"
REDUCERS = (MASK, MARGINS)
FIELD = "inequality.g_field"
TRACE = "trace.trace_implicit"
FRAME_BUILDS = ("frame.build_frame", "frame.build_frames")
WRITERS = ("fileio.write_pgm", "fileio.write_svg", "fileio.write_curves_csv",
           "fileio.write_json_report")
LAYERS = ("gallery", "frame", "inequality", "envelope", "trace", "fileio", "cli")

# (module, attribute) -> span name.  Each attribute is wrapped in the module
# whose code looks it up; linalg runs only inside frame and inequality spans.
WRAPPED = {
    ("specbound.cli", "build_matrix"): "gallery.build_matrix",
    ("specbound.cli", "build_frame"): "frame.build_frame",
    ("specbound.cli", "build_frames"): "frame.build_frames",
    ("specbound.envelope", "build_frames"): "frame.build_frames",
    ("specbound.envelope", "rotation_spectra"): "frame.rotation_spectra",
    ("specbound.cli", "g_field"): FIELD,
    ("specbound.envelope", "g_field"): FIELD,
    ("specbound.trace", "g_field"): FIELD,
    ("specbound.cli", "envelope_raster"): "envelope.envelope_raster",
    ("specbound.envelope", "envelope_member_mask"): MASK,
    ("specbound.cli", "envelope_margins"): MARGINS,
    ("specbound.cli", "rank_numrange_raster"): "envelope.rank_numrange_raster",
    ("specbound.cli", "numerical_range_boundary"): "envelope.numerical_range_boundary",
    ("specbound.cli", "auto_window"): "trace.auto_window",
    ("specbound.cli", "trace_implicit"): TRACE,
    ("specbound.trace", "trace_implicit"): TRACE,
    ("specbound.cli", "gamma_curve"): "trace.gamma_curve",
    ("specbound.cli", "gamma_min_curve"): "trace.gamma_min_curve",
    ("specbound.cli", "hyperbola_set"): "trace.hyperbola_set",
    ("specbound.cli", "clip_polyline"): "trace.clip_polyline",
    ("specbound.cli", "write_pgm"): "fileio.write_pgm",
    ("specbound.cli", "write_svg"): "fileio.write_svg",
    ("specbound.cli", "write_curves_csv"): "fileio.write_curves_csv",
    ("specbound.cli", "write_json_report"): "fileio.write_json_report",
}


class Tracer:
    """Holds the spans of one run in memory; ``installed()`` wraps the layers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.missing = set()
        self.hook_errors = 0

    # --- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name; returns its result."""
        t0 = _clock()
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, 0.0, None]
        self.spans.append(span)
        hooks = _HOOKS.get(name)
        if hooks and hooks[0]:
            args = self._hook(hooks[0], span, args) or args
        self.stack.append(len(self.spans) - 1)
        t1 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = _clock()
            self.stack.pop()
            span[1] = t1
            span[2] = t2
        if hooks and hooks[1]:
            self._hook(hooks[1], span, args, result)
        span[5] = (t1 - t0) + (_clock() - t2)
        return result

    def _hook(self, hook, span, *rest):
        try:
            return hook(self, span, *rest)
        except Exception as exc:  # a hook must never fail the job it observes
            self.hook_errors += 1
            print(f"perfbench: {span[0]} hook failed: {exc!r}", file=sys.stderr)
            return None

    def _wrapper(self, name, fn):
        def timed(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return timed

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block, then restore them."""
        saved = []
        try:
            for (module_name, attr), name in WRAPPED.items():
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # --- aggregation -------------------------------------------------------

    def metrics(self, jobs, wall):
        """Per-layer figures over the spans of the given job ids.

        ``wall`` is the summed wall time of those jobs, the base of
        ``trace.self_share``.
        """
        jobs = set(jobs)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] in jobs]
        child = {}
        for _, s in spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1]) + s[5]
        acc = {}

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        for i, s in spans:
            name, dur = s[0], s[2] - s[1]
            own = dur - child.get(i, 0.0)
            layer = name.split(".")[0]
            attrs = s[6] or {}
            add(f"{layer}.self_s", own)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
            if name == FIELD:
                add("inequality.field_s", dur)
                add("inequality.points", attrs.get("points", 0))
                parent = self.spans[s[3]][0] if s[3] >= 0 else ""
                if parent in REDUCERS:
                    add("envelope.angles_evaluated", 1)
                    add("envelope.live_evals", attrs.get("live", 0))
                    add("envelope.evals", attrs.get("points", 0))
                if self._under(s, TRACE):
                    add("trace.field_s", dur)
            elif name in FRAME_BUILDS:
                add("frame.build_s", dur)
                add("frame.calls", 1)
                add("frame.angles", attrs.get("angles", 0))
            elif name == TRACE:
                add("trace.calls", 1)
                add("trace.field_points", attrs.get("points", 0))
                add("trace.vertices", attrs.get("vertices", 0))
            elif name in WRITERS:
                add("fileio.write_s", dur)
                add("fileio.bytes", attrs.get("bytes", 0))
            elif name == "gallery.build_matrix":
                add("gallery.build_s", dur)
        g = acc.get
        out = {f"{layer}.self_s": g(f"{layer}.self_s", 0.0) for layer in LAYERS}
        out.update({
            "inequality.field_s": g("inequality.field_s", 0.0),
            "inequality.field_calls": g(f"{FIELD}.calls", 0),
            "inequality.points": g("inequality.points", 0),
            "inequality.ns_per_point": _ratio(g("inequality.field_s", 0.0) * 1e9,
                                               g("inequality.points", 0)),
            "envelope.reduce_self_s": g(f"{MASK}.self_s", 0.0) + g(f"{MARGINS}.self_s", 0.0),
            "envelope.mask_self_s": g(f"{MASK}.self_s", 0.0),
            "envelope.margins_self_s": g(f"{MARGINS}.self_s", 0.0),
            "envelope.halfplane_s": g("envelope.rank_numrange_raster.self_s", 0.0),
            "envelope.boundary_s": g("envelope.numerical_range_boundary.self_s", 0.0),
            "envelope.angles_evaluated": g("envelope.angles_evaluated", 0),
            "envelope.live_eval_ratio": _ratio(g("envelope.live_evals", 0),
                                               g("envelope.evals", 0)),
            "frame.build_s": g("frame.build_s", 0.0),
            "frame.calls": g("frame.calls", 0),
            "frame.angles": g("frame.angles", 0),
            "frame.spectra_s": g("frame.rotation_spectra.self_s", 0.0),
            "trace.self_share": _ratio(g("trace.self_s", 0.0), wall),
            "trace.calls": g("trace.calls", 0),
            "trace.field_points": g("trace.field_points", 0),
            "trace.vertices": g("trace.vertices", 0),
            "trace.vertices_per_field_point": _ratio(g("trace.vertices", 0),
                                                     g("trace.field_points", 0)),
            "trace.clip_s": g("trace.clip_polyline.self_s", 0.0),
            "trace.field_s": g("trace.field_s", 0.0),
            "fileio.write_s": g("fileio.write_s", 0.0),
            "fileio.bytes": g("fileio.bytes", 0),
            "gallery.build_s": g("gallery.build_s", 0.0),
        })
        return out

    def _under(self, span, name):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, overhead, _ in self.spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent},{job},{overhead!r}]\n')


def _ratio(num, den):
    return num / den if den else 0.0


# --- hooks: (before, after) per span name ------------------------------------

def _reducer_before(tracer, span, args):
    from specbound.envelope import membership_tolerance

    span[6] = {"tol": membership_tolerance(args[0], args[1]), "alive": None}
    return None


def _field_after(tracer, span, args, result):
    g = np.asarray(result)
    attrs = span[6] = {"points": int(g.size), "live": int(g.size)}
    if span[3] < 0:
        return
    parent = tracer.spans[span[3]]
    if parent[0] not in REDUCERS:
        return
    state = parent[6]
    ok = g >= -state["tol"]
    alive = state["alive"]
    # An evaluation is live when its point is still a member at this angle.
    # Exact while the reducer evaluates the whole point array at every angle;
    # a reducer that passes a subset is taken to pass only live points.
    if alive is not None and alive.shape == ok.shape:
        attrs["live"] = int(np.count_nonzero(alive))
        state["alive"] = alive & ok
    elif alive is None:
        state["alive"] = ok


def _frames_after(tracer, span, args, result):
    span[6] = {"angles": len(result)}


def _frame_after(tracer, span, args, result):
    span[6] = {"angles": 1}


def _trace_before(tracer, span, args):
    f = args[0]
    attrs = span[6] = {"points": 0, "vertices": 0}

    def counted(s, t):
        out = f(s, t)
        attrs["points"] += int(np.size(out))
        return out

    return (counted,) + tuple(args[1:])


def _trace_after(tracer, span, args, result):
    span[6]["vertices"] = sum(len(p) for p in result.polylines)


def _write_after(tracer, span, args, result):
    path = args[0]
    size = os.path.getsize(path) if path is not None else len(result)
    span[6] = {"bytes": size}


_HOOKS = {
    MASK: (_reducer_before, None),
    MARGINS: (_reducer_before, None),
    FIELD: (None, _field_after),
    "frame.build_frames": (None, _frames_after),
    "frame.build_frame": (None, _frame_after),
    TRACE: (_trace_before, _trace_after),
    **{w: (None, _write_after) for w in WRITERS},
}
