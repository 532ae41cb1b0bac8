"""Correctness checks on job outputs, made outside the timed region.

Each check returns None when the output is right, else a one-line reason.
The reference quantities (eigenvalues, window, g, half-plane cuts) are
computed here with numpy from their definitions and the same gallery spec the
job was given.  Only the gallery, the window rule and the tolerance rule come
from specbound, so a fault in its frame, field or reduction code cannot move
the output and the reference alike.

A PGM raster marks the cells whose *centre* is a member, so the cell holding
an eigenvalue need not be marked: the region around an eigenvalue can be
narrower than a cell (k=3 at 64x48 and coarser, for all three fixed gallery
matrices).
The raster check therefore recomputes membership by its definition, g >= -tol
at every angle, at the cells around each eigenvalue plus seeded samples of
the cells along the raster's region edges and of all cells, and requires the
raster to agree wherever a cell centre lies clearly off the region boundary.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from specbound.envelope import membership_tolerance
from specbound.gallery import MatrixSpec, build_matrix
from specbound.trace import auto_window

from workloads import parse_spec


@lru_cache(maxsize=None)
def _matrix(spec):
    name, params = parse_spec(spec)
    return build_matrix(MatrixSpec(name, params))


# Cell centres whose worst margin lies within this many tolerances of the
# boundary may flip with the last bits of the arithmetic; they are not compared.
_GUARD_TOLERANCES = 1000.0
_SAMPLED_CELLS = 256


def check_output(job, data):
    """Check the bytes a job wrote; None when they are correct."""
    if job.fmt == "pgm":
        return _check_pgm(job, data)
    if job.fmt == "svg":
        return _check_svg(data)
    if job.fmt == "csv":
        return _check_csv(data)
    return _check_report(job, data)


def _check_pgm(job, data):
    cols, rows = job.grid
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + cols * rows:
        return "PGM header or size does not match the grid"
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(rows, cols)
    if np.any((pixels != 0) & (pixels != 255)):
        return "PGM holds values other than 0 and 255"
    bits = pixels == 255
    a = _matrix(job.spec)
    window = _window(a, job.k, cols, rows)
    ds = (window.s_max - window.s_min) / cols
    dt = (window.t_max - window.t_min) / rows
    evs = np.linalg.eigvals(a)
    tol = membership_tolerance(a, job.k)
    if np.any(_worst_margin(a, job.k, job.theta_count, evs) < -tol):
        return "an eigenvalue is not a member of its own envelope"
    cells = set()
    for ev in evs[window.contains(evs.real, evs.imag)]:
        col = min(int((ev.real - window.s_min) / ds), cols - 1)
        row = min(int((window.t_max - ev.imag) / dt), rows - 1)
        cells.update((r, c) for r in range(row - 1, row + 2) for c in range(col - 1, col + 2)
                     if 0 <= r < rows and 0 <= c < cols)
    edge = np.zeros_like(bits)
    edge[:, 1:] |= bits[:, 1:] != bits[:, :-1]
    edge[:, :-1] |= bits[:, 1:] != bits[:, :-1]
    edge[1:, :] |= bits[1:, :] != bits[:-1, :]
    edge[:-1, :] |= bits[1:, :] != bits[:-1, :]
    edge_cells = np.argwhere(edge)
    rng = np.random.default_rng(cols * rows)
    if len(edge_cells):
        pick = rng.choice(len(edge_cells), min(2 * _SAMPLED_CELLS, len(edge_cells)), replace=False)
        cells.update(map(tuple, edge_cells[pick].tolist()))
    cells.update(zip(rng.integers(0, rows, _SAMPLED_CELLS).tolist(),
                     rng.integers(0, cols, _SAMPLED_CELLS).tolist()))
    r, c = np.array(sorted(cells)).T
    centres = (window.s_min + (c + 0.5) * ds) + 1j * (window.t_max - (r + 0.5) * dt)
    margins = _worst_margin(a, job.k, job.theta_count, centres)
    clear = np.abs(margins + tol) > _GUARD_TOLERANCES * tol
    if np.any(clear & (bits[r, c] != (margins >= -tol))):
        return "raster disagrees with g >= -tol at a sampled cell"
    if job.k == 2:
        # Criterion 08: every member cell lies in the rank-1 half-plane raster,
        # whose cut has the tolerance 1e-9 (1 + max|a_ij|).
        r, c = np.nonzero(bits)
        centres = (window.s_min + (c + 0.5) * ds) + 1j * (window.t_max - (r + 0.5) * dt)
        halfplane_tol = 1e-9 * (1.0 + np.max(np.abs(a)))
        excess = _halfplane_excess(a, job.theta_count, centres)
        if np.any(excess > _GUARD_TOLERANCES * halfplane_tol):
            return "k=2 envelope is not inside the rank-1 half-plane raster"
    return None


def _rotations(a, thetas):
    """Per angle: eigenvalues of H(e^{i theta} A), non-increasing, and its skew part in their basis."""
    a_rot = np.exp(1j * np.asarray(thetas))[:, None, None] * a
    a_ct = np.conj(np.swapaxes(a_rot, -1, -2))
    deltas, u = np.linalg.eigh(0.5 * (a_rot + a_ct))
    deltas, u = deltas[:, ::-1], u[:, :, ::-1]
    y = np.conj(np.swapaxes(u, -1, -2)) @ (0.5 * (a_rot - a_ct)) @ u
    return a_rot, deltas, y


def _window(a, k, cols, rows):
    """The job's window, by the program's rule applied to a frame at angle 0 built here."""
    a_rot, deltas, y = _rotations(a, [0.0])
    frame = SimpleNamespace(a_rot=a_rot[0], deltas=deltas[0], delta_next=deltas[0, k],
                            kappa=np.linalg.norm(y[0, k:, :k], 2) ** 2)
    return auto_window(frame, cols=cols, rows=rows)


def _adjugate(m):
    """Cofactor adjugate of a stack of k x k matrices."""
    k = m.shape[-1]
    if k == 1:
        return np.ones_like(m)
    adj = np.empty_like(m)
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(m, j, axis=-2), i, axis=-1)
            adj[..., i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _worst_margin(a, k, theta_count, points):
    """min over the angles of g at each point, by the definition of g.

    At s + i t = e^{i theta} p: g = kappa lambda_max(M_k) - |det W_k|^2
    (s - delta_{k+1}), with W_k = Delta_k + Y_k - (s + i t) I, M_k the
    Hermitian part of det(W_k) adj(W_k*) and kappa = ||Y[k:, :k]||_2^2.
    """
    thetas = 2.0 * np.pi * np.arange(theta_count) / theta_count
    _, deltas, y = _rotations(a, thetas)
    worst = np.full(points.shape, np.inf)
    for theta, d, ym in zip(thetas, deltas, y):
        z = np.exp(1j * theta) * points
        w = (ym[:k, :k] + np.diag(d[:k])) - z[:, None, None] * np.eye(k)
        det = np.linalg.det(w)
        p = det[:, None, None] * _adjugate(np.conj(np.swapaxes(w, -1, -2)))
        lam = np.linalg.eigvalsh(0.5 * (p + np.conj(np.swapaxes(p, -1, -2))))[:, -1]
        kappa = np.linalg.norm(ym[k:, :k], 2) ** 2
        worst = np.minimum(worst, kappa * lam - np.abs(det) ** 2 * (z.real - d[k]))
    return worst


def _halfplane_excess(a, theta_count, points):
    """max over the angles of Re(e^{i theta} p) - lambda_max(H(e^{i theta} A)) at each point."""
    thetas = 2.0 * np.pi * np.arange(theta_count) / theta_count
    _, deltas, _ = _rotations(a, thetas)
    excess = np.full(points.shape, -np.inf)
    for theta, d in zip(thetas, deltas):
        excess = np.maximum(excess, (np.exp(1j * theta) * points).real - d[0])
    return excess


def _check_svg(data):
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    paths = [e for e in root.iter("{http://www.w3.org/2000/svg}path")
             if e.get("class") == "curve"]
    return None if paths else "SVG holds no polylines"


def _check_csv(data):
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != "curve_id,kind,s,t":
        return "CSV header is wrong"
    if len(lines) < 2:
        return "CSV holds no vertices"
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            return f"CSV row has {len(fields)} fields"
        int(fields[0])
        float(fields[2])
        float(fields[3])
    return None


def _check_report(job, data):
    report = json.loads(data)
    n = _matrix(job.spec).shape[0]
    if report.get("contained") is not True:
        return "check report says the spectrum is not contained"
    eigenvalues = report.get("eigenvalues", [])
    if len(eigenvalues) != n:
        return f"check report lists {len(eigenvalues)} eigenvalues, expected {n}"
    tol = report["tolerance"]
    if any(e["min_g_over_theta"] < -tol for e in eigenvalues):
        return "an eigenvalue has min_g_over_theta below -tolerance"
    return None
