import numpy as np

from specbound import (MatrixSpec, Window, auto_window, build_frame, build_matrix,
                       envelope_raster, numerical_range_boundary, rank_numrange_raster)
from specbound.envelope import RegionRaster
from specbound.fileio import (_CURVE_STYLES, _MARKER_HALF, _mapper, _raster_rects, curves_csv,
                              svg_document)
from specbound.trace import CurveSet


def _reference_svg(window, curve_sets, eigenvalues=(), vlines=(), raster=None, extra_attrs=None):
    """svg_document one raster cell and one vertex at a time.

    The loops the array formatting replaced; the numbers and their formats
    are the same, so the two documents must be equal byte for byte.
    """
    to_px = _mapper(window)
    w, h = window.cols, window.rows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}" data-s-min="{window.s_min!r}" '
        f'data-s-max="{window.s_max!r}" data-t-min="{window.t_min!r}" '
        f'data-t-max="{window.t_max!r}" data-cols="{w}" data-rows="{h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    if raster is not None:
        parts.append('<g class="raster" fill="#c9d8ef">')
        bits = raster.bits
        ph = h / bits.shape[0]
        pw = w / bits.shape[1]
        for r in range(bits.shape[0]):
            row = bits[r]
            c = 0
            while c < row.size:
                if row[c]:
                    c0 = c
                    while c < row.size and row[c]:
                        c += 1
                    parts.append(
                        f'<rect x="{c0 * pw:.4f}" y="{r * ph:.4f}" '
                        f'width="{(c - c0) * pw:.4f}" height="{ph:.4f}"/>'
                    )
                else:
                    c += 1
        parts.append("</g>")
    for value in vlines:
        x, _ = to_px(float(value), 0.0)
        if 0.0 <= x <= w:
            parts.append(
                f'<line class="delta-line" x1="{x:.4f}" y1="0" x2="{x:.4f}" '
                f'y2="{h}" stroke="#999999" stroke-width="0.8" '
                'stroke-dasharray="5 4"/>'
            )
    for cs in curve_sets:
        style = _CURVE_STYLES.get(cs.kind, _CURVE_STYLES["implicit"])
        attrs = f' data-kind="{cs.kind}"'
        if extra_attrs:
            attrs += "".join(f' {k}="{v}"' for k, v in extra_attrs.get(id(cs), {}).items())
        for poly, closed in zip(cs.polylines, cs.closed_flags):
            if len(poly) < 2:
                continue
            coords = [to_px(p[0], p[1]) for p in poly]
            d = "M " + " L ".join(f"{x:.4f},{y:.4f}" for x, y in coords)
            if closed:
                d += " Z"
            parts.append(f'<path class="curve" {style}{attrs} d="{d}"/>')
    for ev in eigenvalues:
        x, y = to_px(float(np.real(ev)), float(np.imag(ev)))
        parts.append(
            f'<rect class="eigenvalue" x="{x - _MARKER_HALF:.4f}" '
            f'y="{y - _MARKER_HALF:.4f}" width="{2 * _MARKER_HALF}" '
            f'height="{2 * _MARKER_HALF}" fill="none" stroke="#cc2222" '
            'stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _reference_csv(curve_sets):
    """curves_csv one vertex at a time, the loop the column formatting replaced."""
    rows = ["curve_id,kind,s,t"]
    curve_id = 0
    for cs in curve_sets:
        for poly in cs.polylines:
            for s, t in poly:
                rows.append(f"{curve_id},{cs.kind},{float(s)!r},{float(t)!r}")
            curve_id += 1
    return "\n".join(rows) + "\n"


def _row_join_csv(curve_sets):
    """curves_csv as a join of rows, a list of reprs per polyline, the writer the template replaced."""
    rows = ["curve_id,kind,s,t"]
    curve_id = 0
    for cs in curve_sets:
        for poly in cs.polylines:
            prefix = f"{curve_id},{cs.kind},"
            poly = np.asarray(poly, dtype=float).reshape(-1, 2)
            rows += [prefix + s + "," + t
                     for s, t in zip(map(repr, poly[:, 0].tolist()),
                                     map(repr, poly[:, 1].tolist()))]
            curve_id += 1
    return "\n".join(rows) + "\n"


WINDOW = Window(-1.25, 3.0, -2.0, 1.7, cols=9, rows=6)


def _raster(bits):
    bits = np.asarray(bits, dtype=bool)
    return RegionRaster(window=WINDOW, bits=bits, theta_count=1, k=0, ell=0, kind="test")


def _curves(kind, *polylines, closed=None):
    polylines = tuple(np.asarray(p, dtype=float).reshape(-1, 2) for p in polylines)
    flags = tuple(closed) if closed is not None else (False,) * len(polylines)
    return CurveSet(polylines=polylines, closed_flags=flags, window=WINDOW, kind=kind)


def test_raster_runs_match_the_per_cell_loop():
    # 7 columns over a 9 px wide figure and 5 rows over 6 px make fractional
    # cell sizes; runs touch both edges, single cells stand alone
    rng = np.random.default_rng(4)
    rasters = [
        np.zeros((5, 7)),
        np.ones((5, 7)),
        [[1, 1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 0, 1],
         [0, 0, 0, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1, 0]],
        np.eye(5, 7),
        rng.random((5, 7)) < 0.5,
        rng.random((1, 40)) < 0.5,
        np.ones((1, 1)),
    ]
    for bits in rasters:
        raster = _raster(bits)
        got = svg_document(WINDOW, [], raster=raster)
        assert got == _reference_svg(WINDOW, [], raster=raster)


def _nonzero_rects(bits, w, h):
    """_raster_rects from the steps of a padded 2-d int8 mask and np.nonzero."""
    ph = h / bits.shape[0]
    pw = w / bits.shape[1]
    padded = np.zeros((bits.shape[0], bits.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = bits
    steps = np.diff(padded, axis=1)
    r, c0 = np.nonzero(steps == 1)
    c1 = np.nonzero(steps == -1)[1]
    rect = '<rect x="{:.4f}" y="{:.4f}" width="{:.4f}" height="' + f'{ph:.4f}' + '"/>'
    return list(map(rect.format, (c0 * pw).tolist(), (r * ph).tolist(),
                    ((c1 - c0) * pw).tolist()))


def test_raster_rects_match_the_two_dimensional_runs():
    # random rasters with empty rows, full rows and several runs per row, and
    # the rasters of the benchmark figures: the envelope at 160 x 120 and the
    # rank-2 numerical range at 400 x 300
    rng = np.random.default_rng(8)
    rasters = [np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)]
    for rows, cols, p in ((6, 9, 0.5), (40, 33, 0.2), (50, 64, 0.9)):
        bits = rng.random((rows, cols)) < p
        bits[::5] = False
        bits[2::7] = True
        rasters.append(bits)
    seeded = MatrixSpec("random_complex", {"n": 5, "seed": 1000004})
    for a in (build_matrix(MatrixSpec("toeplitz_eq1")), build_matrix(seeded)):
        rasters.append(envelope_raster(a, 2, 120, auto_window(build_frame(a, 2), cols=160,
                                                              rows=120)).bits)
        box = numerical_range_boundary(a, 120).window
        win = Window(box.s_min, box.s_max, box.t_min, box.t_max, cols=400, rows=300)
        rasters.append(rank_numrange_raster(a, 2, 120, win).bits)
    for bits in rasters:
        for w, h in ((bits.shape[1], bits.shape[0]), (9, 6)):
            assert _raster_rects(bits, w, h) == _nonzero_rects(bits, w, h)


def test_paths_match_the_per_vertex_loop():
    # a one-vertex polyline is skipped, closed flags add Z, extra attributes
    # go on every path of their curve set, unknown kinds take the default
    # style, and a % in a kind or an attribute is written as it is
    rng = np.random.default_rng(8)
    gamma = _curves("gamma_max", [[0.5, 0.25]], rng.uniform(-3, 4, (40, 2)),
                    [[-1.25, -2.0], [3.0, 1.7]], closed=(True, True, False))
    overlay = _curves("overlay", rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (2, 2)),
                      closed=(True, False))
    odd = _curves("unknown%s", [[1e-300, -0.0], [2.5e-7, 1.2345678912345]])
    empty = _curves("hyperbola")
    extra = {id(overlay): {"data-experimental": "true", "data-n": "2", "data-p": "5% %.4f %%"}}
    curve_sets = [gamma, overlay, odd, empty]
    got = svg_document(WINDOW, curve_sets, eigenvalues=[0.5 + 0.5j, 9.0], vlines=[0.0, 99.0],
                       raster=_raster(np.eye(6, 9)), extra_attrs=extra)
    want = _reference_svg(WINDOW, curve_sets, eigenvalues=[0.5 + 0.5j, 9.0], vlines=[0.0, 99.0],
                          raster=_raster(np.eye(6, 9)), extra_attrs=extra)
    assert got == want
    assert got.count("<path") == 5 and got.count(" Z") == 2
    assert got.count('data-experimental="true" data-n="2" data-p="5% %.4f %%"') == 2
    assert got.count('data-kind="unknown%s"') == 1


def test_csv_matches_the_per_vertex_loop():
    # negative zero, subnormals, the largest float and large exponents print
    # with repr in all three writers; a % in a kind is written as it is, and
    # a polyline without vertices takes a curve id but writes no row
    values = [[-0.0, 0.0], [5e-324, -2.2250738585072014e-308],
              [1.7976931348623157e308, -1e300], [1e-300, 123456789.12345679],
              [0.1, -1.0 / 3.0]]
    rng = np.random.default_rng(2)
    scattered = rng.normal(size=(30, 2)) * 10.0 ** rng.integers(-20, 20, (30, 2))
    curve_sets = [_curves("gamma_max", values, [[7.0, -7.0]]), _curves("hyperbola"),
                  _curves("overlay", scattered), _curves("odd%s 5% %%r", [[1.5, -2.5]], []),
                  _curves("after", [[3.0, 4.0]])]
    got = curves_csv(curve_sets)
    assert got == _reference_csv(curve_sets) == _row_join_csv(curve_sets)
    assert "0,gamma_max,-0.0,0.0\n" in got and "0,gamma_max,5e-324," in got
    assert "3,odd%s 5% %%r,1.5,-2.5\n5,after,3.0,4.0\n" in got
    assert curves_csv([]) == _reference_csv([]) == "curve_id,kind,s,t\n"
    # each distinct float is formatted once: node abscissae and ordinates
    # repeat within a polyline, across polylines and across curve sets, as
    # do -0.0 and 0.0, which must keep their own text, and a value beside
    # its neighbour one unit in the last place away
    nodes = np.linspace(-2.0, 2.0, 9)
    near = float(np.nextafter(0.5, 1.0))
    grid = np.column_stack([np.repeat(nodes, 3), rng.choice(nodes, 27)])
    shared = [_curves("gamma_max", grid[:10], grid[10:], [[0.0, -0.0], [near, 0.5]]),
              _curves("gamma_min", grid[::-1], [[-0.0, 0.0], [0.5, near], [-0.0, -0.0]]),
              _curves("hyperbola", [[0.0, 0.0]], grid[5:9], [[near, near]])]
    got = curves_csv(shared)
    assert got == _reference_csv(shared) == _row_join_csv(shared)
    assert "2,gamma_max,0.0,-0.0\n" in got and "4,gamma_min,-0.0,0.0\n" in got
    assert f"2,gamma_max,{near!r},0.5\n" in got
