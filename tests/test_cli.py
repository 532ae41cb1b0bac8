import json
import tracemalloc

import numpy as np
import pytest

from specbound import MatrixFileError, MatrixSpec, build_matrix, main, parse_matrix_file
from specbound.fileio import curves_csv
from specbound import CurveSet, Window


def test_parse_matrix_file_simple(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n0 1\n0 0\n")
    m = parse_matrix_file(p)
    assert np.array_equal(m, [[0, 1], [0, 0]])


def test_parse_matrix_file_complex_and_scientific(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("4 4\n1 1 0 0,1\n2 1 1 0\n3 2 1 1\n4e0 3.0 2 1\n")
    m = parse_matrix_file(p)
    assert m[0, 3] == 1j
    assert m[3, 0] == 4.0


def test_parse_matrix_file_rectangular_allowed():
    # squareness is the command's concern, not the parser's
    pass


def test_parse_matrix_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(MatrixFileError):
        parse_matrix_file(p)

    p.write_text("2 2\n1 x\n0 0\n")
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_file(p)
    assert err.value.line == 2 and err.value.column == 2

    p.write_text("2 2\n1 2 3\n0 0\n")
    with pytest.raises(MatrixFileError):
        parse_matrix_file(p)

    p.write_text("2 2\n1 2\n")
    with pytest.raises(MatrixFileError):
        parse_matrix_file(p)

    p.write_text("2 2\n1 nan\n0 0\n")
    with pytest.raises(MatrixFileError):
        parse_matrix_file(p)

    # a row past the declared n was once dropped, and check exited 0
    p.write_text("2 2\n1 0\n0 1\n5 5\n")
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_file(p)
    assert err.value.line == 4
    assert main(["check", "--matrix", str(p), "--k", "1", "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()
    p.write_text("2 2\n1 0\n0 1\n\n5 5\n\n")
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_file(p)
    assert err.value.line == 5
    p.write_text("2 2\n1 0\n0 1\n\n  \n")
    assert np.array_equal(parse_matrix_file(p), np.eye(2))


def test_gallery_command(capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    for name in ("a_tilde", "toeplitz_eq1", "frank", "random_complex"):
        assert name in out


def test_curve_svg_and_csv(tmp_path):
    svg = tmp_path / "curve.svg"
    rc = main([
        "curve", "--gallery", "a_tilde", "--k", "2",
        "--grid", "300x220", "--out", str(svg), "--format", "svg",
    ])
    assert rc == 0
    text = svg.read_text()
    assert "<svg" in text and "<path" in text
    assert 'stroke-dasharray' in text  # delta reference lines
    assert 'class="eigenvalue"' in text
    assert 'data-s-min=' in text

    csv = tmp_path / "curve.csv"
    rc = main([
        "curve", "--gallery", "a_tilde", "--k", "2",
        "--grid", "300x220", "--out", str(csv), "--format", "csv",
    ])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "curve_id,kind,s,t"
    data = np.array([[float(x) for x in ln.split(",")[2:]] for ln in lines[1:]])
    # the order-2 curve passes near the top of its loop at (2, +-3)
    assert np.min(np.hypot(data[:, 0] - 2.0, data[:, 1] - 3.0)) < 0.1


def test_curve_from_matrix_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("3 3\n3 0 -2\n0 1 -4\n2 4 0\n")
    out = tmp_path / "c.csv"
    rc = main(["curve", "--matrix", str(p), "--k", "1", "--grid", "200x150",
               "--out", str(out), "--format", "csv"])
    assert rc == 0 and out.exists()


def test_curve_optional_layers(tmp_path):
    out = tmp_path / "full.csv"
    rc = main([
        "curve", "--gallery", "a_hat", "--k", "2", "--grid", "250x180",
        "--with-gamma-min", "--with-hyperbolas",
        "--out", str(out), "--format", "csv",
    ])
    assert rc == 0
    kinds = {ln.split(",")[1] for ln in out.read_text().splitlines()[1:]}
    assert kinds == {"gamma_max", "gamma_min", "hyperbola"}


def test_envelope_pgm(tmp_path):
    out = tmp_path / "env.pgm"
    rc = main([
        "envelope", "--gallery", "toeplitz_eq1", "--k", "2",
        "--theta-count", "24", "--grid", "90x70", "--out", str(out),
        "--format", "pgm",
    ])
    assert rc == 0
    blob = out.read_bytes()
    assert blob.startswith(b"P5\n90 70\n255\n")
    assert len(blob) == len(b"P5\n90 70\n255\n") + 90 * 70
    assert 255 in blob[-90 * 70:]


def test_envelope_pgm_contains_eigenvalue_cells(tmp_path):
    out = tmp_path / "env120.pgm"
    rc = main([
        "envelope", "--gallery", "toeplitz_eq1", "--k", "2",
        "--theta-count", "120", "--grid", "120x90", "--window=-2.2,8.2,-7.2,7.2",
        "--out", str(out), "--format", "pgm",
    ])
    assert rc == 0
    blob = out.read_bytes()
    header = b"P5\n120 90\n255\n"
    assert blob.startswith(header)
    bits = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(90, 120)
    from specbound import MatrixSpec, build_matrix

    evs = np.linalg.eigvals(build_matrix(MatrixSpec("toeplitz_eq1")))
    for ev in evs:
        ci = int((ev.real - (-2.2)) / ((8.2 + 2.2) / 120))
        ri = int((7.2 - ev.imag) / ((7.2 + 7.2) / 90))
        assert bits[ri, ci] == 255


def test_envelope_svg_with_overlays(tmp_path):
    out = tmp_path / "env.svg"
    rc = main([
        "envelope", "--gallery", "toeplitz_eq1", "--k", "2",
        "--theta-count", "8", "--grid", "80x60", "--out", str(out),
        "--format", "svg",
    ])
    assert rc == 0
    text = out.read_text()
    assert 'class="raster"' in text and 'data-kind="overlay"' in text


def test_numrange_outputs(tmp_path):
    csv = tmp_path / "nr.csv"
    assert main(["numrange", "--gallery", "toeplitz_eq1", "--theta-count", "90",
                 "--out", str(csv), "--format", "csv"]) == 0
    assert csv.read_text().splitlines()[1].split(",")[1] == "numrange"

    pgm = tmp_path / "nr.pgm"
    assert main(["numrange", "--gallery", "toeplitz_eq1", "--k", "2",
                 "--theta-count", "40", "--grid", "60x50",
                 "--out", str(pgm), "--format", "pgm"]) == 0
    assert pgm.read_bytes().startswith(b"P5\n60 50\n255\n")


def test_check_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", "--gallery", "a_tilde", "--k", "2",
               "--theta-count", "60", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    # the check runs on A/scale, scale = 2^round(log2 max|a_ij|)
    a = build_matrix(MatrixSpec("a_tilde"))
    scale = report["scale"]
    assert np.log2(scale) == round(np.log2(np.max(np.abs(a))))
    assert report["contained"] is True
    assert report["matrix"] == {"n": 3, "source": "a_tilde"}
    assert len(report["eigenvalues"]) == 3
    for rec in report["eigenvalues"]:
        assert set(rec) == {"re", "im", "min_g_over_theta", "worst_theta"}
        assert rec["min_g_over_theta"] >= -report["tolerance"]


def test_check_random_matrices_contained(tmp_path):
    # seeded random 5x5 complex matrices all pass at k = 2
    for seed in range(100):
        rc = main(["check", "--gallery", f"random_complex:n=5,seed={seed}",
                   "--k", "2", "--theta-count", "40",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0


def test_check_gallery_defaults_contained(tmp_path):
    sizes = {"toeplitz_eq1": 4, "a_tilde": 3, "a_hat": 4, "pair_A": 4, "pair_B": 4,
             "matrix_C": 6, "matrix_F": 4, "matrix_A1": 4, "frank": 11}
    for name, n in sizes.items():
        for k in (1, 2, 3):
            if k > n - 1:
                continue
            rc = main(["check", "--gallery", name, "--k", str(k),
                       "--theta-count", "30", "--out", str(tmp_path / "g.json")])
            assert rc == 0, (name, k)


def test_exit_codes(tmp_path):
    # usage: missing matrix source
    assert main(["curve", "--k", "1", "--out", str(tmp_path / "x.svg")]) == 1
    # usage: unknown gallery name
    assert main(["curve", "--gallery", "nope", "--out", str(tmp_path / "x.svg")]) == 1
    # usage: bad k
    assert main(["curve", "--gallery", "a_tilde", "--k", "9",
                 "--out", str(tmp_path / "x.svg")]) == 1
    # usage: a k so large that the tolerance would overflow
    assert main(["check", "--gallery", "a_tilde", "--k", "600",
                 "--out", str(tmp_path / "x.json")]) == 1
    # usage: a negative rank level for numrange, in either raster format
    for fmt in ("svg", "pgm"):
        assert main(["numrange", "--gallery", "a_tilde", "--k", "-1", "--format", fmt,
                     "--out", str(tmp_path / f"x.{fmt}")]) == 1
    # usage: pgm for curve output
    assert main(["curve", "--gallery", "a_tilde", "--k", "1", "--format", "pgm",
                 "--out", str(tmp_path / "x.pgm")]) == 1
    # io: missing file
    assert main(["curve", "--matrix", str(tmp_path / "absent.txt"), "--k", "1",
                 "--out", str(tmp_path / "x.svg")]) == 2
    # io: non-square matrix
    rect = tmp_path / "rect.txt"
    rect.write_text("2 3\n1 2 3\n4 5 6\n")
    assert main(["curve", "--matrix", str(rect), "--k", "1",
                 "--out", str(tmp_path / "x.svg")]) == 2
    # io: malformed token
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 x\n0 0\n")
    assert main(["curve", "--matrix", str(bad), "--k", "1",
                 "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window", ["0,inf,0,1", "0,1,-1e308,1e308"])
@pytest.mark.parametrize("command, fmt", [("envelope", "pgm"), ("curve", "svg"),
                                          ("numrange", "pgm")])
def test_non_finite_window_is_a_usage_error(tmp_path, capsys, window, command, fmt):
    # an infinite bound, or finite bounds whose extent overflows, once gave
    # RuntimeWarnings, exit 0 and an all-zero raster
    out = tmp_path / f"w.{fmt}"
    rc = main([command, "--gallery", "toeplitz_eq1", "--k", "2", f"--window={window}",
               "--grid", "20x10", "--format", fmt, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _write_matrix(path, a):
    rows = [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in a]
    path.write_text(f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n")


def _assert_contained_at_scale(out, a):
    # the check runs on A/scale; the eigenvalues come back scaled by it
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2 and report["contained"] is True
    assert report["scale"] == 2.0 ** round(np.log2(np.max(np.abs(a))))
    got = np.array([complex(e["re"], e["im"]) for e in report["eigenvalues"]])
    want = np.linalg.eigvals(a)
    assert np.all(np.min(np.abs(got[:, None] - want[None, :]), axis=1)
                  <= 1e-12 * np.max(np.abs(a)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_overflow_exits_cleanly(tmp_path):
    # entries this large once overflowed the tolerance (exit 2); on A/scale
    # the check is an ordinary one, with no warning
    big = tmp_path / "big.txt"
    big.write_text("2 2\n1e200 1e200\n1e200 1e200\n")
    out = tmp_path / "r.json"
    rc = main(["check", "--matrix", str(big), "--k", "1", "--out", str(out)])
    assert rc == 0
    _assert_contained_at_scale(out, np.full((2, 2), 1e200))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor, k", [(1e60, 2), (1e100, 3), (1e150, 3)])
def test_check_scaled_matrix_exits_cleanly(tmp_path, factor, k):
    # 1e60, k=2: g once overflowed at every angle (exit 2, and before that a
    # report of containment with min_g inf); 1e100 and 1e150, k=3: the
    # tolerance once overflowed.  On A/scale each is an ordinary check.
    a = build_matrix(MatrixSpec("random_complex", {"n": 5, "seed": 3})) * factor
    path = tmp_path / "scaled.txt"
    _write_matrix(path, a)
    out = tmp_path / "r.json"
    rc = main(["check", "--matrix", str(path), "--k", str(k), "--out", str(out)])
    assert rc == 0
    _assert_contained_at_scale(out, a)


# g overflows on these: a 3x3 matrix of 1e120 entries at k = 2 once gave an
# empty curve and seven RuntimeWarnings, a 2x2 one of 1e200 at k = 1 a
# traceback under -W error::RuntimeWarning.
OVERFLOWING = (("3 3\n1e120 0 1e120\n0 2e120 0\n1e120 1e120 0\n", 2),
               ("2 2\n1e200 1e200\n1e200 1e200\n", 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, k", OVERFLOWING, ids=["3x3-1e120-k2", "2x2-1e200-k1"])
@pytest.mark.parametrize("command, fmt", [("curve", "csv"), ("curve", "svg"),
                                          ("envelope", "svg"), ("envelope", "csv")])
def test_overflowing_field_exits_cleanly(tmp_path, capsys, text, k, command, fmt):
    path = tmp_path / "big.txt"
    path.write_text(text)
    out = tmp_path / f"r.{fmt}"
    rc = main([command, "--matrix", str(path), "--k", str(k), "--grid", "40x30",
               "--theta-count", "12", "--format", fmt, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: arithmetic overflow")
    assert not out.exists()


def test_curve_memory_is_bounded(tmp_path):
    # the curve, its companion and the hyperbolas are sampled in row bands:
    # whole-grid sampling peaked at 58.6 MiB here
    args = ["curve", "--gallery", "random_complex:n=6,seed=3", "--k", "3", "--grid", "400x300",
            "--with-gamma-min", "--with-hyperbolas", "--out", str(tmp_path / "c.svg")]
    tracemalloc.start()
    try:
        rc = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 20 * 2 ** 20


def test_byte_identical_reruns(tmp_path):
    args_sets = [
        ["curve", "--gallery", "pair_A:eps=0.45", "--k", "2", "--grid", "200x160",
         "--format", "svg"],
        ["curve", "--gallery", "random_complex:n=4,seed=3", "--k", "2",
         "--grid", "150x120", "--format", "csv"],
        ["envelope", "--gallery", "toeplitz_eq1", "--k", "1", "--theta-count", "12",
         "--grid", "60x50", "--format", "pgm"],
        ["check", "--gallery", "random_complex:n=4,seed=8", "--k", "2",
         "--theta-count", "24"],
    ]
    for i, args in enumerate(args_sets):
        out1 = tmp_path / f"a{i}.out"
        out2 = tmp_path / f"b{i}.out"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("spec", ["random_complex:seed=nan", "random_complex:n=nan",
                                  "frank:n=nan", "random_complex:n=inf",
                                  "random_complex:n=2.5"])
def test_non_integral_gallery_size_or_seed_is_a_usage_error(tmp_path, capsys, spec):
    # nan once died with a traceback, inf exited 2 as "entries too large" and
    # 2.5 silently built a 2x2 matrix
    out = tmp_path / "r.json"
    assert main(["check", "--gallery", spec, "--k", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_seed_flag_feeds_random_gallery(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    main(["curve", "--gallery", "random_complex:n=4", "--seed", "7", "--k", "1",
          "--grid", "80x60", "--out", str(a), "--format", "csv"])
    main(["curve", "--gallery", "random_complex:n=4,seed=7", "--k", "1",
          "--grid", "80x60", "--out", str(b), "--format", "csv"])
    main(["curve", "--gallery", "random_complex:n=4,seed=8", "--k", "1",
          "--grid", "80x60", "--out", str(c), "--format", "csv"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_csv_writer_repr_precision():
    win = Window(0, 1, 0, 1, cols=4, rows=4)
    cs = CurveSet(polylines=(np.array([[0.1, 0.2000000001]]),), closed_flags=(False,),
                  window=win, kind="gamma_max")
    text = curves_csv([cs])
    assert text.splitlines()[1] == "0,gamma_max,0.1,0.2000000001"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here, not
    # at a user's "from specbound import *"
    import importlib
    import pkgutil

    import specbound

    modules = [specbound] + [
        importlib.import_module(f"specbound.{info.name}")
        for info in pkgutil.iter_modules(specbound.__path__)
        if not info.name.startswith("__")
    ]
    assert len(modules) > 1
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("command, fmt", [("curve", "pgm"), ("curve", "json"),
                                          ("envelope", "json"), ("numrange", "json")])
def test_unsupported_format_is_rejected_before_any_work(tmp_path, capsys, monkeypatch,
                                                        command, fmt):
    import specbound.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("matrix work started before the format was checked")

    for name in ("build_frame", "build_frames", "numerical_range_boundary"):
        monkeypatch.setattr(cli, name, no_work)
    rc = main([command, "--gallery", "toeplitz_eq1", "--k", "2", "--format", fmt,
               "--out", str(tmp_path / f"x.{fmt}")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / f"x.{fmt}").exists()


def test_envelope_svg_solves_the_frames_once(tmp_path, monkeypatch):
    import specbound.cli as cli
    import specbound.envelope as env
    from specbound.frame import build_frames

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return build_frames(*args, **kwargs)

    monkeypatch.setattr(cli, "build_frames", counted)
    monkeypatch.setattr(env, "build_frames", None)
    for fmt in ("svg", "pgm", "csv"):
        assert main(["envelope", "--gallery", "toeplitz_eq1", "--k", "2",
                     "--theta-count", "24", "--grid", "40x30", "--format", fmt,
                     "--out", str(tmp_path / f"e.{fmt}")]) == 0
    # one solve per job, which the raster and the overlays share
    assert [len(thetas) for thetas in calls] == [24, 24, 24]


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    import specbound.cli as cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    try:
        assert main(["envelope", "--gallery", "toeplitz_eq1", "--k", "3", "--grid", "40x30",
                     "--theta-count", "7", "--format", "pgm", "--out", "x"]) == 0
        assert main(["numrange", "--gallery", "matrix_A1"]) == 0
        assert main(["curve", "--gallery", "pair_A", "--with-gamma-min"]) == 0
        assert main(["check", "--gallery", "a_tilde"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    env, nr, curve, check = seen
    assert (env.k, env.grid, env.theta_count, env.fmt) == (3, (40, 30), 7, "pgm")
    assert (nr.k, nr.grid, nr.theta_count, nr.fmt, nr.out) == (0, (800, 600), 120, "svg", None)
    assert nr.gallery_spec.name == "matrix_A1"
    assert (curve.k, curve.include_gamma_min, curve.include_hyperbolas) == (1, True, False)
    assert (check.k, check.fmt, check.include_gamma_min) == (1, "json", False)
