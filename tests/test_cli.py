import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specbound import MatrixFileError, MatrixSpec, build_matrix, main, parse_matrix_file
from specbound.fileio import curves_csv
from specbound import CurveSet, Window, theta_grid


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


def test_parse_matrix_file_rectangular_allowed(tmp_path):
    # squareness is the command's concern, not the parser's
    p = tmp_path / "rect.txt"
    p.write_text("2 3\n1 2 3\n4 5 6\n")
    m = parse_matrix_file(p)
    assert m.shape == (2, 3) and np.array_equal(m, [[1, 2, 3], [4, 5, 6]])
    for command in ("curve", "envelope", "numrange", "check"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--matrix", str(p), "--out", str(out)]) == 2, command
        assert not out.exists(), command


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


@pytest.mark.parametrize("fmt", ["svg", "csv", "pgm"])
def test_numrange_rank_level_above_n_is_a_usage_error_in_every_format(tmp_path, capsys,
                                                                       monkeypatch, fmt):
    # the level was checked only where a raster was drawn, so csv ignored it;
    # it is now checked once, before any solve
    import specbound.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the usage error")

    for name in ("numerical_range_boundary", "rank_numrange_raster"):
        monkeypatch.setattr(cli, name, no_solve)
    out = tmp_path / f"x.{fmt}"
    for k in (5, 99):
        assert main(["numrange", "--gallery", "toeplitz_eq1", "--k", str(k), "--format", fmt,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: numrange --k is a rank level in 0..4, got {k}\n"
    assert not out.exists()
    monkeypatch.undo()
    assert main(["numrange", "--gallery", "toeplitz_eq1", "--k", "4", "--format", fmt,
                 "--theta-count", "8", "--grid", "20x10", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["curve", "envelope", "numrange", "check"])
def test_out_of_memory_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch, command):
    # a grid such as 100000x100000 makes NumPy raise ArrayMemoryError, a
    # MemoryError; the runner raises one here instead of allocating it
    import specbound.cli as cli

    def too_large(ns):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setitem(cli._RUNNERS, command, too_large)
    out = tmp_path / "x.out"
    argv = [command, "--gallery", "toeplitz_eq1", "--k", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [3, 4])
def test_field_too_large_for_eigvalsh_exits_cleanly(tmp_path, capsys, k):
    # at 1e200 from the spectrum the blocks M_k are not finite, which once
    # made eigvalsh raise LinAlgError for the whole call and end in a traceback
    out = tmp_path / "x.svg"
    rc = main(["curve", "--gallery", "random_complex:n=6,seed=17", "--k", str(k),
               "--window=0,1e200,0,1e200", "--grid", "40x30", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cols, rows", [(120, 90), (800, 600)])
@pytest.mark.parametrize("fmt", ["svg", "csv", "pgm"])
def test_envelope_on_a_window_beyond_every_band_exits_cleanly(tmp_path, fmt, cols, rows):
    # 1e150 out, every angle's band misses the window's nodes; the overlays
    # once evaluated g there at the angles near pi/2 and exited 2 ("field is
    # not finite") in svg and csv, in calls of several angles (120x90) and
    # of one (800x600)
    out = tmp_path / f"far.{fmt}"
    rc = main(["envelope", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", f"{cols}x{rows}",
               "--window=1e150,2e150,-1,1", "--format", fmt, "--out", str(out)])
    assert rc == 0
    data = out.read_bytes()
    if fmt == "csv":
        assert data.decode("ascii").splitlines() == ["curve_id,kind,s,t"]
    elif fmt == "pgm":
        assert data == f"P5\n{cols} {rows}\n255\n".encode("ascii") + bytes(cols * rows)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 400. KiB for an array"),
                                   np.linalg.LinAlgError("Eigenvalues did not converge")])
def test_error_in_a_chunk_solve_exits_cleanly(tmp_path, capsys, monkeypatch, workers, error):
    # a later chunk of the n = 160 check fails; on two threads the pool is
    # shut down before the error reaches main, so no thread is left behind
    import threading

    import specbound.frame as frame_module

    monkeypatch.setattr(frame_module, "_WORKERS", workers)
    assert frame_module._chunk_plan(160, 60)[0] == workers
    solve = frame_module._solve_chunk
    failing_theta = theta_grid(120)[21]  # in chunk 21 of 60 (one thread: chunk 10 of 30)

    def failing(a, thetas):
        if failing_theta in thetas:
            raise error
        return solve(a, thetas)

    monkeypatch.setattr(frame_module, "_solve_chunk", failing)
    threads = threading.active_count()
    out = tmp_path / "r.json"
    rc = main(["check", "--gallery", "random_complex:n=160,seed=1", "--k", "2",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(error) in err
    assert "Traceback" not in err
    assert threading.active_count() == threads
    assert not out.exists()


def _python(code, *args, **env):
    """stdout of ``code`` run with ``args`` by a fresh interpreter that imports
    this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_thread_pool():
    # the pool module is imported only when a solve builds a pool
    code = "import sys, specbound.cli; print('concurrent.futures' in sys.modules)"
    assert _python(code).strip() == "False"


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


def test_main_sets_the_allocator_once_per_process(monkeypatch):
    import specbound.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_glibc_mallopt",
                        lambda: lambda option, value: calls.append((option, value)) or 1)
    cli._tune_allocator.cache_clear()
    try:
        assert main(["gallery"]) == 0
        assert main(["check", "--gallery", "a_tilde", "--k", "2", "--theta-count", "6",
                     "--out", os.devnull]) == 0
        assert cli._tune_allocator() is True
    finally:
        cli._tune_allocator.cache_clear()
    # M_MMAP_THRESHOLD at glibc's dynamic ceiling, then M_TRIM_THRESHOLD,
    # then M_ARENA_MAX
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20), (-8, 1)]


@pytest.mark.skipif(not _on_glibc(), reason="reads glibc's malloc statistics")
def test_import_leaves_the_allocator_untouched():
    # a fresh 8 MiB array is mmapped under glibc's defaults and, after the
    # first has lifted glibc's dynamic threshold to 8 MiB, so is a 24 MiB one;
    # once main() has set the mmap threshold to 32 MiB it comes from the heap.
    # Importing changes nothing
    code = """if True:
        import ctypes
        import numpy as np
        import specbound, specbound.cli

        libc = ctypes.CDLL(None)
        # mallinfo2 (glibc 2.33) has size_t fields, the older mallinfo ints
        mallinfo = getattr(libc, "mallinfo2", None) or libc.mallinfo
        field = ctypes.c_size_t if mallinfo.__name__ == "mallinfo2" else ctypes.c_int

        class Info(ctypes.Structure):
            _fields_ = [(name, field) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        mallinfo.restype = Info

        def mmapped(mib):
            before = mallinfo().hblkhd
            block = np.empty(mib * 2 ** 17)
            return mallinfo().hblkhd - before >= block.nbytes

        print(specbound.cli._tune_allocator.cache_info().currsize, mmapped(8))
        specbound.cli.main(["gallery"])
        print(specbound.cli._tune_allocator.cache_info().currsize, mmapped(24))
    """
    lines = _python(code).splitlines()
    assert lines[0] == "0 True"
    assert lines[-1] == "1 False"


@pytest.mark.parametrize("failure", ["OSError", "AttributeError", "TypeError",
                                     "rejected", "not-glibc"])
def test_allocator_settings_never_fail_a_run(tmp_path, monkeypatch, failure):
    import specbound.cli as cli

    calls = []

    def lookup():
        if failure == "not-glibc":
            return None
        if failure == "rejected":
            return lambda option, value: calls.append(option) or 0
        raise {"OSError": OSError, "AttributeError": AttributeError,
               "TypeError": TypeError}[failure]("no mallopt")

    runs = [["check", "--gallery", "random_complex:n=6,seed=2", "--k", "2",
             "--theta-count", "24"],
            ["envelope", "--gallery", "toeplitz_eq1", "--k", "2", "--theta-count", "12",
             "--grid", "48x36", "--format", "pgm"]]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"ref{i}")]) == 0
    monkeypatch.setattr(cli, "_glibc_mallopt", lookup)
    cli._tune_allocator.cache_clear()
    try:
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"out{i}")]) == 0
            assert (tmp_path / f"out{i}").read_bytes() == (tmp_path / f"ref{i}").read_bytes()
        assert cli._tune_allocator() is False
    finally:
        cli._tune_allocator.cache_clear()
    # a rejected mmap threshold leaves the trim threshold unset, which would
    # freeze glibc's mmap threshold at its 128 KiB start
    assert calls == ([-3] if failure == "rejected" else [])


@pytest.mark.skipif(not _on_glibc(), reason="counts page faults under glibc's malloc")
def test_allocator_settings_keep_check_arrays_resident():
    # the second n = 160 check of a process, with the chunks solved on two
    # threads where there are two CPUs: its freed frame arrays stay in the
    # heap instead of being faulted in again
    code = """if True:
        import os, resource, sys
        import specbound.cli as cli

        if sys.argv[1:] == ["stub"]:
            cli._tune_allocator = lambda: False
        argv = ["check", "--gallery", "random_complex:n=160,seed=1", "--k", "2",
                "--out", os.devnull]
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert cli.main(argv) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    faults = {}
    for side in ("stub", "tuned"):
        faults[side] = int(_python(code, side, OPENBLAS_NUM_THREADS="1"))
    assert faults["tuned"] < faults["stub"] / 4, faults


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


def test_check_at_singular_w_exits_cleanly(tmp_path):
    # A = diag(5, 4, 3, 2, 1, 0): at theta = 0 the eigenvalues 5, 4, 3 and 2
    # make W_4 singular, and those blocks share one batched inverse with
    # regular ones
    path = tmp_path / "diag.txt"
    _write_matrix(path, np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]))
    out = tmp_path / "r.json"
    rc = main(["check", "--matrix", str(path), "--k", "4", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["contained"] is True


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


# g of A overflows on these: a 3x3 matrix of 1e120 entries at k = 2 once gave
# an empty curve and seven RuntimeWarnings, a 2x2 one of 1e200 at k = 1 a
# traceback under -W error::RuntimeWarning, and later both exited 2.  Every
# subcommand now runs on A/scale, so they are ordinary matrices.
OVERFLOWING = (("3 3\n1e120 0 1e120\n0 2e120 0\n1e120 1e120 0\n", 2),
               ("2 2\n1e200 1e200\n1e200 1e200\n", 1))


SVG_NS = "http://www.w3.org/2000/svg"


def _assert_well_formed(data, fmt, cols, rows):
    if fmt == "pgm":
        header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
        assert data.startswith(header) and len(data) == len(header) + cols * rows
        pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header))
        assert set(pixels.tolist()) <= {0, 255}
    elif fmt == "csv":
        lines = data.decode("ascii").splitlines()
        assert lines[0] == "curve_id,kind,s,t" and len(lines) > 1
        xy = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
        assert np.all(np.isfinite(xy)) and np.max(np.abs(xy)) > 1e100
    else:
        root = ET.fromstring(data)
        assert any(e.get("class") == "curve" for e in root.iter(f"{{{SVG_NS}}}path"))
        assert float(root.get("data-s-max")) > 1e100


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, k", OVERFLOWING, ids=["3x3-1e120-k2", "2x2-1e200-k1"])
@pytest.mark.parametrize("command, fmt", [("curve", "csv"), ("curve", "svg"),
                                          ("envelope", "svg"), ("envelope", "csv"),
                                          ("envelope", "pgm")])
def test_overflowing_field_exits_cleanly(tmp_path, text, k, command, fmt):
    path = tmp_path / "big.txt"
    path.write_text(text)
    out = tmp_path / f"r.{fmt}"
    rc = main([command, "--matrix", str(path), "--k", str(k), "--grid", "40x30",
               "--theta-count", "12", "--format", fmt, "--out", str(out)])
    assert rc == 0
    _assert_well_formed(out.read_bytes(), fmt, 40, 30)


def test_numrange_pgm_on_a_given_window_needs_no_boundary(tmp_path, monkeypatch):
    # the boundary once was traced for every numrange job, so two angles gave
    # "numerical range boundary needs at least 3 angles" (exit 1)
    import specbound.cli as cli
    from specbound import rank_numrange_raster

    def no_boundary(*args, **kwargs):
        raise AssertionError("the boundary is neither written nor sets the window")

    monkeypatch.setattr(cli, "numerical_range_boundary", no_boundary)
    out = tmp_path / "nr.pgm"
    assert main(["numrange", "--gallery", "pair_A", "--k", "1", "--theta-count", "2",
                 "--window=-2,2,-2,2", "--grid", "20x10", "--format", "pgm",
                 "--out", str(out)]) == 0
    bits = rank_numrange_raster(build_matrix(MatrixSpec("pair_A")), 1, 2,
                                Window(-2.0, 2.0, -2.0, 2.0, cols=20, rows=10)).bits
    assert np.count_nonzero(bits) == 70
    assert out.read_bytes() == b"P5\n20 10\n255\n" + np.where(bits, 255, 0).astype(np.uint8).tobytes()


def test_envelope_on_a_given_window_solves_no_window_frame(tmp_path, monkeypatch):
    import specbound.cli as cli
    from specbound import build_frames, envelope_raster, theta_grid
    from specbound.envelope import envelope_overlays

    def no_frame(*args, **kwargs):
        raise AssertionError("only auto_window needs the frame at angle 0")

    monkeypatch.setattr(cli, "build_frame", no_frame)
    a = build_matrix(MatrixSpec("pair_A"))
    win = Window(-3.0, 4.0, -2.5, 2.5, cols=40, rows=30)
    outs = {}
    for fmt in ("pgm", "svg", "csv"):
        out = tmp_path / f"e.{fmt}"
        assert main(["envelope", "--gallery", "pair_A", "--k", "2", "--theta-count", "24",
                     "--window=-3,4,-2.5,2.5", "--grid", "40x30", "--format", fmt,
                     "--out", str(out)]) == 0
        outs[fmt] = out.read_bytes()
    bits = envelope_raster(a, 2, 24, win).bits
    assert outs["pgm"] == b"P5\n40 30\n255\n" + np.where(bits, 255, 0).astype(np.uint8).tobytes()
    overlays = envelope_overlays(build_frames(a, 2, theta_grid(24)), win)
    assert outs["csv"].decode() == curves_csv([overlays])
    assert outs["svg"].count(b'class="curve"') == len(overlays.polylines)


# Every subcommand and format the scale property runs: (command, format,
# extra arguments); {window} is the window -3,4,-2.5,2.5 scaled with A.
SCALE_RUNS = (("curve", "svg", ["--with-gamma-min", "--with-hyperbolas"]),
              ("curve", "csv", ["--with-gamma-min", "--with-hyperbolas"]),
              ("envelope", "pgm", []), ("envelope", "svg", []), ("envelope", "csv", []),
              ("envelope", "pgm", ["--window={window}"]),
              ("numrange", "pgm", []), ("numrange", "svg", []), ("numrange", "csv", []),
              ("check", "json", []))
SCALE_SOURCES = ("toeplitz_eq1", "pair_A", "random_complex:n=5,seed=3")
_WINDOW_ATTRS = re.compile(r' data-([st])-(min|max)="([^"]*)"')


def _outputs(directory, a, k, c):
    """The bytes of every run of SCALE_RUNS on c A, in order."""
    path = directory / "m.txt"
    _write_matrix(path, c * a)
    window = ",".join(repr(c * x) for x in (-3.0, 4.0, -2.5, 2.5))
    outs = []
    for i, (command, fmt, extra) in enumerate(SCALE_RUNS):
        out = directory / f"{i}.{fmt}"
        argv = [command, "--matrix", str(path), "--k", str(k), "--theta-count", "12",
                "--out", str(out)]
        argv += [arg.format(window=window) for arg in extra]
        if command != "check":
            argv += ["--format", fmt, "--grid", "24x18"]
        assert main(argv) == 0, argv
        outs.append(out.read_bytes())
    return outs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=16, deadline=None, derandomize=True)
@given(e=st.integers(-1000, 1000), which=st.integers(0, len(SCALE_SOURCES) - 1),
       k=st.integers(1, 3))
@example(e=400, which=0, k=1)
@example(e=-1000, which=2, k=3)
@example(e=1000, which=1, k=2)
def test_outputs_scale_with_the_matrix(e, which, k):
    # every output of 2^e A is that of A with each coordinate times 2^e; at
    # 2^400 curve and envelope once exited 2 (the field of A overflowed), and
    # at 2^-400 the default window was 1e120 times too wide
    from specbound.cli import _parse_gallery

    a = build_matrix(_parse_gallery(SCALE_SOURCES[which], None))
    c = 2.0 ** e
    assert np.array_equal(c * a / c, a)
    with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as scaled:
        want = _outputs(Path(base), a, k, 1.0)
        got = _outputs(Path(scaled), a, k, c)
    for (_, fmt, _), w, g in zip(SCALE_RUNS, want, got):
        if fmt == "pgm":
            assert g == w
        elif fmt == "csv":
            w_rows = [row.split(",") for row in w.decode().splitlines()]
            g_rows = [row.split(",") for row in g.decode().splitlines()]
            assert len(g_rows) == len(w_rows) > 1 and g_rows[0] == w_rows[0]
            for wr, gr in zip(w_rows[1:], g_rows[1:]):
                assert gr[:2] == wr[:2]
                assert [float(x) for x in gr[2:]] == [c * float(x) for x in wr[2:]]
        elif fmt == "svg":
            w_text, g_text = w.decode(), g.decode()
            assert _WINDOW_ATTRS.sub("", g_text) == _WINDOW_ATTRS.sub("", w_text)
            # every kind writes its window as four plain numbers: the numrange
            # SVG once wrote data-s-min="np.float64(...)"
            w_bounds = [float(m[2]) for m in _WINDOW_ATTRS.findall(w_text)]
            g_bounds = [float(m[2]) for m in _WINDOW_ATTRS.findall(g_text)]
            assert len(w_bounds) == 4 and g_bounds == [c * x for x in w_bounds]
        else:
            w_rep, g_rep = json.loads(w), json.loads(g)
            assert g_rep.pop("scale") == c * w_rep.pop("scale")
            w_evs, g_evs = w_rep.pop("eigenvalues"), g_rep.pop("eigenvalues")
            for we, ge in zip(w_evs, g_evs):
                assert (ge.pop("re"), ge.pop("im")) == (c * we.pop("re"), c * we.pop("im"))
            assert g_evs == w_evs and len(w_evs) == a.shape[0]
            del w_rep["matrix"]["source"], g_rep["matrix"]["source"]
            assert g_rep == w_rep


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


def test_curve_memory_is_bounded_at_order_4(tmp_path):
    # 10 hyperbolas on the default 800 x 600 grid, where one dense array of
    # them would take 38 MB: each is sampled on runs of nodes near its
    # branches, and the curve pair on the runs of its band, in calls of a
    # band of rows no larger than those of the whole grid.  The peak is
    # 5.6 MiB, against 11.33 MiB when every hyperbola node and the pair's
    # whole grid were sampled
    args = ["curve", "--gallery", "random_complex:n=6,seed=3", "--k", "4", "--with-gamma-min",
            "--with-hyperbolas", "--out", str(tmp_path / "c.svg")]
    tracemalloc.start()
    try:
        rc = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 6.5 * 2 ** 20


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
    # the parser rejects each of these argument lists, so no runner starts
    import specbound.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("matrix work started before the usage error")

    for name in ("build_matrix", "parse_matrix_file", "build_frame", "build_frames",
                 "numerical_range_boundary"):
        monkeypatch.setattr(cli, name, no_work)
    out = str(tmp_path / f"x.{fmt}")
    source = ["--gallery", "toeplitz_eq1"]
    for argv in ([*source, "--format", fmt, "--out", out],   # unsupported format
                 [*source, "--format", "svg"],               # no --out
                 ["--format", "svg", "--out", out],          # no matrix source
                 [*source, "--matrix", "m.txt", "--out", out]):  # both sources
        assert main([command, "--k", "2", *argv]) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
        assert not (tmp_path / f"x.{fmt}").exists(), argv


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
    for command in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, command, lambda ns: seen.append(ns) or 0)
    try:
        assert main(["envelope", "--gallery", "toeplitz_eq1", "--k", "3", "--grid", "40x30",
                     "--theta-count", "7", "--format", "pgm", "--out", "x"]) == 0
        assert main(["numrange", "--gallery", "matrix_A1", "--out", "y"]) == 0
        assert main(["curve", "--gallery", "pair_A", "--with-gamma-min", "--out", "z"]) == 0
        # check takes no grid and no window
        assert main(["check", "--gallery", "a_tilde", "--window=-1,1,-2,2"]) == 1
        assert main(["check", "--gallery", "a_tilde", "--grid", "1x1"]) == 1
        assert main(["check", "--gallery", "a_tilde", "--k", "2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    env, nr, curve, check = seen
    assert env.command == "envelope" and env.window is None
    assert (env.k, env.grid, env.theta_count, env.fmt) == (3, (40, 30), 7, "pgm")
    assert (nr.k, nr.grid, nr.theta_count, nr.fmt, nr.out) == (0, (800, 600), 120, "svg", "y")
    assert (nr.gallery, nr.matrix) == ("matrix_A1", None)
    assert (curve.k, curve.with_gamma_min, curve.with_hyperbolas) == (1, True, False)
    assert (check.k, check.out, check.theta_count) == (2, None, 120)
    for name in ("fmt", "with_gamma_min", "grid", "window"):
        assert not hasattr(check, name), name


def test_readme_command_lines_parse():
    # every example in the README's "Command line" block is accepted by the
    # parser, so the docs name no flag or format that it rejects
    import shlex

    import specbound.cli as cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("specbound ")]
    assert len(lines) >= 8
    for line in lines:
        ns = cli._parser().parse_args(shlex.split(line)[1:])
        assert ns.command in cli._RUNNERS, line
