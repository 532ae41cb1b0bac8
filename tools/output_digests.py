"""Print the exit code and output digest of a fixed list of command lines.

Each command line of ``ARGVS`` runs in-process through
``specbound.cli.main``, with ``--out`` a file in a fresh temporary
directory.  One line per command line is printed:
``<exit code> <SHA-256 of the output file, or - when none was written> <argv>``.
Two versions of the program give the same outputs on these command lines
when their lines are the same, so comparing them is one ``diff``:

    PYTHONPATH=src python3 tools/output_digests.py > before.txt
    # ... switch to the other version ...
    PYTHONPATH=src python3 tools/output_digests.py > after.txt
    diff before.txt after.txt

Run as a script, it sets one BLAS thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``, where not already set), as the
benchmark runs.  The list takes a few minutes on one core; the default-size
``envelope --k 3 --format svg`` takes the longest.

The list: ``curve`` (svg and csv, with ``--with-gamma-min
--with-hyperbolas``), ``envelope`` (pgm, svg, csv), ``numrange`` (svg, csv,
pgm) at 200x150 and ``check``, at k = 1..4 on five matrices (orders a
matrix does not have exit 1); the default 800x600 grid on ``toeplitz_eq1``
at k = 1 for every format of ``curve``, ``envelope`` and ``numrange``;
default-size ``curve
--with-gamma-min`` and ``envelope --format svg`` at k = 2 and 3; and
``curve`` and ``envelope`` on windows left of, across and right of the
band delta_{k+1} <= s <= delta_1, one of them too far out to evaluate g.
After those come ``envelope`` PGM and SVG at k = 1..3 on windows inside
the numerical range W(A), straddling its edge and missing it, and the far
window's ``envelope --format csv``.  Last come ``curve
--with-hyperbolas`` on a tall window, a wide one and one through the
hyperbola vertices, at k = 4 on the default grid, and on a window 2e300
wide; then ``envelope`` SVG and CSV at k = 2 and 4 on the grids whose
overlay grids hold two and one whole grids per field call; then ``curve
--format csv --with-gamma-min --with-hyperbolas`` at k = 2, 3 and 4 on a
400x300 grid, where the curve pair is split over field calls, and the
default-grid ``envelope --format csv``.  Then ``numrange`` PGM and SVG at
every rank level of two matrices on the default grid, with 1 and 7 angles
on a given window, and on windows straddling the numerical range and far
beyond it.  A new line goes at the end, so the lines of an older list can
still be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

MATRICES = ("toeplitz_eq1", "a_hat", "pair_A", "matrix_C", "random_complex:n=6,seed=17")
CURVE_FLAGS = ["--with-gamma-min", "--with-hyperbolas"]


def _runs(spec, k, grid):
    """Every subcommand and format on one matrix and order."""
    at = ["--gallery", spec, "--k", str(k)]
    sized = at + ([] if grid is None else ["--grid", grid])
    return ([["curve", *sized, "--format", fmt, *CURVE_FLAGS] for fmt in ("svg", "csv")]
            + [["envelope", *sized, "--format", fmt] for fmt in ("pgm", "svg", "csv")]
            + [["numrange", *sized, "--format", fmt] for fmt in ("svg", "csv", "pgm")]
            + [["check", *at]])


def _argvs():
    argvs = [argv for spec in MATRICES for k in range(1, 5) for argv in _runs(spec, k, "200x150")]
    argvs += _runs("toeplitz_eq1", 1, None)[:-1]  # check has no grid: it is in the sweep
    for k in ("2", "3"):
        argvs += [["curve", "--gallery", "toeplitz_eq1", "--k", k, "--with-gamma-min"],
                  ["envelope", "--gallery", "toeplitz_eq1", "--k", k, "--format", "svg"]]
    # toeplitz_eq1 at k = 2 has its band within -0.5 <= s <= 5.8
    for window in ("-3,-1,-1,1", "-1,1,-1,1", "6,9,-1,1", "1e150,2e150,-1,1"):
        argvs += [["curve", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", "120x90",
                   f"--window={window}", "--with-gamma-min"],
                  ["envelope", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", "120x90",
                   f"--window={window}", "--format", "svg"]]
    # toeplitz_eq1's numerical range holds the square 0..2 x -1..1 and meets
    # the line s = 5.78; the window 7..10 misses it
    for k in ("1", "2", "3"):
        for window in ("0,2,-1,1", "4,8,-2,2", "7,10,-1,1"):
            argvs += [["envelope", "--gallery", "toeplitz_eq1", "--k", k, "--grid", "120x90",
                       f"--window={window}", "--format", fmt] for fmt in ("pgm", "svg")]
    argvs.append(["envelope", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", "120x90",
                  "--window=1e150,2e150,-1,1", "--format", "csv"])
    # the hyperbolas on a tall window (dt/ds about 15), a wide one (about
    # 1/30) and one whose bottom edge t = 0 holds every branch vertex
    # (s = delta_j), then at k = 4 on the default grid
    for window in ("-1,6,-40,40", "-40,40,-1,1", "-0.5,5.78042109,0,3"):
        argvs += [["curve", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", "120x90",
                   f"--window={window}", "--with-hyperbolas", "--format", fmt]
                  for fmt in ("svg", "csv")]
    argvs += [["curve", "--gallery", "random_complex:n=6,seed=17", "--k", "4",
               "--with-hyperbolas", "--format", fmt] for fmt in ("svg", "csv")]
    # g overflows on this window's band box; the exit code is pinned
    argvs.append(["curve", "--gallery", "toeplitz_eq1", "--k", "2",
                  "--window=-1e300,1e300,-1e300,1e300", "--with-hyperbolas", "--format", "csv"])
    # overlays on half grids of 128x64 = 2^13 nodes, two whole grids to a
    # field call of 2^14 values, and of 129x65, one grid to a call
    argvs += [["envelope", "--gallery", "random_complex:n=6,seed=17", "--k", k, "--grid", grid,
               "--format", fmt]
              for grid in ("256x128", "258x130") for k in ("2", "4") for fmt in ("svg", "csv")]
    # the curve pair holds more run nodes than one field call at each order,
    # so it is split into bands of rows; then the default-grid envelope CSV
    argvs += [["curve", "--gallery", "random_complex:n=6,seed=17", "--k", k, "--grid", "400x300",
               "--format", "csv", *CURVE_FLAGS] for k in ("2", "3", "4")]
    argvs.append(["envelope", "--gallery", "toeplitz_eq1", "--k", "2", "--format", "csv"])
    # numrange rasters at every rank level on the default grid; one and 7
    # angles on a given window; windows straddling W(A) and far beyond it.
    # toeplitz_eq1 at level 1 on the default grid is listed above.
    for spec, levels in (("toeplitz_eq1", (0, 2, 3, 4)), ("random_complex:n=6,seed=17", range(7))):
        argvs += [["numrange", "--gallery", spec, "--k", str(ell), "--format", fmt]
                  for ell in levels for fmt in ("pgm", "svg")]
    argvs += [["numrange", "--gallery", "toeplitz_eq1", "--k", "2", "--grid", "120x90",
               "--window=-3,3,-3,3", "--theta-count", count, "--format", fmt]
              for count in ("1", "7") for fmt in ("pgm", "svg")]
    argvs += [["numrange", "--gallery", "toeplitz_eq1", "--k", "1", "--grid", "120x90",
               f"--window={window}", "--format", fmt]
              for window in ("4,8,-2,2", "1e150,2e150,-1,1") for fmt in ("pgm", "svg")]
    return argvs


ARGVS = _argvs()


def digests(argvs):
    """Yield one ``<exit code> <digest> <argv>`` line per command line, as each one ends."""
    from specbound.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(argvs):
            out = Path(tmp) / f"out{i}"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv) + ["--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
            yield f"{code} {digest} {' '.join(argv)}"


def main():
    for line in digests(ARGVS):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(main())
