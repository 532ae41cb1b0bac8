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
