"""Set-up of one benchmark run, also used as a fresh-interpreter probe.

``prepare`` imports specbound, builds every gallery matrix of the workload
and runs one untimed warm-up job.  Run as a script it does the same in a
fresh interpreter and prints ``ready``, then the time of the calibration
loop in that interpreter; run.py times the spawn to the ``ready`` line and
scales it by that loop time to measure ``setup_s``:

    python3 perfbench/probe.py <workload> <seed> <output-dir>
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# Size of the calibration loop (see calibration_loop).
LOOPS = 50_000
CALLS = 75


def prepare(workload, seed, out_dir):
    """Import, build the gallery matrices, run the warm-up job; returns its exit code."""
    from specbound.cli import main as cli_main
    from specbound.gallery import MatrixSpec, build_matrix

    from workloads import jobs_for, parse_spec

    for spec in sorted({job.spec for job in jobs_for(workload, seed)}):
        build_matrix(MatrixSpec(*parse_spec(spec)))
    warm = jobs_for(workload, seed, "smoke")[0]
    return cli_main(warm.argv(os.path.join(out_dir, f"warmup.{warm.fmt}")))


def calibration_loop():
    """The calibration loop: a function returning the seconds that a fixed
    piece of pure-Python and small-NumPy work takes right now.  Interpreter
    and small-array dispatch are what most of specbound's jobs spend their
    time on, and other tenants slow both alike."""
    import numpy as np

    rng = np.random.default_rng(0)
    batch = rng.standard_normal((8, 5, 5))
    batch = batch + batch.transpose(0, 2, 1)
    vector = rng.standard_normal(64)

    def calibrate():
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i
        for _ in range(CALLS):
            np.linalg.eigvalsh(batch)
            np.sort(vector)
            np.abs(vector).max()
            np.concatenate([vector, vector])
        return time.perf_counter() - t0

    return calibrate


if __name__ == "__main__":
    code = prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready" if code == 0 else f"warm-up job exited with {code}", flush=True)
    calibrate = calibration_loop()
    print(statistics.median(calibrate() for _ in range(3)), flush=True)
    sys.exit(code)
