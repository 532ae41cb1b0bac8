"""Seeded job lists for the specbound benchmark.

Every job is one in-process call of ``specbound.cli.main(argv)``.  The
program only ever sees gallery specs; the random ones are
``random_complex:n=...,seed=...`` specs whose seeds are derived from the
benchmark's ``--seed``, so the same seed always gives the same job list.

Why each workload exists (see README.md for the metric mapping):

* ``raster_k2``   closed-form k=2 field plus the envelope mask loop; frames,
                  tracing and emission are negligible.
* ``raster_k3``   the only workload that runs the generic k>=3
                  cofactor/eigvalsh field on large point sets.
* ``figure``      overlay tracing, clipping, SVG/CSV emission, rotation
                  spectra and the numerical-range boundary; its field load
                  matches raster_k2.
* ``containment`` thousands of tiny field calls behind ``check`` at n=5
                  (job group ``check_n5``), plus one n=160 ``check``
                  (``check_n160``) whose frame solves dominate and set the
                  peak memory.  Nothing is drawn, traced or culled here.
"""

from __future__ import annotations

from dataclasses import dataclass

FIXED_MATRICES = ("toeplitz_eq1", "matrix_A1", "pair_A")
CURVE_FLAGS = ("--with-gamma-min", "--with-hyperbolas")

# Sizes per workload.  "full" is what a timed run uses; "smoke" is the tiny
# variant used by --smoke and as the untimed warm-up job of every run.
SIZES = {
    "raster_k2": {
        "full": {"grid": (240, 180), "theta_count": 120},
        "smoke": {"grid": (24, 18), "theta_count": 12},
    },
    "raster_k3": {
        "full": {"grid": (48, 36), "theta_count": 120},
        "smoke": {"grid": (12, 9), "theta_count": 12},
    },
    "figure": {
        "full": {"envelope_grid": (160, 120), "grid": (400, 300), "theta_count": 120},
        "smoke": {"envelope_grid": (24, 18), "grid": (40, 30), "theta_count": 12},
    },
    "containment": {
        "full": {"ensemble": 16, "big_n": 160, "theta_count": 120},
        "smoke": {"ensemble": 2, "big_n": 12, "theta_count": 12},
    },
}
WORKLOADS = tuple(SIZES)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv(out)`` gives its argument list."""

    group: str
    command: str
    spec: str
    k: int
    fmt: str
    theta_count: int
    grid: tuple | None = None
    flags: tuple = ()

    def argv(self, out):
        args = [self.command, "--gallery", self.spec, "--k", str(self.k),
                "--theta-count", str(self.theta_count)]
        if self.grid is not None:
            args += ["--grid", f"{self.grid[0]}x{self.grid[1]}"]
        if self.command != "check":
            args += ["--format", self.fmt]
        return args + list(self.flags) + ["--out", out]


def random_spec(seed, index, n=5):
    """Gallery spec of the index-th random matrix of a benchmark seed."""
    return f"random_complex:n={n},seed={(seed * 1_000_003 + index) % 2 ** 31}"


def parse_spec(spec):
    """(name, params) of a gallery spec string such as ``pair_A:eps=0.45``."""
    name, _, text = spec.partition(":")
    params = {}
    for item in filter(None, text.split(",")):
        key, _, value = item.partition("=")
        params[key] = int(value)
    return name, params


def _raster(seed, k, grid, theta_count):
    specs = FIXED_MATRICES + (random_spec(seed, 0),)
    return [Job(f"raster_k{k}", "envelope", s, k, "pgm", theta_count, grid) for s in specs]


def _figure(seed, envelope_grid, grid, theta_count):
    jobs = []
    for spec in ("toeplitz_eq1", random_spec(seed, 1)):
        jobs += [
            Job("figure", "envelope", spec, 2, "svg", theta_count, envelope_grid),
            Job("figure", "curve", spec, 2, "svg", theta_count, grid, CURVE_FLAGS),
            Job("figure", "curve", spec, 2, "csv", theta_count, grid, CURVE_FLAGS),
            Job("figure", "numrange", spec, 2, "svg", theta_count, grid),
        ]
    return jobs


def _containment(seed, ensemble, big_n, theta_count):
    # The n=5 ensemble is the kind acceptance criterion 04 sweeps.
    jobs = [Job("check_n5", "check", random_spec(seed, 100 + i), k, "json", theta_count)
            for i in range(ensemble) for k in (1, 2, 3)]
    jobs.append(Job(f"check_n{big_n}", "check", random_spec(seed, 900, n=big_n), 2, "json",
                    theta_count))
    return jobs


def jobs_for(workload, seed, size="full"):
    """The fixed job list of one pass of a workload."""
    params = SIZES[workload][size]
    if workload == "raster_k2":
        return _raster(seed, 2, **params)
    if workload == "raster_k3":
        return _raster(seed, 3, **params)
    if workload == "figure":
        return _figure(seed, **params)
    return _containment(seed, **params)
