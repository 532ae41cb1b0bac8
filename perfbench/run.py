"""specbound benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload raster_k2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One client in one process runs the workload's fixed job list through
``specbound.cli.main(argv)`` one job at a time (a closed loop), pass after
pass, for ``--seconds``.  Every output is checked after its pass, outside
the timed region.

Times are given in seconds at a fixed reference speed.  On a small shared
machine other tenants slow everything the program does by up to 1.6x, for
stretches of seconds to minutes.  So a fixed calibration loop of pure-Python
and small-NumPy work, which calls nothing of specbound
(``probe.calibration_loop``), runs before and after every job, and each job
time is scaled by ``REFERENCE_S`` over the mean of the two loop times around
it: the time the job would take if the loop took ``REFERENCE_S``.  A set-up
probe is scaled by the loop time its own interpreter measures once ready.
A change to the program moves the job time and not the loop, so it shows
in full.  Each job's figure is the median of its scaled times over the
run's passes.  ``wall_s`` is the sum of those medians over the job list,
``job_p50_s`` their median (the detail line adds ``job_p90_s``), and
``setup_s`` the median scaled time of the set-up probes, one run before
each pass.  The detail line also gives the unscaled medians (``*_raw_s``)
and the median loop time.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, measured by wrapping each layer's entry points (see
tracer.py); ``bench.trace_overhead`` compares the two kinds of pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds every figure the run computed, including those not in BENCHMARK.json.  A full record
(environment, per-job SHA-256 digests, failures, pass walls) is written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``, and the spans of
a traced run to the matching ``-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Every run executes with one BLAS thread (never above nproc): the CLI's
# solves are small or batched over angles, and one thread keeps runs steady on
# a shared machine.  run.py re-executes itself to apply it, because BLAS
# libraries read it when they load.  The allocator keeps its defaults, so the
# times include the page faults a user's run pays for its arrays.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PROBE_TIMEOUT_S = 120
# The calibration loop time that scaled times refer to (about the median of
# probe.calibration_loop on a 2-vCPU KVM guest with Python 3.11, NumPy 2.4).
REFERENCE_S = 0.007


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check the metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specbound" / "__init__.py").is_file():
        print(f"perfbench: no specbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.smoke:
        return smoke(spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, detail = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}, sort_keys=True))
    missing = _missing(spec, args.trace, result)
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def _missing(spec, trace, result):
    """Names of the BENCHMARK.json metrics the result lacks."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]
            if m["name"] not in result["metrics"]]


def smoke(spec):
    """Every workload once at tiny sizes, untraced and traced."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(spec, workload, 1, 0.0, trace, size="smoke")
            missing = _missing(spec, trace, result)
            fail_ratio = result["failed"] / result["attempted"]
            ok &= not missing and fail_ratio == 0 and result["correct"]
            print(f"smoke {workload} trace={trace}: attempted={result['attempted']} "
                  f"fail_ratio={fail_ratio} missing={missing}", file=sys.stderr)
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def run_workload(spec, workload, seed, seconds, trace, size="full"):
    """Set up, run passes for ``seconds``, check outputs; returns (result, detail)."""
    import numpy as np
    from specbound.cli import main as cli_main

    from checks import check_output
    from probe import calibration_loop, prepare
    from tracer import Tracer
    from workloads import jobs_for

    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        if prepare(workload, seed, str(work)) != 0:
            raise RuntimeError("warm-up job failed")
        jobs = jobs_for(workload, seed, size)
        tracer = Tracer()
        calibrate = calibration_loop()
        passes = []
        setups = []
        failures = []
        verified = {}
        digests = [[] for _ in jobs]
        min_passes = 2 if trace else 1
        start = time.perf_counter()
        last = 0.0
        # Start no probe and pass that would end after the measuring time.
        while len(passes) < min_passes or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            elapsed, loop = _probe_setup(workload, seed, work)
            setups.append((elapsed, elapsed * REFERENCE_S / loop, loop))
            traced = bool(trace) and len(passes) % 2 == 1
            first_id = len(passes) * len(jobs)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times, loops, codes = _run_pass(cli_main, calibrate, jobs, work, tracer,
                                            traced, first_id)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            passes.append({"traced": traced, "wall": sum(t for t, _ in times),
                           "times": times, "loops": loops, "faults": faults,
                           "ids": range(first_id, first_id + len(jobs))})
            last = time.perf_counter() - began
            for i, (job, code) in enumerate(zip(jobs, codes)):
                reason = _verify(check_output, job, work / f"{i}.{job.fmt}", code,
                                 verified, digests[i])
                if reason:
                    failures.append({"pass": len(passes) - 1, "job": i,
                                     "argv": job.argv("OUT"), "reason": reason})
        attempted = len(passes) * len(jobs)
        untraced = [p for p in passes if not p["traced"]]
        scaled = _job_medians(untraced, 1)
        if trace:
            detail = _layer_metrics(tracer, passes)
            detail["groups"] = _group_layers(tracer, passes, jobs)
            traced_scaled = _job_medians([p for p in passes if p["traced"]], 1)
            detail["bench.trace_overhead"] = sum(traced_scaled) / sum(scaled) - 1.0
            detail["bench.minor_faults"] = statistics.median(
                p["faults"] for p in passes if not p["traced"])
            tracer.dump(RESULTS / f"{workload}-seed{seed}-spans.jsonl")
        else:
            ranked = sorted(scaled)
            raw = _job_medians(untraced, 0)
            detail = {
                "wall_s": sum(scaled),
                "job_p50_s": statistics.median(ranked),
                "job_p90_s": ranked[-(-9 * len(ranked) // 10) - 1],
                "setup_s": statistics.median(s for _, s, _ in setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "wall_raw_s": sum(raw),
                "job_p50_raw_s": statistics.median(raw),
                "setup_raw_s": statistics.median(r for r, _, _ in setups),
                "calibration_s": statistics.median(
                    [c for _, _, c in setups] + [c for p in passes for c in p["loops"]]),
                "page_faults_per_pass": statistics.median(p["faults"] for p in passes),
            }
        metrics = {m["name"]: {"value": detail[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer" if trace else "end_to_end"] if m["name"] in detail}
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len({(f["pass"], f["job"]) for f in failures}),
                  "metrics": metrics}
        record = {
            "environment": _environment(np, workload, seed, trace, size, len(jobs), attempted),
            "result": result,
            "detail": detail,
            "setup_samples_s": setups,
            "pass_walls_s": [[p["wall"], p["traced"]] for p in passes],
            "job_times_s": [p["times"] for p in passes],
            "calibration_loops_s": [p["loops"] for p in passes],
            "job_medians_s": scaled,
            "jobs": [{"argv": job.argv("OUT"), "sha256": d[0] if d else None,
                      "identical_across_passes": len(set(d)) <= 1}
                     for job, d in zip(jobs, digests)],
            "failures": failures,
            "unwrapped": sorted(tracer.missing),
            "hook_errors": tracer.hook_errors,
        }
        out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_pass(cli_main, calibrate, jobs, work, tracer, traced, first_id):
    """One pass over the job list, with the calibration loop before and after
    each job; returns (per-job (seconds, scaled seconds), loop times, exit codes)."""
    times = []
    loops = [calibrate()]
    codes = []
    with tracer.installed() if traced else nullcontext():
        for i, job in enumerate(jobs):
            argv = job.argv(str(work / f"{i}.{job.fmt}"))
            tracer.job = first_id + i
            t0 = time.perf_counter()
            try:
                if traced:
                    code = tracer.span("cli.main", cli_main, argv)
                else:
                    code = cli_main(argv)
            except Exception:  # a crashing job is a failed job, not a crashed run
                traceback.print_exc()
                code = None
            elapsed = time.perf_counter() - t0
            loops.append(calibrate())
            times.append((elapsed, elapsed * 2 * REFERENCE_S / (loops[-2] + loops[-1])))
            codes.append(code)
    return times, loops, codes




def _verify(check_output, job, path, code, verified, digests):
    """Check one job's output and delete it; returns a failure reason or None."""
    try:
        data = path.read_bytes() if code == 0 else None
        path.unlink(missing_ok=True)
    except OSError as exc:
        return f"no output: {exc}"
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(data).hexdigest()
    digests.append(digest)
    key = (job, digest)
    if key not in verified:
        try:
            verified[key] = check_output(job, data)
        except Exception as exc:  # malformed output is a failed check
            verified[key] = f"output check raised {exc!r}"
    return verified[key]


def _job_medians(passes, which):
    """Each job's median over the given passes of its seconds (``which`` 0)
    or scaled seconds (1)."""
    return [statistics.median(t[which] for t in times)
            for times in zip(*(p["times"] for p in passes))]


def _layer_metrics(tracer, passes):
    """Median over traced passes of each per-layer figure."""
    per_pass = [tracer.metrics(p["ids"], p["wall"]) for p in passes if p["traced"]]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _group_layers(tracer, passes, jobs):
    """Each layer's self time per job group, median over the traced passes."""
    from tracer import LAYERS

    keys = [f"{layer}.self_s" for layer in LAYERS] + ["trace.field_s"]
    groups = {}
    for group in dict.fromkeys(job.group for job in jobs):
        per_pass = [tracer.metrics([i for i, job in zip(p["ids"], jobs) if job.group == group],
                                   p["wall"]) for p in passes if p["traced"]]
        groups[group] = {k: statistics.median(m[k] for m in per_pass) for k in keys}
    return groups


def _probe_setup(workload, seed, work):
    """Seconds from spawning a fresh interpreter until it reports ready, and
    the calibration loop time that the interpreter measures after that."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            loop = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}, exit {proc.returncode}")
    return elapsed, float(loop)


def _environment(np, workload, seed, trace, size, jobs_per_pass, attempted):
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_env": RUN_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "jobs_per_pass": jobs_per_pass,
        "jobs_attempted": attempted,
    }


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over the program's source files, so runs name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **RUN_ENV})
    sys.exit(main())
