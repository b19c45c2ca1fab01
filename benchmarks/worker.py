"""One workload in one fresh process: repeat the workload's operation on
inputs already on disk, check every output, and print one JSON line.

Usage: python3 worker.py <spec.json>

The spec (written by run.py) names the operation, its input files, the
planted truth for the checks, the measuring time and whether to trace.
With tracing, the first half of the time runs untraced, a quarter under
a span tracer (self times and counts) and a quarter under a tracemalloc
tracer (peaks); the difference between the untraced and the span-traced
medians is the tracing cost.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from checks import artifact_digest, check_assignment, check_pipeline

MIN_OPERATIONS = 2  # untraced, so the rerun digest check always has a pair


def rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded in this process, if any."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "machine": platform.machine(),
    }


# The operations look the entry point up on each call, so that a tracer
# installed after set-up sees it.


def pipeline_operation(spec):
    import reviewpipe

    def run(out_dir: Path):
        reviewpipe.run_pipeline(reviewpipe.PipelineConfig(**spec["config"], out_dir=str(out_dir)))

    return run, check_pipeline


def assignment_operation(spec):
    import reviewpipe.cli

    argv = ["assign"]
    for flag, path in spec["inputs"].items():
        argv += [f"--{flag}", path]

    def run(out_dir: Path):
        code = reviewpipe.cli.main(argv + ["--out", str(out_dir)])
        # 1 means a paper stayed below the reviewer floor; the check decides
        # whether a full cover existed
        if code not in (0, 1):
            raise RuntimeError(f"reviewpipe assign exited with {code}")

    return run, check_assignment


def measure(run, check, truth, work, seconds, outcomes, phase, tracer=None, min_ops=1):
    """Repeat the operation for ``seconds`` (at least ``min_ops`` times),
    appending one outcome per operation."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        index = len(outcomes)
        out_dir = work / f"op{index:03d}"
        if tracer is not None:
            tracer.run = index
        outcome = {"index": index, "phase": phase, "problems": [], "stats": {}}
        t0 = time.perf_counter()
        try:
            run(out_dir)
        except Exception:
            outcome["problems"].append("raised: " + traceback.format_exc(limit=4))
        outcome["seconds"] = time.perf_counter() - t0
        if not outcome["problems"]:
            try:
                problems, outcome["stats"] = check(out_dir, truth)
            except Exception:  # an artifact too malformed to read
                problems = ["check raised: " + traceback.format_exc(limit=4)]
            outcome["problems"] += problems
            outcome["digest"] = artifact_digest(out_dir)
            first = next((o["digest"] for o in outcomes if "digest" in o), None)
            if first is not None and outcome["digest"] != first:
                outcome["problems"].append("artifacts differ from the run's first repetition")
        shutil.rmtree(out_dir, ignore_errors=True)
        outcomes.append(outcome)
        done += 1


def layer_values(tracer, outcomes, lp_bound) -> dict:
    """Median over the tracer's operations of each per-operation layer
    figure, with the two ratios derived here."""
    per_run = tracer.per_run()
    rows = []
    for o in outcomes:
        d = dict(per_run.get(o["index"], {}))
        points = d.get("calibration.fit.grid_points", 0.0)
        if points:
            d["calibration.fit.grid_ok_ratio"] = d.get("calibration.nll.calls", 0.0) / points
        if lp_bound and "objective" in o["stats"]:
            d["assignment.assign.optimality_gap"] = 1.0 - o["stats"]["objective"] / lp_bound
        rows.append(d)
    names = sorted({k for d in rows for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in rows) for k in names}


def traced_phases(run, check, truth, work, seconds, outcomes) -> tuple[dict, dict]:
    """A timing tracer, then a tracemalloc tracer, each for ``seconds``.
    Returns (layer figures, trace notes); writes no file."""
    from tracer import Tracer

    figures = {}
    spans = {}
    for phase, memory in (("timing", False), ("memory", True)):
        tracer = Tracer(memory=memory)
        first = len(outcomes)
        tracer.install()
        if memory:
            tracemalloc.start()
        try:
            measure(run, check, truth, work, seconds, outcomes, phase, tracer)
        finally:
            if memory:
                tracemalloc.stop()
            tracer.uninstall()
        values = layer_values(tracer, outcomes[first:], truth.get("lp_bound"))
        figures.update(
            {k: v for k, v in values.items() if k.endswith(".peak_mb") == memory}
        )
        spans[phase] = tracer.span_records()
        if not memory:
            notes = {
                "layers_missing": tracer.missing,
                "layers_seen": sorted(tracer.layers_seen()),
                "hook_errors": tracer.hook_errors,
            }
    return figures, dict(notes, spans=spans)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    import reviewpipe

    if src not in Path(reviewpipe.__file__).resolve().parents:
        print(f"reviewpipe imported from {reviewpipe.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment()
    truth = json.loads(Path(spec["truth"]).read_text(encoding="utf-8"))
    make = pipeline_operation if spec["operation"] == "pipeline" else assignment_operation
    run, check = make(spec)
    work = Path(spec["work"])
    outcomes: list[dict] = []

    rss_before = rss_mb()
    seconds = spec["seconds"]
    if not spec["trace"]:
        measure(run, check, truth, work, seconds, outcomes, "plain", min_ops=MIN_OPERATIONS)
        layers, notes = {}, {}
    else:
        measure(run, check, truth, work, seconds / 2, outcomes, "plain", min_ops=MIN_OPERATIONS)
        layers, notes = traced_phases(run, check, truth, work, seconds / 4, outcomes)
        plain = [o["seconds"] for o in outcomes if o["phase"] == "plain"]
        timed = [o["seconds"] for o in outcomes if o["phase"] == "timing"]
        layers["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
        Path(spec["spans"]).write_text(json.dumps(notes.pop("spans")) + "\n", encoding="utf-8")
    peak = peak_rss_mb()
    print(
        json.dumps(
            {
                "env": env,
                "outcomes": outcomes,
                "rss_before_mb": rss_before,
                "peak_rss_mb": peak,
                "layers": layers,
                **notes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
