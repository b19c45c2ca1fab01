"""reviewpipe benchmark: generate seeded review exports, run the decision
pipeline or the assignment on them in a fresh process, check the outputs
and print the metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload decide-raw-5526 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give the same figures with their sample counts, and the
machine the run was made on.  Full results (and, traced, the spans) are
written under ``.bench_out/``.  See README.md in this directory for the
metrics and the reasons for each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh imports timed for setup_s: half before the worker and half after
# it, so that the median spans the run on a machine whose speed drifts.
SETUP_REPEATS = 8
# A run must end within 180 s.  The worker is stopped when the whole run
# reaches this limit, and the run is then reported as one failed operation;
# the margin leaves room for the imports timed after the worker.
RUN_LIMIT_S = 160

WORKLOADS = {
    "decide-raw-5526": {
        "operation": "pipeline",
        "papers": 5526,
        "reviews": 18996,
        "reviewers": 3800,
        "format": "csv",
        "dequantize": True,
        "calibrate": False,
    },
    "decide-calibrated-200": {
        "operation": "pipeline",
        "papers": 200,
        "reviews": 688,
        "reviewers": 145,
        "format": "json",
        "dequantize": True,
        "calibrate": True,
    },
    "assign-1000": {
        "operation": "assign",
        "papers": 1000,
        "reviewers": 800,
        "candidates_per_paper": 30,
        "missing_tpms": 0.2,
        "author_share": 0.2,
        "conflict_share": 0.02,
    },
}

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "decision_quality": "ratio",
}

PER_LAYER = {
    "records.load.self_s": "s",
    "records.load.rows": "count",
    "records.load.rejected": "count",
    "records.validate.self_s": "s",
    "scoring.review_score.calls": "count",
    "scoring.build_score_table.self_s": "s",
    "scoring.rank_and_cut.self_s": "s",
    "dequant.dequantize.self_s": "s",
    "dequant.dequantize.papers": "count",
    "dequant.dequantize.peak_mb": "MiB",
    "calibration.fit.self_s": "s",
    "calibration.fit.grid_points": "count",
    "calibration.fit.grid_ok_ratio": "ratio",
    "calibration.fit.peak_mb": "MiB",
    "calibration.posterior.self_s": "s",
    "calibration.posterior.peak_mb": "MiB",
    "calibration.sample.self_s": "s",
    "calibration.sample.draws": "count",
    "calibration.sample.peak_mb": "MiB",
    "calibration.meta.self_s": "s",
    "pipeline.report.self_s": "s",
    "pipeline.report.bytes": "bytes",
    "pipeline.report.gray_disagree": "count",
    "pipeline.run.self_s": "s",
    "plots.emit.self_s": "s",
    "plots.emit.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Printed only on assign-1000, which BENCHMARK.json does not list (see
# README.md): the pipeline workloads never run these layers.
ASSIGN_LAYER = {
    "assignment.assign.self_s": "s",
    "assignment.assign.candidates": "count",
    "assignment.assign.pairs": "count",
    "assignment.assign.optimality_gap": "ratio",
    "assignment.check.self_s": "s",
}

# Fixed program settings of the workloads.
ACCEPTANCE_RATE = 40.0  # DecisionConfig default
N_SAMPLES = 1000  # PipelineConfig default
MIN_REVIEWERS, MAX_PAPERS, MAX_AUTHOR_REVIEWERS = 4, 6, 1  # assign defaults


def wanted_metrics(name: str, trace: bool) -> dict:
    """The metrics of the result line, name -> unit."""
    if not trace:
        return END_TO_END
    if WORKLOADS[name]["operation"] == "assign":
        return {**PER_LAYER, **ASSIGN_LAYER}
    return PER_LAYER


def prepare(name: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Generate the workload's input files (untimed); returns the worker's
    operation fields and the truth the checks compare against."""
    import numpy as np

    import corpus

    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    inputs = work / "inputs"
    if w["operation"] == "pipeline":
        reviews, metas, planted = corpus.review_corpus(
            rng, w["papers"], w["reviews"], w["reviewers"], ACCEPTANCE_RATE
        )
        paths = corpus.write_review_corpus(inputs, w["format"], reviews, metas)
        config = dict(
            paths,
            format=w["format"],
            dequantize=w["dequantize"],
            calibrate=w["calibrate"],
            n_samples=N_SAMPLES,
        )
        truth = {
            "papers": sorted({f.paper for f in reviews}),
            "planted": planted,
            "n_accept": len(planted),
            "calibrate": w["calibrate"],
            "n_samples": N_SAMPLES,
        }
        return {"operation": "pipeline", "config": config}, truth

    from checks import lp_bound, pair_similarity

    rows, tags, conflicts = corpus.assignment_instance(
        rng,
        w["papers"],
        w["reviewers"],
        w["candidates_per_paper"],
        w["missing_tpms"],
        w["author_share"],
        w["conflict_share"],
    )
    paths = corpus.write_assignment_instance(inputs, rows, tags, conflicts)
    similarity = {
        f"{r}|{p}": pair_similarity(bid, subject, tpms) for r, p, bid, subject, tpms in rows
    }
    papers = sorted({p for _, p, *_ in rows})
    authors = sorted(r for r, tag in tags.items() if tag == "Rev2")
    bound, form = lp_bound(
        similarity,
        papers,
        set(authors),
        set(conflicts),
        MIN_REVIEWERS,
        MAX_PAPERS,
        MAX_AUTHOR_REVIEWERS,
    )
    truth = {
        "papers": papers,
        "similarity": similarity,
        "authors": authors,
        "conflicts": conflicts,
        "min_reviewers": MIN_REVIEWERS,
        "max_papers": MAX_PAPERS,
        "max_author_reviewers": MAX_AUTHOR_REVIEWERS,
        "lp_bound": bound,
        "lp_form": form,
    }
    return {"operation": "assign", "inputs": paths}, truth


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Time of ``import reviewpipe`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import reviewpipe; "
        "print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_worker(spec_path: Path, timeout: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {out.returncode}")
    return json.loads(lines[-1])


def summarize(name: str, seed: int, trace: bool, setup: list, res: dict, truth: dict) -> dict:
    outcomes = res["outcomes"]
    failed = [o for o in outcomes if o["problems"]]
    plain = [o for o in outcomes if o["phase"] == "plain"]
    times = [o["seconds"] for o in plain if not any(p.startswith("raised") for p in o["problems"])]
    stats = next((o["stats"] for o in outcomes if o["stats"]), {})
    if "lp_bound" in truth:
        quality = stats.get("objective", 0.0) / truth["lp_bound"]
    else:
        quality = stats.get("accept_recall", 0.0)
    figures = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": res["peak_rss_mb"] - res["rss_before_mb"],
        "decision_quality": quality,
    }
    wanted = wanted_metrics(name, trace)
    values = res["layers"] if trace else figures
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": res["env"],
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": [p for o in failed for p in o["problems"]],
        "figures": figures,
        "quality_stats": stats,
        "lp_bound": truth.get("lp_bound"),
        "lp_form": truth.get("lp_form"),
        "setup_samples": setup,
        "wall_samples": times,
        "layers": res["layers"],
        "layers_missing": res.get("layers_missing", []),
        "layers_seen": res.get("layers_seen", []),
        "hook_errors": res.get("hook_errors", []),
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in wanted.items()},
    }


def report(s: dict):
    """Human-readable lines: every metric with its unit and sample count."""
    f = s["figures"]
    env = s["env"]
    print(f"workload {s['workload']}  seed {s['seed']}  trace {int(s['trace'])}")
    print(
        f"environment: nproc {env['nproc']} (usable {env['cpus_usable']}), python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']} "
        f"threads {env['blas_threads']} {env['thread_env'] or ''}; one worker process"
    )
    t = s["wall_samples"]
    spread = f"min {min(t, default=0):.4f} max {max(t, default=0):.4f}"
    rows = [
        ("setup_s", f["setup_s"], "s", f"median of {len(s['setup_samples'])} fresh imports"),
        ("wall_s", f["wall_s"], "s", f"median of {len(t)} operations, {spread}"),
        ("peak_rss_mb", f["peak_rss_mb"], "MiB", "peak RSS minus RSS before the first operation"),
        ("fail_rate", s["failed"] / s["attempted"], "ratio",
         f"{s['failed']} of {s['attempted']} operations"),
    ]
    q = s["quality_stats"]
    if "accept_recall" in q:
        rows.append(("accept_recall", q["accept_recall"], "ratio", "planted top papers accepted"))
    if "objective" in q:
        bound = f"LP bound {s['lp_bound']:.4f} ({s['lp_form']})"
        rows.append(("assign_objective", q["objective"], "similarity", bound))
        rows.append(("assign_shortfall", q["shortfall"], "papers", "below the reviewer floor"))
    rows.append(
        ("decision_quality", f["decision_quality"], "ratio", "recall, or objective / LP bound")
    )
    for name, value, unit, note in rows:
        print(f"  {name:<18} {value:>14.6g} {unit:<10} {note}")
    if s["trace"]:
        print(f"  traced layers seen: {', '.join(s['layers_seen']) or 'none'}")
        if s["layers_missing"]:
            print(f"  layers missing from the package: {', '.join(s['layers_missing'])}")
        for name, m in s["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for p in s["problems"][:10]:
        print(f"  problem: {p.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "reviewpipe" / "__init__.py").is_file():
        print(f"benchmark: no reviewpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    try:
        op, truth = prepare(args.workload, args.seed, work)
        (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
        spec = dict(
            op,
            src=str(SRC),
            truth=str(work / "truth.json"),
            work=str(work / "out"),
            seconds=args.seconds,
            trace=bool(args.trace),
            spans=str(results / f"{tag}-spans.json"),
        )
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        setup = [import_seconds() for _ in range(SETUP_REPEATS // 2)]
        t0 = time.perf_counter()
        try:
            res = run_worker(work / "spec.json", RUN_LIMIT_S - (t0 - started))
        except subprocess.TimeoutExpired:
            res = None
        worker_s = time.perf_counter() - t0
        if res is not None:
            setup += [import_seconds() for _ in range(SETUP_REPEATS // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if res is None:
        print(
            f"workload {args.workload}  seed {args.seed}: the worker was stopped after "
            f"{worker_s:.1f} s, at the run's {RUN_LIMIT_S} s limit"
        )
        wanted = wanted_metrics(args.workload, bool(args.trace))
        measured = {"setup_s": statistics.median(setup)}
        metrics = {k: {"value": measured.get(k, 0.0), "unit": u} for k, u in wanted.items()}
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}))
        return 0

    s = summarize(args.workload, args.seed, bool(args.trace), setup, res, truth)
    s["worker_s"] = worker_s
    (results / f"{tag}.json").write_text(json.dumps(s, indent=1) + "\n", encoding="utf-8")
    report(s)
    print(
        json.dumps(
            {
                "correct": s["failed"] == 0,
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": s["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
