"""One calibrated pipeline run at the paper's scale, and a comparison of two.

Draws a review corpus with ``benchmarks/corpus.py``, the paper's 5,526
papers with 18,996 reviews by 7,877 reviewers, by default at seed 7, and
writes it under ``DIR/inputs`` as the package's CSV exports.  Then runs
``run_pipeline`` once on it, into ``DIR/pipeline``, with dequantization
and calibration on, the benchmark's acceptance rate and 1,000 samples.
Prints one JSON line: the sizes, the seed, the run's wall time, the
process's peak resident memory (VmHWM) before and after the run, each
side's likelihood evaluations from ``calibration_fit.json``, the
tracemalloc peaks of the sampler and of one block of its draws (each
above the memory in use when it started), and each artifact's sha256.

    PYTHONPATH=src python tools/paper_scale.py --out after
    PYTHONPATH=../parent/src python tools/paper_scale.py --out before
    python tools/paper_scale.py --compare before after

``--compare`` prints one JSON line for each file under the two
directories, inputs included, that differs or is in only one of them.  For
a CSV file with the same header and row count it gives, per column,
whether the fields that are not floats are equal and the largest
difference between the floats; integers and floats that are not finite
count as text.  The lines and the exit status are those of
``tools/artifact_digest.py --compare``: a last line gives the number of
files compared and the number that differ, and the exit status is 1 when
any differs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "benchmarks")]

# the paper's submissions, reviews and reviewers, and the seed of its figures
PAPERS, REVIEWS, REVIEWERS, SEED = 5526, 18996, 7877, 7


def vm_hwm_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and its tracemalloc peak in MiB above the memory in
    use when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def run_once(out: Path, seed: int, papers: int, reviews: int, reviewers: int) -> dict:
    """Draw and write the corpus, run the pipeline on it and return the
    JSON line.  The sampler runs under tracemalloc after one block of draws
    of its own, both inside the timed run."""
    import numpy as np

    import artifact_digest
    import corpus
    import run as bench
    from reviewpipe import PipelineConfig, run_pipeline
    from reviewpipe import pipeline
    from reviewpipe.calibration import SAMPLE_BLOCK

    drawn, metas, _ = corpus.review_corpus(
        np.random.default_rng(seed), papers, reviews, reviewers, bench.ACCEPTANCE_RATE
    )
    paths = corpus.write_review_corpus(out / "inputs", "csv", drawn, metas)
    del drawn, metas  # the run reads the files
    peaks = {}
    sample = pipeline.acceptance_probability

    @functools.wraps(sample)
    def measured(mu_y, sigma_y, *args, **kwargs):
        rng = np.random.default_rng(0)  # not the sampler's generator
        block, peaks["draw_mib"] = traced_peak(sigma_y.draw, rng, SAMPLE_BLOCK)
        peaks["draw_result_mib"] = block.nbytes / 2**20
        del block
        estimate, peaks["sampler_mib"] = traced_peak(sample, mu_y, sigma_y, *args, **kwargs)
        return estimate

    config = PipelineConfig(
        **paths, format="csv", out_dir=str(out / "pipeline"), dequantize=True, calibrate=True,
        n_samples=bench.N_SAMPLES,
    )
    before = vm_hwm_mib()
    pipeline.acceptance_probability = measured
    try:
        start = time.perf_counter()
        result = run_pipeline(config)
        wall = time.perf_counter() - start
    finally:
        pipeline.acceptance_probability = sample
    fit = result.fit_summary
    return {
        "papers": papers, "reviews": reviews, "reviewers": reviewers, "seed": seed,
        "wall_s": round(wall, 3), "vm_hwm_mib": [before, vm_hwm_mib()],
        "evaluations": {"review": fit["evaluations"], "meta": fit["meta"]["evaluations"]},
        "peak_mib": {k: round(v, 2) for k, v in peaks.items()},
        "sha256": {
            Path(path).name: artifact_digest.file_digest(Path(path))["sha256"]
            for path in result.artifacts
        },
    }


def _cell(text: str):
    """A CSV field as a float, or as its text if it is an integer or no
    number."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _fields(pairs) -> dict:
    """Whether the pairs of fields that are not both finite floats are
    equal as text, and the largest difference of those that are."""
    equal, diff = True, 0.0
    for x, y in pairs:
        u, v = _cell(x), _cell(y)
        if isinstance(u, float) and isinstance(v, float) and math.isfinite(u) and math.isfinite(v):
            diff = max(diff, abs(u - v))
        else:
            equal &= x == y
    return {"other_equal": equal, "max_float_diff": diff}


def csv_columns(before: Path, after: Path) -> dict | None:
    """:func:`_fields` per column of two CSV files with the same header and
    shape; None if those differ.  The lines starting with ``#`` are the
    column ``#``, their words its fields."""
    tables = []
    for path in (before, after):
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        notes = [",".join(r) for r in rows if r and r[0].startswith("#")]
        words = [w for note in notes for w in re.split(r"[\s\[\],;]+", note)]
        tables.append((words, [r for r in rows if not (r and r[0].startswith("#"))]))
    (notes_b, b), (notes_a, a) = tables
    if len(notes_b) != len(notes_a) or list(map(len, b)) != list(map(len, a)):
        return None
    if not b or b[0] != a[0]:
        return None
    columns = {"#": _fields(zip(notes_b, notes_a))} if notes_b else {}
    for i, name in enumerate(b[0]):
        columns[name] = _fields((x[i], y[i]) for x, y in zip(b[1:], a[1:]))
    return columns


def compare(before_dir: str, after_dir: str) -> int:
    import artifact_digest

    def files(root):
        root = Path(root)
        return {(p.relative_to(root).as_posix(),): p for p in root.rglob("*") if p.is_file()}

    before, after = files(before_dir), files(after_dir)

    def columns(key):
        both = key in before and key in after and key[0].endswith(".csv")
        return {"columns": csv_columns(before[key], after[key])} if both else {}

    def digests(paths):
        return {key: artifact_digest.file_digest(path) for key, path in paths.items()}

    return artifact_digest.report(("artifact",), digests(before), digests(after), columns)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="directory for the inputs and the run's artifacts")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="list the files that differ between two output directories; "
                             "exit 1 if any does")
    args = parser.parse_args()
    if args.compare:
        if compare(*args.compare):
            raise SystemExit(1)
    elif args.out is None:
        parser.error("--out or --compare is required")
    else:
        line = run_once(Path(args.out), args.seed, PAPERS, REVIEWS, REVIEWERS)
        print(json.dumps(line))


if __name__ == "__main__":
    main()
