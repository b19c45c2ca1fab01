"""Audit of the calibration search on the benchmark's review corpora.

Fits the review and the meta-review side of each corpus with
``reviewpipe.calibrate``, on the inputs a dequantized, calibrated pipeline
run builds, and prints one JSON line per fit: the corpus (papers, seed),
the side, the number of likelihood evaluations, whether the search stopped
on its budget, the chosen point (the best row's ratios: ``sb2_hat`` and
``se2_hat``, or ``a_prime`` for a one-dimensional fit) and its NLL.

    PYTHONPATH=src python tools/search_audit.py > after.jsonl
    PYTHONPATH=../parent/src python tools/search_audit.py > before.jsonl
    python tools/search_audit.py --compare before.jsonl after.jsonl

The corpora come from ``benchmarks/corpus.py``: 200 papers with 688
reviews by 145 reviewers, as in the decide-calibrated-200 workload, at
115 seeds, and 1,000 papers with 3,440 reviews by 725 reviewers (the same
ratios) at 14 seeds.  ``--compare`` pairs the fits of two such outputs and
prints, per side, the evaluation counts, the fits above 20 evaluations,
the largest NLL increase and how many chosen points moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

SEEDS = {
    200: [3, 7, 11, *range(21, 26), *range(121, 127), *range(131, 212), *range(222, 232),
          *range(242, 252)],
    1000: [3, 7, 11, *range(21, 26), *range(121, 127)],
}
# reviews and reviewers per paper of the decide-calibrated-200 workload
REVIEWS, REVIEWERS = 688 / 200, 145 / 200
ACCEPTANCE_RATE = 40.0


def fits(n_papers: int, seed: int):
    """The (side, summary) of both calibrations of one corpus."""
    import numpy as np

    import corpus
    from reviewpipe import CalibrationInputs, calibrate, review_table
    from reviewpipe.dequant import DequantConfig, dequantize_rows

    reviews, metas, _ = corpus.review_corpus(
        np.random.default_rng(seed), n_papers, round(REVIEWS * n_papers),
        round(REVIEWERS * n_papers), ACCEPTANCE_RATE,
    )
    rows = review_table(reviews, metas)
    values = dequantize_rows(rows.paper, rows.s, DequantConfig())
    review = CalibrationInputs(
        values, rows.paper, rows.reviewer, rows.paper_ids, rows.reviewer_ids, rows.confidence
    )
    meta = CalibrationInputs(
        rows.xi, rows.meta_paper, rows.metareviewer, rows.paper_ids, rows.metareviewer_ids
    )
    yield "review", calibrate(review).summary
    yield "meta", calibrate(meta, role="meta-reviewer").summary


def audit():
    for n_papers, seeds in SEEDS.items():
        for seed in seeds:
            for side, summary in fits(n_papers, seed):
                best = min(summary["grid"], key=lambda row: row["nll"])
                point = {k: best[k] for k in ("sb2_hat", "se2_hat", "a_prime") if k in best}
                print(json.dumps({
                    "papers": n_papers, "seed": seed, "side": side,
                    "evaluations": summary["evaluations"],
                    "stopped_on_budget": summary["stopped_on_budget"],
                    "point": point, "nll": best["nll"],
                }), flush=True)


def compare(before_path: str, after_path: str):
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {(r["papers"], r["seed"], r["side"]): r for r in map(json.loads, fh)}

    before, after = load(before_path), load(after_path)
    if before.keys() != after.keys():
        raise SystemExit("the two outputs fit different corpora")
    for side in ("review", "meta"):
        keys = sorted(k for k in before if k[2] == side)
        for n_papers in sorted({k[0] for k in keys}):
            pairs = [(before[k], after[k]) for k in keys if k[0] == n_papers]
            counts = [[r["evaluations"] for r in pair] for pair in zip(*pairs)]
            rise = max(pairs, key=lambda p: p[1]["nll"] - p[0]["nll"])
            print(json.dumps({
                "side": side, "papers": n_papers, "fits": len(pairs),
                "evaluations": [sum(c) for c in counts],
                "median": [statistics.median(c) for c in counts],
                "max": [max(c) for c in counts],
                "above_20": [[r["seed"] for r in col if r["evaluations"] > 20] for col in zip(*pairs)],
                "stopped_on_budget": [sum(r["stopped_on_budget"] for r in col) for col in zip(*pairs)],
                "largest_nll_rise": [rise[1]["seed"], rise[1]["nll"] - rise[0]["nll"]],
                "points_moved": sum(b["point"] != a["point"] for b, a in pairs),
            }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="summarize two audit outputs instead of fitting")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        audit()


if __name__ == "__main__":
    main()
