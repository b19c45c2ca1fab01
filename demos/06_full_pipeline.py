"""The whole decision pipeline in one call.

load -> score -> dequantize -> calibrate -> rank -> report, writing every
artifact (score table, decision lists, gray-area report, calibration
summary, CSV+SVG plots) atomically into an output directory.  Fixed config
and seed give byte-identical reruns.

Papers whose raw and calibrated rankings disagree about acceptance form the
"gray area": they are surfaced for human adjudication, never auto-decided.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from reviewpipe import (
    DecisionConfig,
    MetaReviewForm,
    PipelineConfig,
    ReviewForm,
    export_metas_csv,
    export_reviews_csv,
    likert_labels,
    run_pipeline,
)

rng = np.random.default_rng(11)
RECS, CRITS, CONFS = (likert_labels(s) for s in ("recommendation", "criterion", "confidence"))

papers = [f"P{i:03d}" for i in range(50)]
reviewers = [f"R{i:02d}" for i in range(20)]
reviews, metas = [], []
for i, p in enumerate(papers):
    for r in rng.choice(len(reviewers), size=3, replace=False):
        reviews.append(
            ReviewForm(
                p, reviewers[r],
                RECS[rng.integers(len(RECS))],
                tuple(CRITS[j] for j in rng.integers(len(CRITS), size=4)),
                CONFS[rng.integers(len(CONFS))],
                int(rng.integers(2)),
            )
        )
    metas.append(MetaReviewForm(p, f"M{i % 4}", RECS[rng.integers(len(RECS))]))

with tempfile.TemporaryDirectory() as tmp:
    rpath = Path(tmp) / "reviews.csv"
    mpath = Path(tmp) / "metas.csv"
    out = Path(tmp) / "out"
    rpath.write_text(export_reviews_csv(reviews))
    mpath.write_text(export_metas_csv(metas))

    cfg = PipelineConfig(
        reviews_path=str(rpath),
        meta_path=str(mpath),
        out_dir=str(out),
        dequantize=True,
        calibrate=True,
        decision=DecisionConfig(acceptance_rate=40.0),
        n_samples=500,
        seed=0,
    )
    result = run_pipeline(cfg)

    print(f"Accepted {result.decisions.n_accept} of {len(result.table.papers)} papers "
          f"at {cfg.decision.acceptance_rate:.0f}%.")
    print(f"Gray area: {result.gray.counts}")
    if result.gray.disagree:
        print(f"  flagged for human adjudication: {sorted(result.gray.disagree)[:6]} ...")

    print("\nArtifacts written:")
    for f in sorted(out.iterdir()):
        print(f"  {f.name}  ({f.stat().st_size} bytes)")

    summary = json.loads((out / "calibration_fit.json").read_text())
    fit = summary["hyperparams"]
    print(f"\nFitted variances: sigma_q^2={fit['sigma_q2']:.3f} "
          f"sigma_b^2={fit['sigma_b2']:.3f} sigma_e^2={fit['sigma_e2']:.3f} "
          f"({summary['evaluations']} likelihood evaluations)")

print("\nThe same run is available from the shell:")
print("  reviewpipe pipeline --input reviews.csv --meta metas.csv \\")
print("      --out out/ --dequantize --seed 0 --acceptance-rate 40")
