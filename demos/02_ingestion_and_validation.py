"""Ingesting raw review exports and auditing them.

Every CSV row becomes exactly one row of the review table or one rejection
entry with a reason — nothing is dropped silently.  The table carries the
validation report, which also audits the accepted rows: review-count
floor, papers without a meta-review, and the mean review load.
"""

import tempfile
from pathlib import Path

from reviewpipe import read_exports

raw = """\
paper_id,reviewer_id,recommendation,c1,c2,c3,c4,confidence,award,comments
castle,ana,Accept,Very good,Very good,Very good,Very good,Excellent,0,solid work
castle,bo,borderline,Good,Good,Good,Good,Poor,0,
dune,ana,Strong Accept,Excellent,Excellent,Excellent,Excellent,Good,1,best of my stack
dune,cy,Weak Accept,Good,Good,Very good,Good,,0,confidence left blank
echo,bo,Reject,Fair,Poor,Fair,Good,Good,0,
echo,zz,Maybe Accept,Good,Good,Good,Good,Good,0,bad label -> rejected row
"""
meta_raw = """\
paper_id,metareviewer_id,recommendation
castle,m1,Accept
dune,m1,Strong Accept
"""

with tempfile.TemporaryDirectory() as tmp:
    rpath = Path(tmp) / "reviews.csv"
    mpath = Path(tmp) / "metas.csv"
    rpath.write_text(raw)
    mpath.write_text(meta_raw)
    rows = read_exports(rpath, format="csv", meta_path=mpath)

report = rows.report
print(f"Loaded {report.n_reviews} reviews on {report.n_papers} papers "
      f"from {report.n_reviewers} reviewers.")
print(f"Mean review load: {report.mean_reviews_per_paper:.2f} reviews/paper")

print("\nRejected rows (kept with reasons, never silently dropped):")
for row, reason in report.rejected:
    print(f"  {row.get('paper_id')}/{row.get('reviewer_id')}: {reason}")

print("\nWarnings from lenient repairs:")
for w in report.warnings:
    print(f"  {w}")

print("\nValidation findings:")
for kind, message in report.findings:
    print(f"  [{kind}] {message}")

print("\nThe review table: accepted reviews by paper and reviewer, each label tuple scored once:")
for p, r, s, w in zip(rows.paper, rows.reviewer, rows.s, rows.confidence):
    print(f"  {rows.paper_ids[p]}/{rows.reviewer_ids[r]}: score {s:+.1f}, confidence weight {w}")
print("\nLabels are matched case-insensitively ('borderline' parsed fine); a "
      "blank confidence falls back to the neutral weight with a warning.")
