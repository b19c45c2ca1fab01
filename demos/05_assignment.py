"""Assigning reviewers to papers under hard constraints.

Reviewer-paper affinity blends three sources — bids (0.2), an external
affinity score (0.3), and subject-area overlap (0.5); when the external
score is missing its weight is renormalized onto the other two.  The solver
is one linear program over the candidate pairs: it fills as many of the
4-reviewer slots per paper as the constraints allow, then maximizes total
similarity, always respecting reviewer capacity, conflicts, and the cap of
at most one author-reviewer per paper.  Its constraint matrix is totally
unimodular, so the optimum is an integral assignment.
"""

import numpy as np

from reviewpipe import (
    AssignmentConstraints,
    SimilaritySources,
    assign,
    combined_similarity,
)

print("Similarity blend:")
full = SimilaritySources(bid=1.0, subject=0.6, tpms=0.8)
no_tpms = SimilaritySources(bid=1.0, subject=0.6, tpms=None)
print(f"  bid=1.0 subject=0.6 tpms=0.8  -> {combined_similarity(full):.3f}")
print(f"  same, tpms missing           -> {combined_similarity(no_tpms):.3f} "
      "(weights renormalized)")

rng = np.random.default_rng(3)
papers = [f"P{i}" for i in range(5)]
reviewers = [f"R{i:02d}" for i in range(18)]
tags = {"R01": "Rev2", "R04": "Rev2", "R09": "Rev2"}  # author-reviewers
conflicts = frozenset({("R00", "P0"), ("R02", "P3")})
sources = {
    (r, p): SimilaritySources(
        bid=float(rng.uniform()), subject=float(rng.uniform()), tpms=float(rng.uniform())
    )
    for r in reviewers
    for p in papers
}

constraints = AssignmentConstraints(
    min_reviewers_per_paper=4,
    max_papers_per_reviewer=2,
    conflicts=conflicts,
)
result = assign(papers, reviewers, sources, constraints, tags)

print(f"\nAssigned {len(result.pairs)} pairs, total similarity {result.total_similarity:.2f}, "
      f"feasible={result.feasible}")
for p in papers:
    assigned = sorted(r for r, q in result.pairs if q == p)
    marks = ["*" if r in tags else "" for r in assigned]
    print(f"  {p}: " + ", ".join(f"{r}{m}" for r, m in zip(assigned, marks)))
print("  (* = author-reviewer; at most one per paper)")

print("\nConstraint audit:")
for name, violations in result.report.checks.items():
    status = "ok" if not violations else f"VIOLATED {violations}"
    print(f"  {name}: {status}")

# An impossible instance fails loudly instead of returning a bad matching.
try:
    assign(papers, reviewers[:2], sources, constraints, tags)
except Exception as exc:
    print(f"\nUndersized reviewer pool -> {type(exc).__name__}: {exc}")
