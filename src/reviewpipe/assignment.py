"""Reviewer-paper assignment as one exact linear program, under load,
coverage, and misconduct constraints.

Pair similarity is a convex combination of reviewer bid, matching-service
affinity, and subject-area relevance (weights 0.2 / 0.3 / 0.5).
Hard constraints: a minimum number of reviewers per paper, a per-reviewer
paper capacity, at most one author-reviewer (tag Rev2) per paper, and no
conflicted pairs.  :func:`assign` solves one sparse LP over the candidate
pairs with the HiGHS dual simplex.  Its constraint matrix is totally
unimodular, so the optimal vertex is an integral assignment: the fewest
coverage shortfalls, then the largest total similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimilaritySources",
    "AssignmentConstraints",
    "AssignmentResult",
    "ConstraintReport",
    "InfeasibleInstanceError",
    "combined_similarity",
    "assign",
    "check_constraints",
]

WEIGHTS = (0.2, 0.3, 0.5)  # bid, matching service, subject area
AUTHOR_TAG = "Rev2"
TAGS = ("Rev1", AUTHOR_TAG)  # a reviewer, an author-reviewer


@dataclass(frozen=True)
class SimilaritySources:
    """Per-pair evidence in [0, 1]; the matching-service score may be
    absent (None) for unregistered reviewers."""

    bid: float
    subject: float
    tpms: float | None = None

    def __post_init__(self):
        # each source named as the similarity file's column
        named = (("bid", self.bid), ("subject_relevance", self.subject), ("tpms", self.tpms))
        for name, v in named:
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} similarity {v} outside [0, 1]")


def combined_similarity(src: SimilaritySources) -> float:
    """Convex combination of the three sources.

    A missing matching-service score has its weight renormalized onto the
    remaining sources rather than imputed as zero, so reviewers outside
    the service are not systematically penalized.
    """
    w_bid, w_tpms, w_subj = WEIGHTS
    if src.tpms is None:
        return (w_bid * src.bid + w_subj * src.subject) / (w_bid + w_subj)
    return w_bid * src.bid + w_tpms * src.tpms + w_subj * src.subject


@dataclass(frozen=True)
class AssignmentConstraints:
    min_reviewers_per_paper: int = 4
    max_papers_per_reviewer: int = 6
    max_author_reviewers_per_paper: int = 1
    conflicts: frozenset[tuple[str, str]] = frozenset()  # (reviewer, paper)

    def __post_init__(self):
        if self.min_reviewers_per_paper < 1:
            raise ValueError("need at least one reviewer per paper")
        if self.max_papers_per_reviewer < 1:
            raise ValueError("reviewer capacity must be positive")
        if self.max_author_reviewers_per_paper < 0:
            raise ValueError("author-reviewer cap must be nonnegative")


@dataclass
class ConstraintReport:
    """Per-constraint pass/fail with the violating pairs listed."""

    checks: dict[str, list] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(not v for v in self.checks.values())

    def to_dict(self) -> dict:
        return {
            name: {"pass": not violations, "violations": violations}
            for name, violations in self.checks.items()
        }


@dataclass
class AssignmentResult:
    pairs: set[tuple[str, str]]
    total_similarity: float
    report: ConstraintReport
    feasible: bool
    shortfalls: dict[str, int] = field(default_factory=dict)


class InfeasibleInstanceError(ValueError):
    """Aggregate reviewer capacity cannot cover the paper demand."""


def assign(
    papers: list[str],
    reviewers: list[str],
    sources: dict[tuple[str, str], SimilaritySources],
    constraints: AssignmentConstraints,
    tags: dict[str, str] | None = None,
) -> AssignmentResult:
    """Build the assignment that fills the most reviewer slots and, among
    those, has the largest total pair similarity.

    One LP variable in [0, 1] per non-conflicted candidate pair of
    ``sources``, in sorted (reviewer, paper) order.  Rows: at most k
    reviewers per paper, at most the capacity per reviewer, and at most
    ``max_author_reviewers_per_paper`` author-reviewers per paper.  Each
    pair is worth ``similarity + 1 + k·P``; no assignment has a total
    similarity above k·P, so one more filled slot outweighs any similarity.
    When a full cover exists the result is the exact-coverage optimum;
    otherwise the reported shortfalls are the fewest possible.

    The paper rows, with the author rows nested inside them, and the
    reviewer rows form two laminar families, so the constraint matrix is
    totally unimodular and the dual simplex vertex is integral.  Raises
    :class:`InfeasibleInstanceError` when aggregate capacity is short of
    aggregate demand.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    tags = tags or {}
    k = constraints.min_reviewers_per_paper
    demand = k * len(papers)
    capacity = constraints.max_papers_per_reviewer * len(reviewers)
    if capacity < demand:
        raise InfeasibleInstanceError(
            f"capacity {capacity} < demand {demand} "
            f"(binding constraint: max {constraints.max_papers_per_reviewer} papers/reviewer)"
        )

    paper_code = {p: i for i, p in enumerate(papers)}
    reviewer_code = {r: i for i, r in enumerate(reviewers)}
    pairs = sorted(
        (r, p)
        for r, p in sources
        if r in reviewer_code and p in paper_code and (r, p) not in constraints.conflicts
    )
    sim = np.array([combined_similarity(sources[pair]) for pair in pairs])
    paper = np.array([paper_code[p] for _, p in pairs], dtype=np.intp)
    chosen = np.zeros(0, dtype=np.intp)
    if pairs:
        n_papers, n_reviewers = len(papers), len(reviewers)
        col = np.arange(len(pairs))
        author = np.array([tags.get(r) == AUTHOR_TAG for r, _ in pairs])
        reviewer = np.array([reviewer_code[r] for r, _ in pairs], dtype=np.intp)
        # rows: papers, then reviewers, then the author-reviewers of each paper
        rows = np.concatenate(
            [paper, n_papers + reviewer, n_papers + n_reviewers + paper[author]]
        )
        a_ub = csr_matrix(
            (np.ones(len(rows)), (rows, np.concatenate([col, col, col[author]]))),
            shape=(2 * n_papers + n_reviewers, len(pairs)),
        )
        b_ub = np.concatenate(
            [
                np.full(n_papers, k),
                np.full(n_reviewers, constraints.max_papers_per_reviewer),
                np.full(n_papers, constraints.max_author_reviewers_per_paper),
            ]
        )
        res = linprog(
            -(sim + 1 + demand), A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs-ds"
        )
        if res.status != 0:
            raise RuntimeError(f"assignment LP failed: {res.message}")
        x = np.round(res.x)
        if np.max(np.abs(res.x - x)) > 1e-6:
            raise RuntimeError("assignment LP returned a fractional vertex")
        chosen = np.flatnonzero(x)

    assigned = {pairs[i] for i in chosen.tolist()}
    cover = np.bincount(paper[chosen], minlength=len(papers)).tolist()
    shortfalls = {p: k - c for p, c in zip(papers, cover) if c < k}
    return AssignmentResult(
        pairs=assigned,
        total_similarity=float(np.sum(sim[chosen])),
        report=check_constraints(assigned, papers, constraints, tags),
        feasible=not shortfalls,
        shortfalls=shortfalls,
    )


def check_constraints(
    pairs: set[tuple[str, str]],
    papers: list[str],
    constraints: AssignmentConstraints,
    tags: dict[str, str] | None = None,
) -> ConstraintReport:
    """Audit an assignment: coverage floor, reviewer capacity, lone-wolf
    mitigation (author-reviewer cap), and conflicts."""
    tags = tags or {}
    report = ConstraintReport()
    cover: dict[str, list] = {p: [] for p in papers}
    load: dict[str, list] = {}
    for r, p in sorted(pairs):
        cover.setdefault(p, []).append(r)
        load.setdefault(r, []).append(p)

    report.checks["minimum reviewers per paper"] = [
        (p, len(rs))
        for p, rs in sorted(cover.items())
        if len(rs) < constraints.min_reviewers_per_paper
    ]
    report.checks["maximum papers per reviewer"] = [
        (r, len(ps))
        for r, ps in sorted(load.items())
        if len(ps) > constraints.max_papers_per_reviewer
    ]
    lone_wolf = []
    for p, rs in sorted(cover.items()):
        authors = [r for r in rs if tags.get(r) == AUTHOR_TAG]
        if len(authors) > constraints.max_author_reviewers_per_paper:
            lone_wolf.extend((r, p) for r in authors)
    report.checks["lone-wolf mitigation"] = lone_wolf
    report.checks["conflicts"] = sorted(pairs & constraints.conflicts)
    return report
