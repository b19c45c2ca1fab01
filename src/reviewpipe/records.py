"""Typed review records and ingestion of raw review exports.

Raw exports (CSV or JSON) are parsed into immutable :class:`ReviewForm` /
:class:`MetaReviewForm` records plus an :class:`AssignmentSet`.  Every input
row either becomes exactly one record or one rejection entry in the
:class:`ValidationReport`; nothing is dropped silently.

Scores stay on an exact half-point lattice until aggregation: the Likert
tables only contain multiples of 0.5, and downstream code that needs exact
arithmetic works in integer half-steps (see :mod:`reviewpipe.scoring`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "UnknownLabelError",
    "ReviewForm",
    "MetaReviewForm",
    "AssignmentSet",
    "ValidationReport",
    "LoadResult",
    "encode_likert",
    "likert_labels",
    "load_reviews",
    "validate",
    "export_reviews_csv",
    "export_metas_csv",
    "export_json",
]


class UnknownLabelError(ValueError):
    """A label does not belong to the requested Likert scale."""


# Overall recommendation: symmetric 7-point scale, used by reviewers and
# meta-reviewers alike.
RECOMMENDATION_WEIGHTS = {
    "strong accept": 3,
    "accept": 2,
    "weak accept": 1,
    "borderline": 0,
    "weak reject": -1,
    "reject": -2,
    "strong reject": -3,
}

# Quality criteria C1..C4 (relevance, technical quality, novelty,
# presentation): symmetric 5-point scale in 0.5 steps.
CRITERION_WEIGHTS = {
    "excellent": 1.0,
    "very good": 0.5,
    "good": 0.0,
    "fair": -0.5,
    "poor": -1.0,
}

# Reviewer confidence: multiplicative weight used at aggregation only.
CONFIDENCE_WEIGHTS = {
    "excellent": 1.2,
    "very good": 1.1,
    "good": 1.0,
    "fair": 0.9,
    "poor": 0.8,
}

_SCALES = {
    "recommendation": RECOMMENDATION_WEIGHTS,
    "criterion": CRITERION_WEIGHTS,
    "confidence": CONFIDENCE_WEIGHTS,
}

# Canonical capitalization for exports.
_CANONICAL = {
    "strong accept": "Strong Accept",
    "accept": "Accept",
    "weak accept": "Weak Accept",
    "borderline": "Borderline",
    "weak reject": "Weak Reject",
    "reject": "Reject",
    "strong reject": "Strong Reject",
    "excellent": "Excellent",
    "very good": "Very good",
    "good": "Good",
    "fair": "Fair",
    "poor": "Poor",
}

REVIEW_CSV_HEADER = [
    "paper_id",
    "reviewer_id",
    "recommendation",
    "c1",
    "c2",
    "c3",
    "c4",
    "confidence",
    "award",
    "comments",
]

META_CSV_HEADER = ["paper_id", "metareviewer_id", "recommendation"]

DUPLICATE_PAIR = "duplicate (reviewer, paper) pair"


def _norm_label(label: str) -> str:
    return " ".join(label.strip().split()).lower()


@functools.lru_cache(maxsize=1024)
def encode_likert(label: str, scale: str) -> float:
    """Map a Likert label to its numeric weight on the named scale.

    ``scale`` is one of ``recommendation``, ``criterion``, ``confidence``.
    Matching is case-insensitive after trimming; anything else raises
    :class:`UnknownLabelError`.  Results are cached per (label, scale), so
    an export's few distinct labels are normalized once each; errors are
    not cached and raise on every call.
    """
    try:
        table = _SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}") from None
    key = _norm_label(label)
    if key not in table:
        raise UnknownLabelError(f"unknown label {label!r} for scale {scale!r}")
    return table[key]


def likert_labels(scale: str) -> list[str]:
    """Canonical labels of a scale, in descending weight order."""
    table = _SCALES[scale]
    return [_CANONICAL[k] for k in table]


@dataclass(frozen=True)
class ReviewForm:
    """One reviewer's structured evaluation of one paper."""

    paper: str
    reviewer: str
    recommendation: str
    criteria: tuple[str, str, str, str]
    confidence: str
    award: int = 0
    comments: str = ""

    def __post_init__(self):
        encode_likert(self.recommendation, "recommendation")
        for c in self.criteria:
            encode_likert(c, "criterion")
        encode_likert(self.confidence, "confidence")
        if self.award not in (0, 1):
            raise ValueError(f"award flag must be 0 or 1, got {self.award!r}")


@dataclass(frozen=True)
class MetaReviewForm:
    """One meta-reviewer's overall recommendation for one paper."""

    paper: str
    metareviewer: str
    recommendation: str

    def __post_init__(self):
        encode_likert(self.recommendation, "recommendation")


@dataclass(frozen=True)
class AssignmentSet:
    """Reviewer-paper and meta-reviewer-paper pairings."""

    review_pairs: frozenset[tuple[str, str]]
    meta_pairs: frozenset[tuple[str, str]]

    @property
    def papers(self) -> set[str]:
        return {p for _, p in self.review_pairs} | {p for _, p in self.meta_pairs}

    @property
    def reviewers(self) -> set[str]:
        return {r for r, _ in self.review_pairs}

    @property
    def metareviewers(self) -> set[str]:
        return {m for m, _ in self.meta_pairs}


@dataclass
class ValidationReport:
    """Counts, findings, and rejected rows produced by ingestion/validation."""

    n_papers: int = 0
    n_reviewers: int = 0
    n_reviews: int = 0
    n_metareviewers: int = 0
    n_metareviews: int = 0
    reviews_per_paper: dict[int, int] = field(default_factory=dict)
    findings: list[tuple[str, str]] = field(default_factory=list)
    rejected: list[tuple[dict, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def mean_reviews_per_paper(self) -> float:
        if self.n_papers == 0:
            return 0.0
        return self.n_reviews / self.n_papers

    def to_dict(self) -> dict:
        return {
            "papers": self.n_papers,
            "reviewers": self.n_reviewers,
            "reviews": self.n_reviews,
            "metareviewers": self.n_metareviewers,
            "metareviews": self.n_metareviews,
            "mean_reviews_per_paper": self.mean_reviews_per_paper,
            "reviews_per_paper_histogram": {
                str(k): v for k, v in sorted(self.reviews_per_paper.items())
            },
            "findings": [list(f) for f in self.findings],
            "rejected": [{"row": row, "reason": reason} for row, reason in self.rejected],
            "warnings": list(self.warnings),
        }


@dataclass
class LoadResult:
    """Outcome of :func:`load_reviews`."""

    assignments: AssignmentSet
    reviews: list[ReviewForm]
    metas: list[MetaReviewForm]
    report: ValidationReport


def _parse_review_row(row: dict) -> ReviewForm:
    for col in REVIEW_CSV_HEADER[:-3]:  # confidence/award/comments may default
        if row.get(col) in (None, ""):
            raise UnknownLabelError(f"missing required field {col!r}")
    award_raw = row.get("award", "")
    if award_raw in (None, ""):
        award = 0
    else:
        try:
            award = int(str(award_raw).strip())
        except ValueError:
            raise UnknownLabelError(f"award flag not 0/1: {award_raw!r}") from None
    return ReviewForm(
        paper=str(row["paper_id"]).strip(),
        reviewer=str(row["reviewer_id"]).strip(),
        recommendation=str(row["recommendation"]),
        criteria=(str(row["c1"]), str(row["c2"]), str(row["c3"]), str(row["c4"])),
        confidence=str(row["confidence"]),
        award=award,
        comments=str(row.get("comments", "") or ""),
    )


def _parse_meta_row(row: dict) -> MetaReviewForm:
    for col in META_CSV_HEADER:
        if row.get(col) in (None, ""):
            raise UnknownLabelError(f"missing required field {col!r}")
    return MetaReviewForm(
        paper=str(row["paper_id"]).strip(),
        metareviewer=str(row["metareviewer_id"]).strip(),
        recommendation=str(row["recommendation"]),
    )


def _check_header(fieldnames, expected, path):
    if fieldnames is None:
        raise ValueError(f"{path}: empty file, header required")
    unknown = [c for c in fieldnames if c not in expected]
    missing = [c for c in expected if c not in fieldnames and c not in ("award", "confidence", "comments")]
    if unknown:
        raise ValueError(f"{path}: unknown column(s) {unknown}")
    if missing:
        raise ValueError(f"{path}: missing column(s) {missing}")


def _first_pair(seen: set, key: tuple, row: dict, report: ValidationReport) -> bool:
    """Record ``key``; a repeat moves its row to ``report.rejected``."""
    if key in seen:
        report.rejected.append((dict(row), DUPLICATE_PAIR))
        return False
    seen.add(key)
    return True


def load_reviews(path, format: str = "csv", meta_path=None) -> LoadResult:
    """Load review (and optionally meta-review) exports into typed records.

    CSV mode reads reviews from ``path`` and, if given, meta-reviews from
    ``meta_path``.  JSON mode reads a single file with ``reviews`` and
    ``meta_reviews`` arrays whose objects mirror the CSV column names.

    Rows with unknown labels or malformed fields are rejected record by
    record (collected in the report), as is every repeat of a (reviewer,
    paper) or (metareviewer, paper) pair after its first row; structural
    problems such as unknown columns abort with ``ValueError``.
    """
    report = ValidationReport()
    review_rows: list[dict] = []
    meta_rows: list[dict] = []

    if format == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            _check_header(reader.fieldnames, REVIEW_CSV_HEADER, path)
            review_rows = list(reader)
        if meta_path is not None:
            with open(meta_path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                _check_header(reader.fieldnames, META_CSV_HEADER, meta_path)
                meta_rows = list(reader)
    elif format == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        review_rows = payload.get("reviews", [])
        meta_rows = payload.get("meta_reviews", [])
        for rows, allowed in ((review_rows, REVIEW_CSV_HEADER), (meta_rows, META_CSV_HEADER)):
            for row in rows:
                unknown = [c for c in row if c not in allowed]
                if unknown:
                    raise ValueError(f"{path}: unknown field(s) {unknown}")
    else:
        raise ValueError(f"unknown format {format!r}")

    reviews: list[ReviewForm] = []
    metas: list[MetaReviewForm] = []
    review_pairs: set[tuple[str, str]] = set()
    meta_pairs: set[tuple[str, str]] = set()
    for row in review_rows:
        if row.get("confidence") in (None, ""):
            row = dict(row, confidence="Good")
            report.warnings.append(
                f"review ({row.get('reviewer_id')}, {row.get('paper_id')}): "
                "missing confidence, defaulted to 'Good'"
            )
        try:
            form = _parse_review_row(row)
        except (UnknownLabelError, ValueError) as exc:
            report.rejected.append((dict(row), str(exc)))
            continue
        if _first_pair(review_pairs, (form.reviewer, form.paper), row, report):
            reviews.append(form)
    for row in meta_rows:
        try:
            meta = _parse_meta_row(row)
        except (UnknownLabelError, ValueError) as exc:
            report.rejected.append((dict(row), str(exc)))
            continue
        if _first_pair(meta_pairs, (meta.metareviewer, meta.paper), row, report):
            metas.append(meta)

    assignments = AssignmentSet(
        review_pairs=frozenset(review_pairs), meta_pairs=frozenset(meta_pairs)
    )
    _fill_counts(report, reviews, metas)
    return LoadResult(assignments, reviews, metas, report)


def _fill_counts(report: ValidationReport, reviews, metas):
    papers = {f.paper for f in reviews} | {f.paper for f in metas}
    report.n_papers = len(papers)
    report.n_reviewers = len({f.reviewer for f in reviews})
    report.n_reviews = len(reviews)
    report.n_metareviewers = len({f.metareviewer for f in metas})
    report.n_metareviews = len(metas)
    per_paper = Counter(f.paper for f in reviews)
    hist = Counter(per_paper.values())
    for p in papers:
        if p not in per_paper:
            hist[0] += 1
    report.reviews_per_paper = dict(hist)


def validate(
    reviews: list[ReviewForm],
    metas: list[MetaReviewForm] | None = None,
    min_reviews: int = 2,
) -> ValidationReport:
    """Audit loaded records: review-count floor, duplicate assignments,
    papers without a meta-review.  Purely reporting, never raises."""
    metas = metas or []
    report = ValidationReport()
    _fill_counts(report, reviews, metas)

    per_paper = Counter(f.paper for f in reviews)
    for paper, n in sorted(per_paper.items()):
        if n < min_reviews:
            report.findings.append(
                ("below minimum reviews", f"paper {paper} has {n} review(s)")
            )
    dup = Counter((f.reviewer, f.paper) for f in reviews)
    for (r, p), n in sorted(item for item in dup.items() if item[1] > 1):
        report.findings.append(
            ("duplicate assignment", f"reviewer {r} reviewed paper {p} {n} times")
        )
    meta_papers = {f.paper for f in metas}
    for paper in sorted(per_paper):
        if paper not in meta_papers:
            report.findings.append(("missing meta-review", f"paper {paper}"))
    return report


def _canon(label: str) -> str:
    return _CANONICAL[_norm_label(label)]


def export_reviews_csv(reviews: list[ReviewForm]) -> str:
    """Canonical CSV text for review records (round-trips via load_reviews)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REVIEW_CSV_HEADER)
    for f in reviews:
        writer.writerow(
            [
                f.paper,
                f.reviewer,
                _canon(f.recommendation),
                *(_canon(c) for c in f.criteria),
                _canon(f.confidence),
                f.award,
                f.comments,
            ]
        )
    return buf.getvalue()


def export_metas_csv(metas: list[MetaReviewForm]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(META_CSV_HEADER)
    for f in metas:
        writer.writerow([f.paper, f.metareviewer, _canon(f.recommendation)])
    return buf.getvalue()


def export_json(reviews: list[ReviewForm], metas: list[MetaReviewForm]) -> str:
    """Canonical JSON text mirroring the CSV schemas 1:1."""
    payload = {
        "reviews": [
            {
                "paper_id": f.paper,
                "reviewer_id": f.reviewer,
                "recommendation": _canon(f.recommendation),
                "c1": _canon(f.criteria[0]),
                "c2": _canon(f.criteria[1]),
                "c3": _canon(f.criteria[2]),
                "c4": _canon(f.criteria[3]),
                "confidence": _canon(f.confidence),
                "award": f.award,
                "comments": f.comments,
            }
            for f in reviews
        ],
        "meta_reviews": [
            {
                "paper_id": f.paper,
                "metareviewer_id": f.metareviewer,
                "recommendation": _canon(f.recommendation),
            }
            for f in metas
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
