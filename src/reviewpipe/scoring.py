"""Per-review scores, per-paper aggregation, normalization, score fusion,
and the acceptance-rate cutoff.

The per-review score is the recommendation weight plus the four criterion
weights plus the award flag; it lives on a 0.5 lattice in [-7, 8] and is
kept as an integer number of half-steps until aggregation.  Reviewer
confidence weights the aggregation, not the score itself.  Normalized
reviewer and meta-reviewer scores are fused per paper with a harmonic mean,
and the top floor(a% of P) papers are accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .records import MetaReviewForm, ReviewForm, encode_likert

__all__ = [
    "ReviewScore",
    "ScoreTable",
    "DecisionConfig",
    "Decision",
    "DecisionList",
    "DegenerateScaleWarning",
    "review_score",
    "paper_score",
    "meta_score",
    "normalize",
    "score_index",
    "build_score_table",
    "rank_and_cut",
    "score_table_csv",
    "score_table_json",
    "decision_list_csv",
]

S_MIN_HALF = -14  # S=-3, all criteria -1, AQ=0
S_MAX_HALF = 16  # S=+3, all criteria +1, AQ=1


class DegenerateScaleWarning(UserWarning):
    """All values identical: min-max normalization has no span."""


@dataclass(frozen=True)
class ReviewScore:
    """One review's composite score, in exact half-steps, plus the
    confidence weight used later at aggregation."""

    paper: str
    reviewer: str
    s_half: int
    confidence: float

    @property
    def value(self) -> float:
        return self.s_half / 2.0


def review_score(form: ReviewForm) -> ReviewScore:
    """Composite score: recommendation + four criteria + award flag."""
    s_half = 2 * int(encode_likert(form.recommendation, "recommendation"))
    for c in form.criteria:
        s_half += int(round(2 * encode_likert(c, "criterion")))
    s_half += 2 * form.award
    assert S_MIN_HALF <= s_half <= S_MAX_HALF
    return ReviewScore(
        paper=form.paper,
        reviewer=form.reviewer,
        s_half=s_half,
        confidence=encode_likert(form.confidence, "confidence"),
    )


def paper_score(reviews: list[ReviewScore], values=None) -> float:
    """Confidence-weighted mean of one paper's review scores.

    ``values`` optionally overrides the raw scores (e.g. with dequantized
    ones), aligned with ``reviews``.
    """
    if not reviews:
        raise ValueError("paper_score requires at least one review")
    if values is None:
        values = [r.value for r in reviews]
    num = sum(r.confidence * v for r, v in zip(reviews, values, strict=True))
    den = sum(r.confidence for r in reviews)
    return num / den


def meta_score(metas: list[MetaReviewForm]) -> float:
    """Meta-reviewer score: the recommendation weight, averaged when a
    paper has more than one meta-reviewer."""
    if not metas:
        raise ValueError("meta_score requires at least one meta-review")
    weights = [encode_likert(m.recommendation, "recommendation") for m in metas]
    return sum(weights) / len(weights)


def normalize(v) -> np.ndarray:
    """Min-max map onto [0, 100].

    A constant vector has no span; it maps to the midpoint 50 with a
    :class:`DegenerateScaleWarning`.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot normalize an empty vector")
    lo, hi = v.min(), v.max()
    if hi == lo:
        warnings.warn(
            "constant score vector: normalization degenerate, mapping to 50",
            DegenerateScaleWarning,
            stacklevel=2,
        )
        return np.full_like(v, 50.0)
    # ratio first: the argmax computes (hi-lo)/(hi-lo) == 1.0 exactly, so the
    # output attains 100.0 (and 0.0) without round-off spill past the range
    return ((v - lo) / (hi - lo)) * 100.0


def score_index(s_rev, s_meta):
    """Elementwise harmonic mean of two [0, 100] scores; 0 where both are 0."""
    s_rev = np.asarray(s_rev, dtype=float)
    s_meta = np.asarray(s_meta, dtype=float)
    if np.any((s_rev < 0) | (s_rev > 100)) or np.any((s_meta < 0) | (s_meta > 100)):
        raise ValueError("score_index inputs must lie in [0, 100]")
    total = s_rev + s_meta
    out = np.zeros_like(total)
    nz = total > 0
    out[nz] = 2.0 * s_rev[nz] * s_meta[nz] / total[nz]
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class ScoreTable:
    """Per-paper score columns, aligned on ``papers``."""

    papers: list[str]
    s_p: np.ndarray
    xi_p: np.ndarray
    sR_norm: np.ndarray
    sM_norm: np.ndarray
    SI: np.ndarray
    sR_cal: np.ndarray | None = None
    sM_cal: np.ndarray | None = None
    SI_cal: np.ndarray | None = None

    @property
    def calibrated(self) -> bool:
        return self.SI_cal is not None

    def index_of(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.papers)}


def build_score_table(
    reviews: list[ReviewForm],
    metas: list[MetaReviewForm],
    review_values: dict[tuple[str, str], float] | None = None,
) -> ScoreTable:
    """Aggregate reviews and meta-reviews into the per-paper score table.

    ``review_values`` optionally replaces raw per-review scores, keyed by
    (reviewer, paper) -- used for the dequantized variant of the pipeline.
    Papers are ordered lexicographically.  Papers missing either a review
    or a meta-review are rejected: fusion needs both sides.
    """
    by_paper: dict[str, list[ReviewScore]] = defaultdict(list)
    for form in reviews:
        by_paper[form.paper].append(review_score(form))
    meta_by_paper: dict[str, list[MetaReviewForm]] = defaultdict(list)
    for m in metas:
        meta_by_paper[m.paper].append(m)

    papers = sorted(by_paper)
    missing_meta = [p for p in papers if p not in meta_by_paper]
    if missing_meta:
        raise ValueError(f"papers without meta-review: {missing_meta}")
    extra_meta = sorted(set(meta_by_paper) - set(by_paper))
    if extra_meta:
        raise ValueError(f"meta-reviews for unreviewed papers: {extra_meta}")

    s_p = np.empty(len(papers))
    xi_p = np.empty(len(papers))
    for i, p in enumerate(papers):
        scores = by_paper[p]
        vals = None
        if review_values is not None:
            vals = [review_values[(r.reviewer, r.paper)] for r in scores]
        s_p[i] = paper_score(scores, vals)
        xi_p[i] = meta_score(meta_by_paper[p])

    sR = normalize(s_p)
    sM = normalize(xi_p)
    return ScoreTable(
        papers=papers,
        s_p=s_p,
        xi_p=xi_p,
        sR_norm=sR,
        sM_norm=sM,
        SI=np.asarray(score_index(sR, sM)),
    )


@dataclass(frozen=True)
class DecisionConfig:
    """Acceptance-rate cutoff settings.

    The boundary tie policy is fixed: higher normalized meta score first,
    then lexicographic paper id.  ``acceptance_rate`` is a percentage.
    """

    acceptance_rate: float = 40.0

    def __post_init__(self):
        if not 0 < self.acceptance_rate <= 100:
            raise ValueError("acceptance rate must lie in (0, 100]")

    def n_accept(self, n_papers: int) -> int:
        return math.floor(self.acceptance_rate / 100.0 * n_papers)


@dataclass(frozen=True)
class Decision:
    rank: int
    paper: str
    score_index: float
    accept: bool


@dataclass
class DecisionList:
    decisions: list[Decision]
    n_accept: int
    acceptance_rate: float

    @property
    def accepted(self) -> set[str]:
        return {d.paper for d in self.decisions if d.accept}

    @property
    def rejected(self) -> set[str]:
        return {d.paper for d in self.decisions if not d.accept}


def rank_and_cut(
    table: ScoreTable,
    cfg: DecisionConfig,
    use_calibrated: bool = False,
) -> DecisionList:
    """Sort papers by score index descending and accept the top
    floor(a% of P); never exceeds the rate."""
    si = table.SI_cal if use_calibrated else table.SI
    sm = table.sM_cal if use_calibrated else table.sM_norm
    if si is None:
        raise ValueError("requested calibrated ranking but table is uncalibrated")
    order = sorted(
        range(len(table.papers)),
        key=lambda i: (-si[i], -sm[i], table.papers[i]),
    )
    k = cfg.n_accept(len(order))
    decisions = [
        Decision(rank=pos + 1, paper=table.papers[i], score_index=float(si[i]), accept=pos < k)
        for pos, i in enumerate(order)
    ]
    return DecisionList(decisions, n_accept=k, acceptance_rate=cfg.acceptance_rate)


def _fmt(x: float) -> str:
    return repr(float(x))


def score_table_csv(table: ScoreTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["paper_id", "s_p", "xi_p", "sR_norm", "sM_norm", "SI"]
    if table.calibrated:
        header += ["sR_cal", "sM_cal", "SI_cal"]
    writer.writerow(header)
    for i, p in enumerate(table.papers):
        row = [
            p,
            _fmt(table.s_p[i]),
            _fmt(table.xi_p[i]),
            _fmt(table.sR_norm[i]),
            _fmt(table.sM_norm[i]),
            _fmt(table.SI[i]),
        ]
        if table.calibrated:
            row += [_fmt(table.sR_cal[i]), _fmt(table.sM_cal[i]), _fmt(table.SI_cal[i])]
        writer.writerow(row)
    return buf.getvalue()


def score_table_json(table: ScoreTable) -> str:
    rows = []
    for i, p in enumerate(table.papers):
        row = {
            "paper_id": p,
            "s_p": float(table.s_p[i]),
            "xi_p": float(table.xi_p[i]),
            "sR_norm": float(table.sR_norm[i]),
            "sM_norm": float(table.sM_norm[i]),
            "SI": float(table.SI[i]),
        }
        if table.calibrated:
            row["sR_cal"] = float(table.sR_cal[i])
            row["sM_cal"] = float(table.sM_cal[i])
            row["SI_cal"] = float(table.SI_cal[i])
        rows.append(row)
    return json.dumps({"papers": rows}, indent=2, sort_keys=True) + "\n"


def decision_list_csv(decisions: DecisionList) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "paper_id", "SI", "decision"])
    for d in decisions.decisions:
        writer.writerow([d.rank, d.paper, _fmt(d.score_index), "accept" if d.accept else "reject"])
    return buf.getvalue()
