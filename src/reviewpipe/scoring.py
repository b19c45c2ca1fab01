"""Per-review scores, per-paper aggregation, normalization, score fusion,
and the acceptance-rate cutoff.

The per-review score is the recommendation weight plus the four criterion
weights plus the award flag; it lives on a 0.5 lattice in [-7, 8] and is
kept as an integer number of half-steps until aggregation.  Ingestion
computes it, by :func:`reviewpipe.records.label_score`, once per distinct
label tuple, into the :class:`reviewpipe.records.ReviewTable` that
:func:`score_table` aggregates.  Fusion needs both sides: only :func:`score_table`
rejects a paper that lacks a review or a meta-review.  Reviewer
confidence weights the aggregation, not the score itself.  Normalized
reviewer and meta-reviewer scores are fused per paper with a harmonic mean,
and the top floor(a% of P) papers are accepted.  How the score table and
the decision lists are written is :mod:`reviewpipe.report`'s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .records import MetaReviewForm, ReviewForm, ReviewTable, id_rank, label_score, review_table
from .records import spellings

__all__ = [
    "ReviewScore",
    "ScoreTable",
    "DecisionConfig",
    "Decision",
    "DecisionList",
    "DegenerateScaleWarning",
    "review_score",
    "normalize",
    "score_index",
    "build_score_table",
    "score_table",
    "rank_and_cut",
]

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
    s_half, confidence = label_score(
        form.recommendation, *form.criteria, form.confidence, form.award
    )
    return ReviewScore(form.paper, form.reviewer, s_half, confidence)


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


def weighted_paper_mean(values, paper, weights, n_papers: int) -> np.ndarray:
    """Per-paper weighted mean of row values; every paper needs a row."""
    num = np.bincount(paper, weights=weights * values, minlength=n_papers)
    den = np.bincount(paper, weights=weights, minlength=n_papers)
    if np.any(den == 0):
        raise ValueError("every paper needs at least one review entry")
    return num / den


def paper_pairs(paper: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (i, j) of rows on one paper, each row paired with
    itself too.  ``paper`` is sorted and ``counts`` is its bincount."""
    size = counts[paper]
    first = counts.cumsum() - counts
    i = np.arange(len(paper)).repeat(size)
    j = first[paper[i]] + np.arange(len(i)) - (size.cumsum() - size).repeat(size)
    return i, j


def score_table(rows: ReviewTable, values=None) -> ScoreTable:
    """Aggregate a review table into the per-paper score table.

    ``values`` optionally replaces the raw review scores, aligned with the
    table's rows -- used for the dequantized variant of the pipeline.
    Papers are ordered as the table's ids, which the reader sorts.  Fusion
    needs both sides, and only here is a paper refused for lacking one: a
    ``ValueError`` names the papers without a meta-review, else those
    without a review, or says that no review was accepted.  Before those,
    ids of one role that are equal under NFC, one paper or person under
    two spellings, are refused with a ``ValueError`` naming them.
    """
    n_papers = len(rows.paper_ids)
    if not n_papers:
        raise ValueError("no review was accepted: the table has no papers")
    spelt = [text for _, text in spellings(rows)]
    if spelt:
        raise ValueError(f"one paper or person under two spellings: {'; '.join(spelt)}")
    for paper, problem in (
        (rows.meta_paper, "papers without meta-review"),
        (rows.paper, "meta-reviews for unreviewed papers"),
    ):
        missing = np.flatnonzero(np.bincount(paper, minlength=n_papers) == 0).tolist()
        if missing:
            raise ValueError(f"{problem}: {[rows.paper_ids[p] for p in missing]}")
    values = rows.s if values is None else np.asarray(values, dtype=float)
    s_p = weighted_paper_mean(values, rows.paper, rows.confidence, n_papers)
    xi_p = weighted_paper_mean(rows.xi, rows.meta_paper, np.ones(len(rows.xi)), n_papers)
    sR = normalize(s_p)
    sM = normalize(xi_p)
    return ScoreTable(
        papers=list(rows.paper_ids),
        s_p=s_p,
        xi_p=xi_p,
        sR_norm=sR,
        sM_norm=sM,
        SI=np.asarray(score_index(sR, sM)),
    )


def build_score_table(reviews: list[ReviewForm], metas: list[MetaReviewForm]) -> ScoreTable:
    """Aggregate reviews and meta-reviews into the per-paper score table.

    Papers missing either a review or a meta-review are rejected.
    """
    return score_table(review_table(reviews, metas))


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
        # floor(a% of P) in integers, the rate taken to 12 decimals: in
        # floats, 29% of 100 comes to 28.999...
        return int(f"{self.acceptance_rate:.12f}".replace(".", "")) * n_papers // 10**14


class Decision(NamedTuple):
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
    si = np.asarray(si, dtype=float)
    order = np.lexsort((id_rank(table.papers), -np.asarray(sm, dtype=float), -si))
    n = len(table.papers)
    k = cfg.n_accept(n)
    papers = map(table.papers.__getitem__, order.tolist())
    accept = [True] * k + [False] * (n - k)
    decisions = list(map(Decision, range(1, n + 1), papers, si[order].tolist(), accept))
    return DecisionList(decisions, n_accept=k, acceptance_rate=cfg.acceptance_rate)
