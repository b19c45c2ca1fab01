"""Shared fixtures and synthetic-data generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from reviewpipe.calibration import CalibrationInputs
from reviewpipe.records import (
    MetaReviewForm,
    ReviewForm,
    likert_labels,
)

# CI runs ``pytest --hypothesis-profile=ci``: the same examples on every run,
# and a failure prints the blob that replays it (``@reproduce_failure``)
settings.register_profile("ci", derandomize=True, print_blob=True)

RECS = likert_labels("recommendation")
CRITS = likert_labels("criterion")
CONFS = likert_labels("confidence")


def make_review(paper, reviewer, rec="Borderline", crit="Good", conf="Good", award=0):
    return ReviewForm(
        paper=paper,
        reviewer=reviewer,
        recommendation=rec,
        criteria=(crit, crit, crit, crit),
        confidence=conf,
        award=award,
    )


def random_review(rng, paper, reviewer):
    return ReviewForm(
        paper=paper,
        reviewer=reviewer,
        recommendation=RECS[rng.integers(len(RECS))],
        criteria=tuple(CRITS[i] for i in rng.integers(len(CRITS), size=4)),
        confidence=CONFS[rng.integers(len(CONFS))],
        award=int(rng.integers(2)),
    )


def random_corpus(rng, n_papers, n_reviewers, reviews_per_paper=3, with_meta=True):
    """Random well-formed review corpus with unique (reviewer, paper) pairs."""
    papers = [f"P{i:04d}" for i in range(n_papers)]
    reviewers = [f"R{i:04d}" for i in range(n_reviewers)]
    reviews = []
    for p in papers:
        chosen = rng.choice(n_reviewers, size=reviews_per_paper, replace=False)
        for j in chosen:
            reviews.append(random_review(rng, p, reviewers[j]))
    metas = []
    if with_meta:
        n_acs = max(2, n_papers // 15)
        for i, p in enumerate(papers):
            metas.append(
                MetaReviewForm(
                    paper=p,
                    metareviewer=f"M{i % n_acs:03d}",
                    recommendation=RECS[rng.integers(len(RECS))],
                )
            )
    return papers, reviewers, reviews, metas


def planted_instance(rng, n_papers, n_reviewers, reviews_per_paper=3, bias_sd=1.0, noise_sd=0.3):
    """Scores from the additive quality + reviewer-offset + noise model,
    with the planted values returned for recovery checks."""
    quality = rng.normal(0.0, 1.0, n_papers)
    bias = rng.normal(0.0, bias_sd, n_reviewers)
    paper_idx, reviewer_idx, s = [], [], []
    for p in range(n_papers):
        for r in rng.choice(n_reviewers, size=reviews_per_paper, replace=False):
            paper_idx.append(p)
            reviewer_idx.append(int(r))
            s.append(quality[p] + bias[r] + rng.normal(0.0, noise_sd))
    inputs = CalibrationInputs(
        s=np.array(s),
        paper_idx=np.array(paper_idx),
        reviewer_idx=np.array(reviewer_idx),
        paper_ids=[f"P{i:04d}" for i in range(n_papers)],
        reviewer_ids=[f"R{i:04d}" for i in range(n_reviewers)],
    )
    return inputs, quality, bias


def random_labels(rng, n, n_papers, n_reviewers):
    """Unique (paper, reviewer) label pairs for covariance construction."""
    pairs = [(p, r) for p in range(n_papers) for r in range(n_reviewers)]
    idx = rng.choice(len(pairs), size=n, replace=False)
    pi = np.array([pairs[i][0] for i in idx])
    ri = np.array([pairs[i][1] for i in idx])
    return pi, ri


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
