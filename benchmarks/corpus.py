"""Seeded synthetic inputs for the benchmark workloads.

Review corpora come from a planted additive model: paper quality
q ~ N(0, 1), reviewer bias b ~ N(0, SIGMA_B^2) and per-review noise,
mapped onto the Likert labels of the review form.  The planted top
floor(a% * P) papers by q are the reference for accept recall.

Assignment instances give each paper a fixed number of sparse candidate
reviewers with bid, subject and matching-service evidence; a share of
the matching-service scores is missing, a share of reviewers are
author-reviewers and a share of candidate pairs are conflicts.

Everything is drawn from one ``numpy.random.Generator`` seeded by the
caller, so a seed fixes the files byte for byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from reviewpipe import (
    MetaReviewForm,
    ReviewForm,
    export_json,
    export_metas_csv,
    export_reviews_csv,
    likert_labels,
)

# Planted model, in units of the quality spread.
SIGMA_B = 0.4  # reviewer bias
SIGMA_E = 0.4  # per-review noise
SIGMA_BM = 0.3  # meta-reviewer bias
SIGMA_EM = 0.3  # per-meta-review noise
REC_SCALE = 1.5  # latent score -> recommendation steps (-3..3)
CRIT_SCALE = 0.5  # latent score -> criterion weight (-1..1)
CRIT_SD = 0.25  # criterion-specific noise
AWARD_Z = 1.8  # latent score above which the award flag is set

RECS = likert_labels("recommendation")  # weight 3 first, -3 last
CRITS = likert_labels("criterion")  # weight 1.0 first, -1.0 last
CONFS = likert_labels("confidence")

PAPERS_PER_META = 15


def _reviewer_slots(rng, paper_of: np.ndarray, n_reviewers: int) -> np.ndarray:
    """Reviewer for each review slot: loads differ by at most one and no
    reviewer sees a paper twice."""
    slots = rng.permutation(np.resize(np.arange(n_reviewers), len(paper_of)))
    seen: set[tuple[int, int]] = set()
    dups = []
    for i, (p, r) in enumerate(zip(paper_of.tolist(), slots.tolist())):
        if (p, r) in seen:
            dups.append(i)
        else:
            seen.add((p, r))
    pending = set(dups)
    for i in dups:
        p, ri = int(paper_of[i]), int(slots[i])
        while True:
            j = int(rng.integers(len(slots)))
            pj, rj = int(paper_of[j]), int(slots[j])
            if j in pending or pj == p or (p, rj) in seen or (pj, ri) in seen:
                continue
            seen.discard((pj, rj))
            seen.update({(p, rj), (pj, ri)})
            slots[i], slots[j] = rj, ri
            pending.discard(i)
            break
    return slots


def review_corpus(
    rng,
    n_papers: int,
    n_reviews: int,
    n_reviewers: int,
    acceptance_rate: float,
):
    """Planted review corpus.

    Every paper gets ``n_reviews // n_papers`` reviews and a random
    ``n_reviews % n_papers`` of them one more; each paper has one
    meta-review, from one of ``n_papers // 15`` meta-reviewers.  Returns
    (reviews, metas, planted top paper ids).
    """
    papers = [f"P{i:05d}" for i in range(n_papers)]
    reviewers = [f"R{i:05d}" for i in range(n_reviewers)]
    n_meta = max(2, n_papers // PAPERS_PER_META)
    metareviewers = [f"M{i:04d}" for i in range(n_meta)]

    q = rng.normal(0.0, 1.0, n_papers)
    b = rng.normal(0.0, SIGMA_B, n_reviewers)
    counts = np.full(n_papers, n_reviews // n_papers)
    counts[rng.choice(n_papers, n_reviews % n_papers, replace=False)] += 1
    paper_of = np.repeat(np.arange(n_papers), counts)
    reviewer_of = _reviewer_slots(rng, paper_of, n_reviewers)

    z = q[paper_of] + b[reviewer_of] + rng.normal(0.0, SIGMA_E, n_reviews)
    rec = np.clip(np.rint(REC_SCALE * z), -3, 3).astype(int)
    crit_half = np.clip(
        np.rint(2 * (CRIT_SCALE * z[:, None] + rng.normal(0.0, CRIT_SD, (n_reviews, 4)))), -2, 2
    ).astype(int)
    conf = rng.integers(len(CONFS), size=n_reviews)
    award = (z > AWARD_Z).astype(int)
    reviews = [
        ReviewForm(
            paper=papers[paper_of[i]],
            reviewer=reviewers[reviewer_of[i]],
            recommendation=RECS[3 - rec[i]],
            criteria=tuple(CRITS[2 - c] for c in crit_half[i]),
            confidence=CONFS[conf[i]],
            award=int(award[i]),
        )
        for i in range(n_reviews)
    ]

    meta_of = rng.permutation(np.resize(np.arange(n_meta), n_papers))
    bm = rng.normal(0.0, SIGMA_BM, n_meta)
    m = q + bm[meta_of] + rng.normal(0.0, SIGMA_EM, n_papers)
    meta_rec = np.clip(np.rint(REC_SCALE * m), -3, 3).astype(int)
    metas = [
        MetaReviewForm(papers[i], metareviewers[meta_of[i]], RECS[3 - meta_rec[i]])
        for i in range(n_papers)
    ]

    # computed here, not by the program, so the checks' slot count is independent
    k = math.floor(acceptance_rate / 100.0 * n_papers)
    planted = sorted(papers[i] for i in np.argsort(-q, kind="stable")[:k])
    return reviews, metas, planted


def write_review_corpus(out_dir: Path, fmt: str, reviews, metas) -> dict:
    """Write the corpus as the program's CSV or JSON exports; returns the
    ``PipelineConfig`` path fields."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        (out_dir / "reviews.csv").write_text(export_reviews_csv(reviews), encoding="utf-8")
        (out_dir / "metas.csv").write_text(export_metas_csv(metas), encoding="utf-8")
        return {
            "reviews_path": str(out_dir / "reviews.csv"),
            "meta_path": str(out_dir / "metas.csv"),
        }
    (out_dir / "reviews.json").write_text(export_json(reviews, metas), encoding="utf-8")
    return {"reviews_path": str(out_dir / "reviews.json"), "meta_path": None}


def assignment_instance(
    rng,
    n_papers: int,
    n_reviewers: int,
    candidates_per_paper: int,
    missing_tpms: float,
    author_share: float,
    conflict_share: float,
):
    """Sparse candidate reviewers per paper with similarity evidence.

    Returns (rows, tags, conflicts): ``rows`` are (reviewer, paper, bid,
    subject, tpms-or-None) with values rounded to 4 decimals, as written.
    """
    papers = [f"P{i:05d}" for i in range(n_papers)]
    reviewers = [f"R{i:05d}" for i in range(n_reviewers)]
    cand = np.stack(
        [rng.choice(n_reviewers, candidates_per_paper, replace=False) for _ in range(n_papers)]
    )
    n_pairs = cand.size
    match = rng.uniform(0.0, 1.0, n_pairs)
    bid = np.clip(match + rng.normal(0.0, 0.25, n_pairs), 0.0, 1.0).round(4)
    subject = np.clip(match + rng.normal(0.0, 0.15, n_pairs), 0.0, 1.0).round(4)
    tpms = np.clip(match + rng.normal(0.0, 0.10, n_pairs), 0.0, 1.0).round(4)
    has_tpms = rng.random(n_pairs) >= missing_tpms
    pairs = [(p, r) for p in range(n_papers) for r in cand[p].tolist()]
    rows = [
        (
            reviewers[r],
            papers[p],
            float(bid[k]),
            float(subject[k]),
            float(tpms[k]) if has_tpms[k] else None,
        )
        for k, (p, r) in enumerate(pairs)
    ]
    authors = rng.choice(n_reviewers, round(author_share * n_reviewers), replace=False)
    tags = {r: "Rev1" for r in reviewers}
    for i in authors.tolist():
        tags[reviewers[i]] = "Rev2"
    conflict_rows = rng.choice(n_pairs, round(conflict_share * n_pairs), replace=False)
    conflicts = sorted((rows[k][0], rows[k][1]) for k in conflict_rows.tolist())
    return rows, tags, conflicts


def write_assignment_instance(out_dir: Path, rows, tags, conflicts) -> dict:
    """Write the CSV files the ``reviewpipe assign`` command reads; returns
    their paths by flag name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "similarities": out_dir / "similarities.csv",
        "tags": out_dir / "tags.csv",
        "conflicts": out_dir / "conflicts.csv",
    }
    with open(paths["similarities"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["reviewer_id", "paper_id", "bid", "subject_relevance", "tpms"])
        for r, p, bid, subject, tpms in rows:
            tpms_text = "" if tpms is None else f"{tpms:.4f}"
            w.writerow([r, p, f"{bid:.4f}", f"{subject:.4f}", tpms_text])
    with open(paths["tags"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["reviewer_id", "tag"])
        w.writerows(sorted(tags.items()))
    with open(paths["conflicts"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["reviewer_id", "paper_id"])
        w.writerows(conflicts)
    return {k: str(v) for k, v in paths.items()}
