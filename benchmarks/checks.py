"""Output checks for one benchmark operation, and the LP bound that the
assignment result is compared against.

Each check reads the artifacts an operation wrote and returns a list of
problems (empty when the output is correct) plus the quality figures the
benchmark reports.  The checks use only the files and the planted truth,
never the program's in-memory results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

NORMALIZED_COLUMNS = ("sR_norm", "sM_norm", "SI", "sR_cal", "sM_cal", "SI_cal")
COVERAGE = "minimum reviewers per paper"  # the audit's coverage constraint
WEIGHTS = (0.2, 0.3, 0.5)  # bid, matching service, subject area


def pair_similarity(bid: float, subject: float, tpms: float | None) -> float:
    """The documented blend of the three sources, with a missing
    matching-service weight spread over the other two; kept apart from the
    program's own ``combined_similarity`` so the checks do not share its
    defects."""
    w_bid, w_tpms, w_subj = WEIGHTS
    if tpms is None:
        return (w_bid * bid + w_subj * subject) / (w_bid + w_subj)
    return w_bid * bid + w_tpms * tpms + w_subj * subject


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _accepted(path: Path, papers: set, n_accept: int, problems: list) -> set:
    rows = _csv_rows(path)
    ids = [r["paper_id"] for r in rows]
    if len(ids) != len(papers) or set(ids) != papers:
        problems.append(f"{path.name}: does not list each paper once")
    accepted = {r["paper_id"] for r in rows if r["decision"] == "accept"}
    if len(accepted) != n_accept:
        problems.append(f"{path.name}: {len(accepted)} accepted, expected {n_accept}")
    return accepted


def check_pipeline(out_dir: Path, truth: dict) -> tuple[list[str], dict]:
    """Check a ``run_pipeline`` output directory against the planted
    corpus; returns (problems, {"accept_recall": ...})."""
    problems: list[str] = []
    papers = set(truth["papers"])
    n_accept = truth["n_accept"]
    calibrated = truth["calibrate"]

    accepted = _accepted(out_dir / "decisions.csv", papers, n_accept, problems)
    if calibrated:
        accepted = _accepted(out_dir / "decisions_calibrated.csv", papers, n_accept, problems)

    gray = json.loads((out_dir / "gray_area.json").read_text(encoding="utf-8"))
    classes = gray["agree_accept"] + gray["agree_reject"] + gray["disagree"]
    if calibrated:
        if len(classes) != len(papers) or set(classes) != papers:
            problems.append("gray_area.json: classes do not partition the papers")
    elif classes or "notice" not in gray:
        problems.append("gray_area.json: classes filled although calibration is off")

    table = _csv_rows(out_dir / "score_table.csv")
    if {r["paper_id"] for r in table} != papers or len(table) != len(papers):
        problems.append("score_table.csv: does not list each paper once")
    present = [c for c in NORMALIZED_COLUMNS if table and c in table[0]]
    if calibrated != ("SI_cal" in present):
        problems.append("score_table.csv: calibrated columns present iff calibration is on")
    for col in present:
        values = [float(r[col]) for r in table]
        if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values):
            problems.append(f"score_table.csv: {col} not finite within [0, 100]")

    if calibrated:
        n_samples = truth["n_samples"]
        rows = _csv_rows(out_dir / "acceptance_probability.csv")
        probs = [float(r["acceptance_probability"]) for r in rows]
        total = sum(round(p * n_samples) for p in probs)
        if len(probs) != len(papers) or total != n_accept * n_samples:
            problems.append(
                f"acceptance_probability.csv: counts sum to {total}, "
                f"expected {n_accept * n_samples}"
            )

    planted = set(truth["planted"])
    return problems, {"accept_recall": len(accepted & planted) / len(planted)}


def check_assignment(out_dir: Path, truth: dict) -> tuple[list[str], dict]:
    """Check a ``reviewpipe assign`` output directory.  Returns (problems,
    {"objective": ..., "shortfall": ...}).

    Every constraint in the audit must pass, and reviewer capacity, the
    author-reviewer cap and conflicts must also hold when recounted from
    ``assignment.csv``.  Coverage is excused only when the LP shows that no
    full cover exists (``truth["lp_form"]`` is not exact coverage).  The
    constraint matrix is totally unimodular, so a feasible exact-coverage
    LP means an integral full cover exists, and a paper left below the
    reviewer floor is then the program's fault.
    """
    problems: list[str] = []
    audit = json.loads((out_dir / "assignment_audit.json").read_text(encoding="utf-8"))
    cover_exists = truth["lp_form"] == "exact coverage"
    failed = [
        n
        for n, c in audit["constraints"].items()
        if not c["pass"] and (n != COVERAGE or cover_exists)
    ]
    if failed:
        problems.append(f"assignment_audit.json: constraints violated: {failed}")

    sim = truth["similarity"]
    pairs = [(r["reviewer_id"], r["paper_id"]) for r in _csv_rows(out_dir / "assignment.csv")]
    if len(set(pairs)) != len(pairs):
        problems.append("assignment.csv: repeated pair")
    if any(f"{r}|{p}" not in sim for r, p in pairs):
        problems.append("assignment.csv: pair outside the candidate list")
    conflicts = {tuple(c) for c in truth["conflicts"]}
    if any(pair in conflicts for pair in pairs):
        problems.append("assignment.csv: conflicted pair assigned")
    k, cap = truth["min_reviewers"], truth["max_papers"]
    cover = Counter(p for _, p in pairs)
    load = Counter(r for r, _ in pairs)
    authors = set(truth["authors"])
    author_cover = Counter(p for r, p in pairs if r in authors)
    if any(n > cap for n in load.values()):
        problems.append("assignment.csv: reviewer over capacity")
    if any(n > truth["max_author_reviewers"] for n in author_cover.values()):
        problems.append("assignment.csv: too many author-reviewers on a paper")
    if any(cover[p] > k for p in truth["papers"]):
        problems.append("assignment.csv: paper above the reviewer count")
    shortfalls = {p: k - cover[p] for p in truth["papers"] if cover[p] < k}
    if shortfalls and cover_exists:
        problems.append(
            f"assignment.csv: {len(shortfalls)} papers below the reviewer floor "
            "although the LP has a full cover"
        )
    if audit["shortfalls"] != shortfalls or audit["feasible"] != (not shortfalls):
        problems.append("assignment_audit.json: shortfalls differ from the assigned pairs")
    objective = sum(sim[f"{r}|{p}"] for r, p in pairs if f"{r}|{p}" in sim)
    if abs(objective - audit["total_similarity"]) > 1e-6 * max(1.0, objective):
        problems.append("assignment_audit.json: total_similarity does not match the pairs")
    return problems, {"objective": audit["total_similarity"], "shortfall": len(shortfalls)}


def lp_bound(
    similarity: dict,
    papers: list,
    authors: set,
    conflicts: set,
    min_reviewers: int,
    max_papers: int,
    max_author_reviewers: int,
) -> tuple[float, str]:
    """Optimum of the LP relaxation over the same candidate pairs.

    Each paper gets exactly ``min_reviewers`` reviewers, each reviewer at
    most ``max_papers`` papers, each paper at most ``max_author_reviewers``
    author-reviewers, and conflicted pairs are excluded.  When exact
    coverage is infeasible, coverage becomes an upper limit instead.
    Returns (bound, which coverage form was used).
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, vstack

    pairs = [pr for pr in sorted(tuple(k.split("|")) for k in similarity) if pr not in conflicts]
    n = len(pairs)
    cols = np.arange(n)
    ones = np.ones(n)
    pidx = {p: i for i, p in enumerate(papers)}
    rids = sorted({r for r, _ in pairs})
    ridx = {r: i for i, r in enumerate(rids)}
    prow = np.array([pidx[p] for _, p in pairs])
    rrow = np.array([ridx[r] for r, _ in pairs])
    mine = np.array([r in authors for r, _ in pairs])
    cover = coo_matrix((ones, (prow, cols)), shape=(len(papers), n))
    load = coo_matrix((ones, (rrow, cols)), shape=(len(rids), n))
    author = coo_matrix((ones[mine], (prow[mine], cols[mine])), shape=(len(papers), n))
    c = -np.array([similarity["|".join(pr)] for pr in pairs])

    a_ub = vstack([load, author]).tocsr()
    b_ub = np.concatenate(
        [np.full(len(rids), max_papers), np.full(len(papers), max_author_reviewers)]
    )
    demand = np.full(len(papers), min_reviewers)
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=cover.tocsr(), b_eq=demand, bounds=(0, 1), method="highs"
    )
    if res.status == 0:
        return -res.fun, "exact coverage"
    res = linprog(
        c,
        A_ub=vstack([a_ub, cover]).tocsr(),
        b_ub=np.concatenate([b_ub, demand]),
        bounds=(0, 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP bound failed: {res.message}")
    return -res.fun, "coverage at most k"
