"""The columnar reader against the row-by-row loader it replaced.

The oracle below is that loader: ``csv.DictReader`` rows, one
``ReviewForm`` per row, one ``review_score`` per review in the table, and a
separate ``validate`` pass merged with the loader's rejections and
warnings.  On messy CSV and JSON exports both paths must give the same
``ReviewTable`` (ids, scores and meta-review weights of the accepted rows)
and the same ``validation.json`` text, and ``score_table`` must reject the
table exactly when the oracle's pairing rule does, with its message.  The
oracle also holds the rule for rows longer than their header, which the old
loader did not have: non-empty surplus fields reject the row, empty ones are
ignored, and the report shows them either way as ``extra_fields``.
"""

import csv
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from reviewpipe.records import (
    DUPLICATE_PAIR,
    META_SCHEMA,
    REVIEW_SCHEMA,
    MetaReviewForm,
    ReviewForm,
    ReviewTable,
    UnknownLabelError,
    ValidationReport,
    encode_likert,
    read_exports,
)
from reviewpipe.scoring import DegenerateScaleWarning, review_score, score_table

# --- the oracle -------------------------------------------------------------


def oracle_ids(row: dict, columns) -> None:
    """A JSON id that is a boolean, an array or an object names no paper
    or person; the reader names it before a missing field."""
    for col in columns:
        if isinstance(row.get(col), (bool, list, dict)):
            raise UnknownLabelError(f"{col} {row[col]!r} is not an id")


def oracle_review(row: dict) -> ReviewForm:
    oracle_ids(row, ("paper_id", "reviewer_id"))
    for col in REVIEW_SCHEMA.required:
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


def oracle_meta(row: dict) -> MetaReviewForm:
    oracle_ids(row, ("paper_id", "metareviewer_id"))
    for col in META_SCHEMA.columns:
        if row.get(col) in (None, ""):
            raise UnknownLabelError(f"missing required field {col!r}")
    return MetaReviewForm(
        paper=str(row["paper_id"]).strip(),
        metareviewer=str(row["metareviewer_id"]).strip(),
        recommendation=str(row["recommendation"]),
    )


def oracle_validate(reviews, metas, metas_read, min_reviews=2) -> ValidationReport:
    report = ValidationReport()
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
    if not reviews:
        report.findings.append(("no review accepted", "no review row was accepted"))
    for paper in sorted(papers):  # a paper only meta-reviews name has 0 reviews
        if per_paper[paper] < min_reviews:
            finding = f"paper {paper} has {per_paper[paper]} review(s)"
            report.findings.append(("below minimum reviews", finding))
    dup = Counter((f.reviewer, f.paper) for f in reviews)
    for (r, p), n in sorted(item for item in dup.items() if item[1] > 1):
        report.findings.append(("duplicate assignment", f"reviewer {r} reviewed paper {p} {n} times"))
    meta_papers = {f.paper for f in metas}
    for paper in sorted(papers):
        if metas_read and paper not in meta_papers:
            report.findings.append(("missing meta-review", f"paper {paper}"))
    return report


def oracle_load(path, format="csv", meta_path=None):
    """(reviews, metas, the report pipeline and CLI wrote as validation.json)."""
    if format == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            review_rows = list(csv.DictReader(fh))
        meta_rows = []
        metas_read = meta_path is not None
        if metas_read:
            with open(meta_path, newline="", encoding="utf-8-sig") as fh:
                meta_rows = list(csv.DictReader(fh))
    else:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        review_rows = payload.get("reviews", [])
        meta_rows = payload.get("meta_reviews", [])
        metas_read = "meta_reviews" in payload
    rejected, warnings = [], []
    reviews, metas = [], []
    for rows, parse, out in ((review_rows, oracle_review, reviews), (meta_rows, oracle_meta, metas)):
        seen = set()
        for row in rows:
            # DictReader keeps the fields beyond the header under None
            extra = row.pop(None, None) if format == "csv" else None
            n = len(row)
            if parse is oracle_review and row.get("confidence") in (None, ""):
                row = dict(row, confidence="Good")
                warnings.append(
                    f"review ({row.get('reviewer_id')}, {row.get('paper_id')}): "
                    "missing confidence, defaulted to 'Good'"
                )
            if extra is not None:
                row = dict(row, extra_fields=extra)
                if any(extra):
                    rejected.append((row, f"row has {n + len(extra)} fields, header has {n}"))
                    continue
            try:
                form = parse(row)
            except (UnknownLabelError, ValueError) as exc:
                rejected.append((dict(row), str(exc)))
                continue
            pair = (getattr(form, "reviewer", None) or getattr(form, "metareviewer", None), form.paper)
            if pair in seen:
                rejected.append((dict(row), DUPLICATE_PAIR))
                continue
            seen.add(pair)
            out.append(form)
    report = oracle_validate(reviews, metas, metas_read)
    report.rejected = rejected
    report.warnings = warnings
    return reviews, metas, report


def oracle_pairing(reviews, metas) -> str | None:
    """Why fusion rejects the accepted rows, or None."""
    paper_ids = sorted({f.paper for f in reviews})
    meta_papers = {m.paper for m in metas}
    if not paper_ids and not meta_papers:
        return "no review was accepted: the table has no papers"
    missing_meta = [p for p in paper_ids if p not in meta_papers]
    if missing_meta:
        return f"papers without meta-review: {missing_meta}"
    extra_meta = sorted(meta_papers.difference(paper_ids))
    if extra_meta:
        return f"meta-reviews for unreviewed papers: {extra_meta}"
    return None


def oracle_table(reviews, metas) -> ReviewTable:
    scores = [review_score(f) for f in reviews]

    def codes(ids, uniq=None):
        uniq = sorted(set(ids)) if uniq is None else uniq
        index = {x: i for i, x in enumerate(uniq)}
        return uniq, np.array([index[x] for x in ids], dtype=int)

    paper_ids = sorted({sc.paper for sc in scores} | {m.paper for m in metas})
    _, paper = codes([sc.paper for sc in scores], paper_ids)
    _, meta_paper = codes([m.paper for m in metas], paper_ids)
    reviewer_ids, reviewer = codes([sc.reviewer for sc in scores])
    metareviewer_ids, metareviewer = codes([m.metareviewer for m in metas])
    rows = np.lexsort((reviewer, paper))
    meta_rows = np.lexsort((metareviewer, meta_paper))
    return ReviewTable(
        paper_ids=paper_ids,
        reviewer_ids=reviewer_ids,
        metareviewer_ids=metareviewer_ids,
        paper=paper[rows],
        reviewer=reviewer[rows],
        s_half=np.array([sc.s_half for sc in scores], dtype=int)[rows],
        confidence=np.array([sc.confidence for sc in scores], dtype=float)[rows],
        meta_paper=meta_paper[meta_rows],
        metareviewer=metareviewer[meta_rows],
        xi=np.array(
            [encode_likert(m.recommendation, "recommendation") for m in metas], dtype=float
        )[meta_rows],
    )


# --- comparison -------------------------------------------------------------


def assert_tables_equal(a: ReviewTable, b: ReviewTable):
    for name in ("paper_ids", "reviewer_ids", "metareviewer_ids"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("paper", "reviewer", "s_half", "confidence", "meta_paper", "metareviewer", "xi"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_matches_oracle(path, format="csv", meta_path=None):
    reviews, metas, report = oracle_load(path, format, meta_path)
    table = read_exports(path, format, meta_path)
    assert json.dumps(table.report.to_dict(), indent=2, sort_keys=True) == json.dumps(
        report.to_dict(), indent=2, sort_keys=True
    )
    assert_tables_equal(table, oracle_table(reviews, metas))
    problem = oracle_pairing(reviews, metas)
    if problem is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            score_table(table)
    else:
        with warnings.catch_warnings():  # a constant column is not what this checks
            warnings.simplefilter("ignore", DegenerateScaleWarning)
            score_table(table)


# --- messy exports ----------------------------------------------------------

# column -> (well-formed values, malformed values)
POOLS = {
    "paper_id": (["P1", "P2", "P3", " P1", "P,4"], [""]),
    "reviewer_id": (["R1", "R2", "R3", "R4", "R5", "R6", "R2 "], [""]),
    "recommendation": (["Accept", " accept", "Strong Reject", "weak  ACCEPT"], ["Maybe", ""]),
    **{c: (["Good", "excellent", " Poor", "Fair"], ["Superb", ""]) for c in ("c1", "c2", "c3", "c4")},
    "confidence": (["Good", "Very good", "poor"], ["", "Bad"]),
    "award": (["0", "1", "", " 1"], ["2", "x", "1.0"]),
    "comments": (["", "fine", "a, b", 'say "hi"', "two\nlines"], []),
}
META_POOLS = {
    "paper_id": POOLS["paper_id"],
    "metareviewer_id": (["M1", "M2", " M1"], [""]),
    "recommendation": POOLS["recommendation"],
}
# JSON exports also carry numbers, booleans, lists, objects and null
JSON_VALUES = [0, 1, 2, 1.0, True, False, None, ["Accept"], [1], {"a": 1}]


def field_value(rnd, pools, column, extra=()):
    """Mostly a well-formed value, one time in sixteen a malformed one."""
    good, bad = pools[column]
    bad = [*bad, *extra]
    return rnd.choice(bad if bad and rnd.random() < 1 / 16 else good)


@st.composite
def csv_export(draw, pools, optional):
    """CSV text: a shuffled header without some optional columns, perhaps
    after a byte-order mark; rows drawn from ``pools``, some cut short,
    some with empty or non-empty fields beyond the header; and blank
    lines."""
    rnd = draw(st.randoms())
    header = [c for c in pools if c not in optional or rnd.random() < 0.7]
    rnd.shuffle(header)
    buf = io.StringIO()
    if rnd.random() < 0.2:
        buf.write("\ufeff")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for _ in range(rnd.randrange(15)):
        row = [field_value(rnd, pools, c) for c in header]
        kind = rnd.choice(["row"] * 8 + ["short", "blank", "long"])
        if kind == "short":
            row = row[: rnd.randrange(1, len(row) + 1)]
        elif kind == "long":
            row += [rnd.choice(["", "", "x", " "]) for _ in range(rnd.randrange(1, 3))]
        writer.writerow([] if kind == "blank" else row)
    return buf.getvalue()


@st.composite
def json_objects(draw, pools):
    """Export objects that may lack any field and hold any JSON value."""
    rnd = draw(st.randoms())
    return [
        {c: field_value(rnd, pools, c, JSON_VALUES) for c in pools if rnd.random() < 0.95}
        for _ in range(rnd.randrange(13))
    ]


EXPORTS = {
    "csv": {
        "reviews": csv_export(POOLS, ("confidence", "award", "comments")),
        "metas": st.none() | csv_export(META_POOLS, ()),
    },
    "json": {"reviews": json_objects(POOLS), "metas": json_objects(META_POOLS)},
}


def written(tmp, format, reviews, metas):
    """Write a drawn export into the directory ``tmp``; returns the
    arguments of ``read_exports``."""
    if format == "json":
        path = Path(tmp) / "e.json"
        path.write_text(json.dumps({"reviews": reviews, "meta_reviews": metas}), encoding="utf-8")
        return path, "json", None
    rpath, mpath = Path(tmp) / "r.csv", Path(tmp) / "m.csv"
    rpath.write_text(reviews, encoding="utf-8")
    if metas is None:
        return rpath, "csv", None
    mpath.write_text(metas, encoding="utf-8")
    return rpath, "csv", mpath


@settings(max_examples=150, deadline=None)
@given(**EXPORTS["csv"])
def test_csv_reader_matches_oracle(reviews, metas):
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_oracle(*written(tmp, "csv", reviews, metas))


@settings(max_examples=150, deadline=None)
@given(**EXPORTS["json"])
def test_json_reader_matches_oracle(reviews, metas):
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_oracle(*written(tmp, "json", reviews, metas))


@pytest.mark.parametrize("format", ["csv", "json"])
def test_strategies_draw_exports_with_no_accepted_row(format):
    """The two tests above reach the refusal of a table with no papers:
    their strategies draw exports with review rows of which none, and no
    meta-review row, is accepted."""

    def none_accepted(export) -> bool:
        reviews, metas = export
        # a CSV text's last line after the header is a row once it is stripped
        if not (reviews if format == "json" else reviews.strip().splitlines()[1:]):
            return False
        with tempfile.TemporaryDirectory() as tmp:
            return not read_exports(*written(tmp, format, reviews, metas)).paper_ids

    find(st.tuples(EXPORTS[format]["reviews"], EXPORTS[format]["metas"]), none_accepted)


def test_every_messy_case_at_once(tmp_path):
    """Each case the generators draw, written out once."""
    rpath = tmp_path / "r.csv"
    rpath.write_text(
        "c4,c3,recommendation,paper_id,reviewer_id,c1,c2,award\n"  # reordered, no confidence/comments
        "Good,Good,Accept,P1,R1,Good,Good,0\n"
        "Good,Good,accept ,P1,R1,Good,Good,1\n"  # repeated pair
        "Good,Good,Maybe,P1,R2,Good,Good,0\n"  # unknown label
        "Good,Good,Accept, P2 , R2 ,Good,Good,x\n"  # bad award, whitespace ids
        "\n"
        "Good,Good,Accept,P2,R3,Good,\n"  # missing c2 and award
        "Good,Good\n"  # short row
        "Good,Good,Reject,P2,R1,Excellent,Poor,1\n"
        "Good,Good,Accept,P3,R1,Good,Good,0,,\n"  # empty fields beyond the header
        "Good,Good,Accept,P3,R2,Good,Good,0,, x\n"  # a non-empty one
        "Good,Good,Maybe,P3,R3,Good,Good,0,\n",  # rejected, and shown with its empty extra
        encoding="utf-8",
    )
    mpath = tmp_path / "m.csv"
    mpath.write_text(
        "\ufeffrecommendation,paper_id,metareviewer_id\n"  # a byte-order mark
        "Accept,P1,M1\nReject,P1,M1\nBad,P2,M2\n,P2,M2\nAccept,P3,M1,\nAccept,P3,M2,x\n",
        encoding="utf-8",
    )
    assert_matches_oracle(rpath, "csv", mpath)
    assert_matches_oracle(rpath, "csv")
    jpath = tmp_path / "e.json"
    review = {"paper_id": "P1", "reviewer_id": "R1", "recommendation": "Accept"}
    review.update(c1="Good", c2="Good", c3="Good", c4="Good")
    jpath.write_text(
        json.dumps(
            {
                "reviews": [
                    review,
                    dict(review, reviewer_id="R2", award=True, confidence=None),
                    dict(review, reviewer_id="R3", award=1, comments=0),
                    dict(review, reviewer_id="R4", award="1", c1=["Good"]),
                    dict(review, reviewer_id=5, award=1.0),
                    dict(review, paper_id=None),
                ],
                "meta_reviews": [{"paper_id": "P1", "metareviewer_id": "M1", "recommendation": ["x"]}],
            }
        ),
        encoding="utf-8",
    )
    assert_matches_oracle(jpath, "json")
