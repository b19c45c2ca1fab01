"""Typed review records, ingestion of raw review exports, and the exports.

Raw exports (CSV or JSON) are read into one :class:`ReviewTable`: integer
codes into the sorted id lists of each role (paper, reviewer,
meta-reviewer), each review's composite score and confidence weight, each
meta-review's recommendation weight, and the :class:`ValidationReport` of
the read.  Every input row either becomes exactly one row of the table or
one rejection entry in the report; nothing is dropped silently.  Each
Likert scale has one table of labels; one cached lookup per raw spelling
gives a label's weight and canonical spelling.  Each distinct label tuple
of an export is checked and scored once, by :func:`label_score`, the rule
:class:`ReviewForm` also checks with; each distinct meta-review
recommendation is encoded once.  CSV rows are read from the open file one
at a time and held only while they are checked.  :func:`read_keyed_csv`
reads the other CSV inputs (similarities, tags, conflicts) under the same
header and row rules, but aborts on a bad row instead of rejecting it.

CSV rows, JSON rows and typed records (as their JSON export) go through
one accept-or-reject loop, :func:`_take`, which reads each input through
its :class:`_Layout`.  A CSV row as long as its header reaches the loop as
``csv.reader`` gives it; a short or overlong row, and a JSON object, is
first put in that form, and a JSON id holding a lone surrogate, which no
file can encode, or one that is neither a string nor a number, is
rejected.  The report's dict is built only for a rejected row.  The loop
codes ids in the order accepted rows first carry them; :func:`_read` then
recodes them by sorted id once, sorts the rows, and audits the table.

The exports write the records in the schemas' column order, labels
canonical, under the text rules of :mod:`reviewpipe.report`, so an export
reads back as written.

Scores stay on an exact half-point lattice until aggregation: the Likert
tables only contain multiples of 0.5, and downstream code that needs exact
arithmetic works in integer half-steps (see :mod:`reviewpipe.scoring`).
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import functools
import itertools
import json
import operator
import unicodedata
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from numbers import Real
from typing import NamedTuple

import numpy as np

from .report import csv_fields, csv_lines, json_text, lone_surrogate

__all__ = [
    "UnknownLabelError",
    "ReviewForm",
    "MetaReviewForm",
    "ValidationReport",
    "ReviewTable",
    "encode_likert",
    "label_score",
    "likert_labels",
    "CsvSchema",
    "read_keyed_csv",
    "read_exports",
    "review_table",
    "validate",
    "id_rank",
    "export_reviews_csv",
    "export_metas_csv",
    "export_json",
]


class UnknownLabelError(ValueError):
    """A label does not belong to the requested Likert scale."""


# Each Likert scale maps its labels' canonical spellings, the ones exports
# write, to their weights, in descending order.

# Overall recommendation: symmetric 7-point scale, used by reviewers and
# meta-reviewers alike.
RECOMMENDATION_WEIGHTS = {
    "Strong Accept": 3, "Accept": 2, "Weak Accept": 1, "Borderline": 0,
    "Weak Reject": -1, "Reject": -2, "Strong Reject": -3,
}

# Quality criteria C1..C4 (relevance, technical quality, novelty,
# presentation): symmetric 5-point scale in 0.5 steps.
CRITERION_WEIGHTS = {"Excellent": 1.0, "Very good": 0.5, "Good": 0.0, "Fair": -0.5, "Poor": -1.0}

# Reviewer confidence: multiplicative weight used at aggregation only.
CONFIDENCE_WEIGHTS = {"Excellent": 1.2, "Very good": 1.1, "Good": 1.0, "Fair": 0.9, "Poor": 0.8}

_WEIGHTS = {
    "recommendation": RECOMMENDATION_WEIGHTS,
    "criterion": CRITERION_WEIGHTS,
    "confidence": CONFIDENCE_WEIGHTS,
}


def _norm_label(label: str) -> str:
    return " ".join(label.strip().split()).lower()


# each scale keyed by normalized label: the label's weight and canonical spelling
_SCALES = {scale: {_norm_label(k): (w, k) for k, w in t.items()} for scale, t in _WEIGHTS.items()}


@dataclass(frozen=True)
class CsvSchema:
    """The columns of one kind of CSV input file: ``required`` ones, which
    the header must name and each row fill, then ``optional`` ones, which
    may be absent or empty.  The first ``key`` columns identify a row; with
    ``unique`` set, no two rows may share them."""

    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    key: int = 0
    unique: bool = True

    @property
    def columns(self) -> list[str]:
        return [*self.required, *self.optional]


REVIEW_SCHEMA = CsvSchema(
    ("paper_id", "reviewer_id", "recommendation", "c1", "c2", "c3", "c4"),
    ("confidence", "award", "comments"),
)
META_SCHEMA = CsvSchema(("paper_id", "metareviewer_id", "recommendation"))
# the inputs of ``reviewpipe assign``; repeated conflict rows are harmless
SIMILARITY_SCHEMA = CsvSchema(("reviewer_id", "paper_id", "bid", "subject_relevance"), ("tpms",), key=2)
TAG_SCHEMA = CsvSchema(("reviewer_id", "tag"), key=1)
CONFLICT_SCHEMA = CsvSchema(("reviewer_id", "paper_id"), key=2, unique=False)

DUPLICATE_PAIR = "duplicate (reviewer, paper) pair"


@functools.cache
def _likert(label: str, scale: str) -> tuple[float, str]:
    """A label's weight on the named scale and its canonical spelling,
    worked out once per raw spelling; an error is not kept."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    hit = _SCALES[scale].get(_norm_label(label))
    if hit is None:
        raise UnknownLabelError(f"unknown label {label!r} for scale {scale!r}")
    return hit


def _weight(label, scale: str) -> float:
    """:func:`_likert`'s weight of ``label``; a label that is not a str is
    unknown too, refused before the cache, which cannot hash a list."""
    if not isinstance(label, str):
        raise UnknownLabelError(f"unknown label {label!r} for scale {scale!r}")
    return _likert(label, scale)[0]


def encode_likert(label: str, scale: str) -> float:
    """Map a Likert label to its numeric weight on the named scale.

    ``scale`` is one of ``recommendation``, ``criterion``, ``confidence``.
    Matching is case-insensitive after trimming; anything else, a label
    that is not a str included, raises :class:`UnknownLabelError`.  Each
    raw spelling is looked up once in the scale's one table, by
    :func:`_likert`; errors raise on every call.
    """
    return _weight(label, scale)


def likert_labels(scale: str) -> list[str]:
    """Canonical labels of a scale, in descending weight order."""
    return list(_WEIGHTS[scale])


def label_score(rec, c1, c2, c3, c4, conf, award) -> tuple[int, float]:
    """One review's composite score in half-steps -- recommendation plus
    the four criteria plus the award flag, each doubled -- and its
    confidence weight.  Checks the labels in that order, recommendation,
    c1-c4, confidence, raising :class:`UnknownLabelError` at the first
    unknown one, a label that is not a str included, then raises
    ``ValueError`` for an award other than the int 0 or 1: ``True``,
    ``1.0`` and ``np.int64(1)`` would not read back from a CSV export, or
    not be written as JSON.
    """
    s_half = 2 * _weight(rec, "recommendation")
    s_half += int(2 * (_weight(c1, "criterion") + _weight(c2, "criterion")
                       + _weight(c3, "criterion") + _weight(c4, "criterion")))
    confidence = _weight(conf, "confidence")
    if type(award) is not int or award not in (0, 1):
        raise ValueError(f"award flag must be 0 or 1, got {award!r}")
    return s_half + 2 * award, confidence


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
        _refuse_non_str(self, "paper", "reviewer", "comments")
        if len(self.criteria) != 4:
            raise ValueError(f"criteria must be four labels, c1-c4, got {self.criteria!r}")
        label_score(self.recommendation, *self.criteria, self.confidence, self.award)


@dataclass(frozen=True)
class MetaReviewForm:
    """One meta-reviewer's overall recommendation for one paper."""

    paper: str
    metareviewer: str
    recommendation: str

    def __post_init__(self):
        _refuse_non_str(self, "paper", "metareviewer")
        encode_likert(self.recommendation, "recommendation")


def _refuse_non_str(form, *names: str):
    """``ValueError`` naming the first of the form's fields ``names`` that
    is not a str: the CSV exports could not join it, and JSON would write
    it as another type."""
    for name in names:
        if not isinstance(value := getattr(form, name), str):
            raise ValueError(f"{name} must be a str, got {value!r}")


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


@dataclass(frozen=True)
class ReviewTable:
    """Every accepted review and meta-review of an export as integer-coded
    arrays, and the report of the read.

    ``paper``, ``reviewer`` and ``metareviewer`` are codes into the sorted
    id lists; the paper list holds every paper an accepted row names, one
    that only meta-reviews name included (see :func:`read_exports`).
    Review rows are ordered by (paper, reviewer) and meta rows by (paper,
    metareviewer), so the table does not depend on the input row order.
    ``s_half`` is the composite score in half-steps and ``xi`` the
    meta-reviewer's recommendation weight.
    """

    paper_ids: list[str]
    reviewer_ids: list[str]
    metareviewer_ids: list[str]
    paper: np.ndarray
    reviewer: np.ndarray
    s_half: np.ndarray
    confidence: np.ndarray
    meta_paper: np.ndarray
    metareviewer: np.ndarray
    xi: np.ndarray
    report: ValidationReport = field(default_factory=ValidationReport)

    @property
    def s(self) -> np.ndarray:
        """Composite review scores."""
        return self.s_half / 2.0


def id_rank(ids: list[str]) -> np.ndarray:
    """Each id's position in Python string order.  A NumPy string array
    would drop trailing NULs and tie "a\x00" with "a"."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


class _Layout(NamedTuple):
    """How the row loop reads the rows of one input.  A row of length
    ``n`` holds schema column ``k`` at position ``at[k]``; any other row
    goes through ``fix``, which gives the row in that form and why it is
    rejected as it stands (or ``None``), or ``(None, None)`` for a blank
    line.  ``raw`` turns a row as read into the dict the report shows, and
    ``key`` the labels into their key in the check cache (``None``: the
    labels themselves)."""

    n: int | None
    at: Sequence[int]
    fix: Callable
    raw: Callable
    key: Callable | None = None


def _check_header(header, schema: CsvSchema, path):
    if header is None:
        raise ValueError(f"{path}: empty file, header required")
    unknown = [c for c in header if c not in schema.columns]
    missing = [c for c in schema.required if c not in header]
    repeated = sorted(c for c, n in Counter(header).items() if n > 1)
    if unknown:
        raise ValueError(f"{path}: unknown column(s) {unknown}")
    if missing:
        raise ValueError(f"{path}: missing column(s) {missing}")
    if repeated:
        raise ValueError(f"{path}: repeated column(s) {repeated}")


@contextlib.contextmanager
def _csv_rows(path, schema: CsvSchema):
    """The ``csv.reader`` of a CSV file past its header, and its
    :class:`_Layout`: the header's columns, then the schema's columns it
    lacks, which read ``None``.  A row as long as the header is used as
    read if the header names every column; a short one is padded, and one
    with non-empty fields beyond the header is rejected.  The file is open
    while the context lasts; a byte-order mark is skipped, and text that is
    not UTF-8, or that csv cannot parse, a field longer than
    ``csv.field_size_limit()`` included, is a ``ValueError`` naming the
    file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            _check_header(header, schema, path)
            columns = header + [c for c in schema.columns if c not in header]
            n = len(header)
            yield reader, _Layout(
                n if n == len(columns) else None,
                tuple(map(columns.index, schema.columns)),
                functools.partial(_csv_fix, n, [None] * len(columns)),
                functools.partial(_csv_raw, header),
            )
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _csv_fix(n: int, pad: list, row: list[str]):
    if not row:
        return None, None
    overlong = f"row has {len(row)} fields, header has {n}" if any(row[n:]) else None
    return row[:n] + pad, overlong


def _csv_raw(header: list[str], row: list[str]) -> dict:
    """A CSV row as the report shows it, fields beyond the header as
    ``extra_fields``."""
    n = len(header)
    out = dict(itertools.zip_longest(header, row[:n]))
    if len(row) > n:
        out["extra_fields"] = row[n:]
    return out


def read_keyed_csv(path, schema: CsvSchema) -> dict[tuple, tuple]:
    """The rows of a CSV input file as {key columns: other columns}, in
    file order, each field stripped; an empty optional field reads
    ``None`` or ``""``.  Aborts with ``ValueError`` naming the file on a
    bad header, a row with non-empty fields beyond the header, an empty
    required field and, if the schema's keys are unique, on repeated keys,
    naming every repeat."""
    rows: dict[tuple, tuple] = {}
    repeated = set()
    with _csv_rows(path, schema) as (reader, layout):
        for row in reader:
            values, overlong = layout.fix(row)
            if values is None:
                continue
            values = tuple(values[k] and values[k].strip() for k in layout.at)
            reason = overlong or _missing(values, schema.required)
            if reason is not None:
                raise ValueError(f"{path}: {reason}: {layout.raw(row)}")
            key = values[: schema.key]
            if key in rows and schema.unique:
                repeated.add(key)
            rows[key] = values[schema.key :]
    if repeated:
        what = show_key([c.removesuffix("_id") for c in schema.required[: schema.key]])
        named = ", ".join(map(show_key, sorted(repeated)))
        raise ValueError(f"{path}: repeated {what} rows: {named}")
    return rows


def show_key(ids) -> str:
    """A row's key as messages name it: its one id, or its ids in parentheses."""
    return ids[0] if len(ids) == 1 else f"({', '.join(ids)})"


def _json_rows(payload: dict, key: str, schema: CsvSchema, path):
    """:func:`_csv_rows` for the objects of a JSON export's ``key`` array:
    each object is read as its values in schema column order, and its
    labels are keyed by ``repr``, as JSON values may be lists and
    ``True == 1``."""
    rows = payload.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: {key!r} is not an array")
    columns = schema.columns
    known = set(columns)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: {key}[{i}] is not an object")
        if not known.issuperset(row):
            raise ValueError(f"{path}: unknown field(s) {[c for c in row if c not in known]}")
    fix = functools.partial(_json_fix, columns)
    return contextlib.nullcontext((rows, _Layout(None, range(len(columns)), fix, dict, repr)))


def _json_fix(columns: list[str], row: dict):
    """A JSON row's values, and why it is rejected if an id holds a lone
    surrogate, which no output could encode (a CSV read cannot give one:
    its UTF-8 decode refuses the file), or is neither a string nor a
    number: a boolean, an array or an object names no paper or person."""
    values = list(map(row.get, columns))
    for name, value in zip(columns[:2], values):
        if isinstance(value, str):
            if lone_surrogate(value):
                return values, f"{name} {value!r} holds a lone surrogate"
        elif value is not None and (isinstance(value, bool) or not isinstance(value, Real)):
            return values, f"{name} {value!r} is not an id"
    return values, None


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, whose keys must differ: a repeated one would
    silently keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key(s) {repeated} in one object")
    return obj


def _missing(values, names) -> str | None:
    for name, value in zip(names, values):
        if value is None or value == "":  # not ``in (None, "")``: see _take
            return f"missing required field {name!r}"
    return None


def _check_labels(scores: list[tuple[int, float]], labels: tuple) -> int | str:
    """Check and score one raw label tuple (recommendation, c1-c4,
    confidence, award) by appending its :func:`label_score` to ``scores``:
    the score's index, or why rows carrying the tuple are rejected.  A
    missing label fails here too; :func:`_take` names it as missing."""
    award = labels[6]
    try:
        award = 0 if award in (None, "") else int(str(award).strip())
    except ValueError:
        return f"award flag not 0/1: {labels[6]!r}"
    try:
        scores.append(label_score(*map(str, labels[:6]), award))
    except ValueError as exc:  # UnknownLabelError included
        return str(exc)
    return len(scores) - 1


def _check_meta(labels: tuple) -> int | str:
    """The weight of one raw meta-review recommendation ``(rec,)``, or why
    rows carrying it are rejected."""
    try:
        return encode_likert(str(labels[0]), "recommendation")
    except ValueError as exc:
        return str(exc)


def _stripped(value) -> str | None:
    return value if value is None else str(value).strip()


def _one(pick, row) -> tuple:
    return (pick(row),)


def _take(rows, layout: _Layout, schema: CsvSchema, check, codes, columns, report):
    """Append each accepted row's paper code, person code and value to the
    three lists ``columns``, or the row as the report shows it and its
    reason to the report's rejected rows.  The row's labels are the
    schema's columns after the two ids, the comments aside; ``check`` turns
    them into an int value or a reason, once per distinct labels.  A
    review's blank confidence reads 'Good', with one warning per row, and a
    rejected row shows it so.  The layout's flaw (too long, or an
    unencodable id) is named first, then a missing required field, an id
    empty once stripped included.  The two dicts ``codes`` give each
    stripped (paper, person) id its code, in the order accepted rows first
    carry them; a (person, paper) pair's rows after its first are
    rejected."""
    n, at, fix, raw, key = layout
    ip, ir = at[0], at[1]
    names = [c for c in schema.columns[2:] if c != "comments"]
    pick = operator.itemgetter(*[at[schema.columns.index(c)] for c in names])
    if len(names) == 1:
        pick = functools.partial(_one, pick)
    blank = names.index("confidence") if "confidence" in names else None
    paper_codes, person_codes = codes
    papers, people, values_out = columns
    checked: dict = {}
    seen: set[int] = set()
    for row in rows:
        if len(row) == n:
            values, flaw = row, None
            paper, person = row[ip].strip(), row[ir].strip()
        else:
            values, flaw = fix(row)
            if values is None:
                continue
            paper, person = _stripped(values[ip]), _stripped(values[ir])
        labels = pick(values)
        # not ``in (None, "")``: comparing a str with None is slow
        if blank is not None and (labels[blank] is None or labels[blank] == ""):
            report.warnings.append(
                f"review ({values[ir]}, {values[ip]}): missing confidence, defaulted to 'Good'"
            )
            labels = (*labels[:blank], "Good", *labels[blank + 1 :])
        k = labels if key is None else key(labels)
        value = checked.get(k)
        if value is None:
            value = checked[k] = check(labels)
        if type(value) is not str and flaw is None and paper and person:
            # a new id cannot be in a repeated pair, so it takes its code here
            p = paper_codes.get(paper)
            if p is None:
                p = paper_codes[paper] = len(paper_codes)
            r = person_codes.get(person)
            if r is None:
                r = person_codes[person] = len(person_codes)
            pair = r << 32 | p  # codes stay below 2**32; an int is not tracked by the gc
            if pair not in seen:
                seen.add(pair)
                papers.append(p)
                people.append(r)
                values_out.append(value)
                continue
            reason = DUPLICATE_PAIR
        else:
            reason = flaw or _missing((paper, person, *labels), schema.required) or value
        shown = raw(row)
        if blank is not None and ((given := pick(values)[blank]) is None or given == ""):
            shown["confidence"] = "Good"
        report.rejected.append((shown, reason))


def _read(reviews, metas, min_reviews: int = 2) -> ReviewTable:
    """Take review rows and, unless ``metas`` is None, meta-review rows,
    recode their ids by sorted id, sort the rows and audit them.
    ``reviews`` and ``metas`` are contexts that give the rows and their
    :class:`_Layout`."""
    report = ValidationReport()
    scores: list[tuple[int, float]] = []
    codes: list[dict[str, int]] = [{}, {}, {}]  # paper, reviewer, metareviewer
    (paper, reviewer, label), (meta_paper, metareviewer, xi) = ([], [], []), ([], [], [])
    with reviews as (rows, layout):
        score = functools.partial(_check_labels, scores)
        _take(rows, layout, REVIEW_SCHEMA, score, codes[:2], (paper, reviewer, label), report)
    if metas is not None:
        with metas as (rows, layout):
            columns = (meta_paper, metareviewer, xi)
            _take(rows, layout, META_SCHEMA, _check_meta, codes[::2], columns, report)
    first_seen = [list(c) for c in codes]  # each role's ids
    ranks = [id_rank(ids) for ids in first_seen]
    paper_ids, reviewer_ids, metareviewer_ids = (
        [ids[i] for i in np.argsort(rank).tolist()] for ids, rank in zip(first_seen, ranks)
    )
    paper, meta_paper = ranks[0][paper], ranks[0][meta_paper]
    reviewer, metareviewer = ranks[1][reviewer], ranks[2][metareviewer]
    rows = np.argsort(paper * len(reviewer_ids) + reviewer, kind="stable")  # by paper, reviewer
    meta_rows = np.argsort(meta_paper * len(metareviewer_ids) + metareviewer, kind="stable")
    label = np.array(label, dtype=int)[rows]
    table = ReviewTable(
        paper_ids=paper_ids,
        reviewer_ids=reviewer_ids,
        metareviewer_ids=metareviewer_ids,
        paper=paper[rows],
        reviewer=reviewer[rows],
        s_half=np.array([s for s, _ in scores], dtype=int)[label],
        confidence=np.array([w for _, w in scores], dtype=float)[label],
        meta_paper=meta_paper[meta_rows],
        metareviewer=metareviewer[meta_rows],
        xi=np.array(xi, dtype=float)[meta_rows],
        report=report,
    )
    _audit(table, metas is not None, min_reviews)
    return table


def _read_payload(payload, path, min_reviews: int = 2) -> ReviewTable:
    """:func:`_read` of a JSON export's object; meta-reviews are read if it
    has a ``meta_reviews`` key."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level is not an object")
    reviews = _json_rows(payload, "reviews", REVIEW_SCHEMA, path)
    has_metas = "meta_reviews" in payload
    metas = _json_rows(payload, "meta_reviews", META_SCHEMA, path) if has_metas else None
    return _read(reviews, metas, min_reviews)


def read_exports(path, format: str = "csv", meta_path=None) -> ReviewTable:
    """Read review (and optionally meta-review) exports into a review table.

    CSV mode reads reviews from ``path`` and, if given, meta-reviews from
    ``meta_path``.  JSON mode reads a single object with ``reviews`` and
    ``meta_reviews`` arrays whose objects mirror the CSV column names, and
    takes no ``meta_path``.  A UTF-8 byte-order mark is skipped.

    Rows with unknown labels, malformed fields or non-empty fields beyond
    the header are rejected record by record (collected in the report), as
    is every repeat of a (reviewer, paper) or (metareviewer, paper) pair
    after its first row; structural problems such as unknown or repeated
    columns, a JSON object that repeats a key, or text that does not
    decode, abort with ``ValueError`` naming the file.  Each distinct label
    tuple is checked once, and each distinct id is stored once, in its
    role's sorted id list.  The table's report also holds the counts and
    findings of :func:`validate` for the accepted rows, papers without a
    meta-review only if meta-reviews were read (a ``meta_path``, or a
    ``meta_reviews`` key).  A paper named only by meta-reviews is in the
    table with no review rows and in the report with 0 reviews;
    :func:`reviewpipe.scoring.score_table` alone refuses it.
    """
    if format == "csv":
        metas = None if meta_path is None else _csv_rows(meta_path, META_SCHEMA)
        return _read(_csv_rows(path, REVIEW_SCHEMA), metas)
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    if meta_path is not None:
        raise ValueError(f"{meta_path}: JSON exports carry their own meta_reviews")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh, object_pairs_hook=_json_object)
    except ValueError as exc:  # a JSON or Unicode decode error, or a repeated key
        raise ValueError(f"{path}: {exc}") from None
    return _read_payload(payload, path)


def _audit(table: ReviewTable, metas_read: bool, min_reviews: int = 2):
    """Fill the report's counts and findings from the table's arrays: no
    accepted review is a finding, and papers without a meta-review are
    findings only if ``metas_read``."""
    report = table.report
    ids = table.paper_ids
    per_paper = np.bincount(table.paper, minlength=len(ids))
    report.n_papers = len(ids)
    report.n_reviewers = len(table.reviewer_ids)
    report.n_reviews = len(table.paper)
    report.n_metareviewers = len(table.metareviewer_ids)
    report.n_metareviews = len(table.meta_paper)
    histogram = np.bincount(per_paper)
    report.reviews_per_paper = {k: int(histogram[k]) for k in np.flatnonzero(histogram).tolist()}
    low = np.flatnonzero(per_paper < min_reviews).tolist()
    report.findings = []
    if not report.n_reviews:
        report.findings.append(("no review accepted", "no review row was accepted"))
    report.findings += [
        ("below minimum reviews", f"paper {ids[i]} has {per_paper[i]} review(s)") for i in low
    ]
    if metas_read:
        unmet = np.flatnonzero(np.bincount(table.meta_paper, minlength=len(ids)) == 0).tolist()
        report.findings += [("missing meta-review", f"paper {ids[i]}") for i in unmet]
    report.findings += spellings(table)


def spellings(table: ReviewTable) -> list[tuple[str, str]]:
    """A finding for each set of one role's sorted ids that are equal
    under NFC but differ in code points: one person or paper counted as
    two.  ASCII ids are NFC already, so only the NFC forms of the others
    are looked up among them."""
    roles = {"paper": table.paper_ids, "reviewer": table.reviewer_ids,
             "metareviewer": table.metareviewer_ids}
    found = []
    for role, ids in roles.items():
        forms: dict[str, set[str]] = {}
        for x in ids:
            if not x.isascii():
                forms.setdefault(unicodedata.normalize("NFC", x), set()).add(x)
        for form, spellings in forms.items():
            i = bisect.bisect_left(ids, form)
            if i < len(ids) and ids[i] == form:
                spellings.add(form)
        named = (", ".join(map(ascii, sorted(s))) for s in forms.values() if len(s) > 1)
        found += [("ids equal under NFC", f"{role} ids {spellings}") for spellings in named]
    return found


def validate(
    reviews: list[ReviewForm],
    metas: list[MetaReviewForm] | None = None,
    min_reviews: int = 2,
) -> ValidationReport:
    """The report :func:`read_exports` gives for the records' export, with
    its review-count floor at ``min_reviews``: ids become stripped strings,
    and a repeated pair, a blank id or an award other than 0 or 1 is a
    rejected record.  Papers without a meta-review are findings only if
    ``metas`` is given.  Purely reporting, never raises."""
    return _read_payload(_export_object(reviews, metas), "typed records", min_reviews).report


def review_table(reviews: list[ReviewForm], metas: list[MetaReviewForm] | None = None) -> ReviewTable:
    """The :class:`ReviewTable` of the records, read as by :func:`validate`;
    a rejected record, a repeated (reviewer, paper) pair included, is a
    ``ValueError`` naming it.  Without ``metas`` the meta arrays are
    empty."""
    table = _read_payload(_export_object(reviews, metas), "typed records")
    if table.report.rejected:
        raise ValueError(f"rejected records: {table.report.rejected}")
    return table


def _review_row(f: ReviewForm) -> list:
    """A review's fields in ``REVIEW_SCHEMA`` column order, labels canonical."""
    rec = _likert(f.recommendation, "recommendation")[1]
    criteria = [_likert(c, "criterion")[1] for c in f.criteria]
    conf = _likert(f.confidence, "confidence")[1]
    return [f.paper, f.reviewer, rec, *criteria, conf, f.award, f.comments]


def _meta_row(f: MetaReviewForm) -> list:
    return [f.paper, f.metareviewer, _likert(f.recommendation, "recommendation")[1]]


def _review_fields(f: ReviewForm) -> list[str]:
    row = _review_row(f)
    row[-2] = str(row[-2])  # the award
    return csv_fields(row)


def export_reviews_csv(reviews: list[ReviewForm]) -> str:
    """Canonical CSV text for review records (round-trips via read_exports);
    each row's fields are made as its line is joined, not held with it."""
    rows = map(_review_fields, reviews)
    return csv_lines(itertools.chain([REVIEW_SCHEMA.columns], rows))


def export_metas_csv(metas: list[MetaReviewForm]) -> str:
    rows = (csv_fields(_meta_row(f)) for f in metas)
    return csv_lines(itertools.chain([META_SCHEMA.columns], rows))


def _export_object(reviews: list[ReviewForm], metas: list[MetaReviewForm] | None) -> dict:
    """The object :func:`export_json` writes; without ``metas`` it has no
    ``meta_reviews`` key."""
    obj = {"reviews": [dict(zip(REVIEW_SCHEMA.columns, _review_row(f))) for f in reviews]}
    if metas is not None:
        obj["meta_reviews"] = [dict(zip(META_SCHEMA.columns, _meta_row(f))) for f in metas]
    return obj


def export_json(reviews: list[ReviewForm], metas: list[MetaReviewForm]) -> str:
    """Canonical JSON text mirroring the CSV schemas 1:1."""
    return json_text(_export_object(reviews, metas))
