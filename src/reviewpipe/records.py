"""Typed review records and ingestion of raw review exports.

Raw exports (CSV or JSON) are read into the columns of :class:`Exports`:
the ids and the scores of each row's labels.  Every input row either
becomes exactly one accepted row or one rejection entry in the
:class:`ValidationReport`; nothing is dropped silently.  Each distinct
label tuple of an export is checked and scored once, by
:func:`label_score`, the rule :class:`ReviewForm` also checks with; each
distinct meta-review recommendation is encoded once.  CSV rows are read
from the open file one at a time and held only while they are checked;
each distinct id is stored once however many rows carry it.
:func:`read_keyed_csv` reads the other CSV inputs (similarities, tags,
conflicts) under the same header and row rules, but aborts on a bad row
instead of rejecting it.

CSV rows, JSON rows and typed records (as their JSON export) go through
one accept-or-reject loop, in one form, ``(values, overlong, raw, row)``:
the values in schema column order, why the row is too long or ``None``,
the input's one function from a row to the dict the report shows, and the
row as read.  The report's dict is built only for a rejected row, and a
CSV row with as many fields as the header is not sliced or padded beyond
the columns the header lacks.

Scores stay on an exact half-point lattice until aggregation: the Likert
tables only contain multiples of 0.5, and downstream code that needs exact
arithmetic works in integer half-steps (see :mod:`reviewpipe.scoring`).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "UnknownLabelError",
    "ReviewForm",
    "MetaReviewForm",
    "ValidationReport",
    "Exports",
    "encode_likert",
    "label_score",
    "likert_labels",
    "CsvSchema",
    "read_keyed_csv",
    "read_exports",
    "validate",
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


# each scale keyed by normalized label, and each label's canonical spelling
_SCALES = {scale: {_norm_label(k): w for k, w in t.items()} for scale, t in _WEIGHTS.items()}
_CANONICAL = {_norm_label(label): label for table in _WEIGHTS.values() for label in table}


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
    return list(_WEIGHTS[scale])


def label_score(rec, c1, c2, c3, c4, conf, award) -> tuple[int, float]:
    """One review's composite score in half-steps -- recommendation plus
    the four criteria plus the award flag, each doubled -- and its
    confidence weight.  Checks the labels in that order, recommendation,
    c1-c4, confidence, raising :class:`UnknownLabelError` at the first
    unknown one, then raises ``ValueError`` for an award other than 0 or 1.
    """
    s_half = 2 * int(encode_likert(rec, "recommendation"))
    for c in (c1, c2, c3, c4):
        s_half += int(round(2 * encode_likert(c, "criterion")))
    confidence = encode_likert(conf, "confidence")
    if award not in (0, 1):
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
        label_score(self.recommendation, *self.criteria, self.confidence, self.award)


@dataclass(frozen=True)
class MetaReviewForm:
    """One meta-reviewer's overall recommendation for one paper."""

    paper: str
    metareviewer: str
    recommendation: str

    def __post_init__(self):
        encode_likert(self.recommendation, "recommendation")


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
class Exports:
    """The accepted rows of review exports as columns, and their report.

    Review row ``i`` is ``paper[i]`` and ``reviewer[i]``, scored
    ``scores[label[i]]``; ``scores`` holds the :func:`label_score`,
    ``(s_half, confidence)``, of each distinct label tuple (recommendation,
    criteria, confidence, award).  Meta row ``j`` is ``meta_paper[j]`` and
    ``metareviewer[j]`` with the recommendation weight ``xi[j]``.
    """

    paper: list[str] = field(default_factory=list)
    reviewer: list[str] = field(default_factory=list)
    label: list[int] = field(default_factory=list)
    scores: list[tuple[int, float]] = field(default_factory=list)
    meta_paper: list[str] = field(default_factory=list)
    metareviewer: list[str] = field(default_factory=list)
    xi: list[float] = field(default_factory=list)
    report: ValidationReport = field(default_factory=ValidationReport)

    @classmethod
    def from_forms(cls, reviews: list[ReviewForm], metas: list[MetaReviewForm] | None = None):
        """Typed records read as :func:`read_exports` reads their JSON
        export: ids become stripped strings, and a repeated pair, a blank id
        or an award other than 0 or 1 is a rejected record.  Papers without
        a meta-review are findings only if ``metas`` is given."""
        return _read_payload(_export_object(reviews, metas), "typed records")


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


def _csv_rows(path, schema: CsvSchema):
    """Each row of a CSV file, blank lines skipped, under the readers' row
    protocol (values, overlong, raw, row): the row's values in schema
    column order, ``None`` where short or absent; why the row is rejected
    if it has non-empty fields beyond the header, else ``None``; the
    file's one function that turns ``row`` into the dict the report shows;
    and the row as read.  The file stays open until the last row is
    drawn; a byte-order mark is skipped, and text that is not UTF-8 is a
    ``ValueError`` naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            _check_header(header, schema, path)
            n = len(header)
            columns = header + [c for c in schema.columns if c not in header]
            pick = operator.itemgetter(*map(columns.index, schema.columns))
            absent = [None] * (len(columns) - n)
            pad = [None] * len(columns)
            raw = functools.partial(_csv_raw, header)
            for row in reader:
                if len(row) == n:
                    yield pick(row + absent if absent else row), None, raw, row
                elif row:
                    overlong = f"row has {len(row)} fields, header has {n}" if any(row[n:]) else None
                    yield pick(row[:n] + pad), overlong, raw, row
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
    for values, overlong, raw, row in _csv_rows(path, schema):
        values = tuple(v and v.strip() for v in values)
        reason = overlong or _missing(values, schema.required)
        if reason is not None:
            raise ValueError(f"{path}: {reason}: {raw(row)}")
        key = values[: schema.key]
        if key in rows and schema.unique:
            repeated.add(key)
        rows[key] = values[schema.key :]
    if repeated:
        what = _show_key([c.removesuffix("_id") for c in schema.required[: schema.key]])
        named = ", ".join(map(_show_key, sorted(repeated)))
        raise ValueError(f"{path}: repeated {what} rows: {named}")
    return rows


def _show_key(ids) -> str:
    return ids[0] if len(ids) == 1 else f"({', '.join(ids)})"


def _json_rows(payload: dict, key: str, schema: list[str], path):
    """:func:`_csv_rows` for the objects of a JSON export's ``key`` array."""
    rows = payload.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: {key!r} is not an array")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: {key}[{i}] is not an object")
        unknown = [c for c in row if c not in schema]
        if unknown:
            raise ValueError(f"{path}: unknown field(s) {unknown}")
    return ((tuple(map(row.get, schema)), None, dict, row) for row in rows)


def _missing(values, names) -> str | None:
    for name, value in zip(names, values):
        if value in (None, ""):
            return f"missing required field {name!r}"
    return None


def _check_labels(labels: tuple, scores: list[tuple[int, float]]) -> int | str:
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


def _check_meta(labels: tuple) -> float | str:
    """The weight of one raw meta-review recommendation ``(rec,)``, or why
    rows carrying it are rejected."""
    try:
        return encode_likert(str(labels[0]), "recommendation")
    except ValueError as exc:
        return str(exc)


def _review_rows(rows, warnings: list[str]):
    """Review rows without comments; a blank confidence reads 'Good', with
    one warning per row, and a rejected row shows it so."""
    for values, overlong, raw, row in rows:
        if values[7] in (None, ""):
            warnings.append(
                f"review ({values[1]}, {values[0]}): missing confidence, defaulted to 'Good'"
            )
            values = (*values[:7], "Good", values[8])
            raw = functools.partial(_shown_good, raw)
        yield values[:9], overlong, raw, row


def _shown_good(raw, row) -> dict:
    return {**raw(row), "confidence": "Good"}


def _take(rows, schema: CsvSchema, key, check, ids: dict[str, str], columns, rejected: list):
    """Append each row's (person, paper, value) to the lists ``columns``,
    or the row and its reason to ``rejected``.  ``check`` turns the labels,
    the values after the ids, into the value or a reason, once per ``key``
    of the labels; a missing required field, an id empty once stripped
    included, comes first.  Ids go through ``ids``, so each distinct id is
    kept once; a (person, paper) pair's rows after its first are rejected."""
    people, papers, values_out = columns
    checked: dict = {}
    seen: set[tuple[str, str]] = set()
    for values, overlong, raw, row in rows:
        labels = values[2:]
        k = key(labels)
        value = checked.get(k)
        if value is None:
            value = checked[k] = check(labels)
        paper, person = values[0], values[1]
        p = paper if paper is None else str(paper).strip()
        r = person if person is None else str(person).strip()
        if p and r and overlong is None and type(value) is not str:
            pair = (ids.setdefault(r, r), ids.setdefault(p, p))
            if pair not in seen:
                seen.add(pair)
                people.append(pair[0])
                papers.append(pair[1])
                values_out.append(value)
                continue
        reason = overlong or _missing((p, r, *labels), schema.required)
        if reason is None:
            reason = value if type(value) is str else DUPLICATE_PAIR
        rejected.append((raw(row), reason))


def _read(reviews, metas, key, min_reviews: int = 2) -> Exports:
    """Take review rows and, unless ``metas`` is None, meta-review rows
    into columns, each distinct label tuple checked once under ``key``,
    and audit the accepted rows."""
    out = Exports()
    ids: dict[str, str] = {}
    score = functools.partial(_check_labels, scores=out.scores)
    columns = (out.reviewer, out.paper, out.label)
    rows = _review_rows(reviews, out.report.warnings)
    _take(rows, REVIEW_SCHEMA, key, score, ids, columns, out.report.rejected)
    if metas is not None:
        columns = (out.metareviewer, out.meta_paper, out.xi)
        _take(metas, META_SCHEMA, key, _check_meta, ids, columns, out.report.rejected)
    _audit(out, metas is not None, min_reviews)
    return out


def _read_payload(payload, path, min_reviews: int = 2) -> Exports:
    """:func:`_read` of a JSON export's object; meta-reviews are read if it
    has a ``meta_reviews`` key."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level is not an object")
    reviews = _json_rows(payload, "reviews", REVIEW_SCHEMA.columns, path)
    has_metas = "meta_reviews" in payload
    metas = _json_rows(payload, "meta_reviews", META_SCHEMA.columns, path) if has_metas else None
    # repr keys: JSON values may be lists, and True == 1 as a dict key
    return _read(reviews, metas, repr, min_reviews)


def read_exports(path, format: str = "csv", meta_path=None) -> Exports:
    """Read review (and optionally meta-review) exports into columns.

    CSV mode reads reviews from ``path`` and, if given, meta-reviews from
    ``meta_path``.  JSON mode reads a single object with ``reviews`` and
    ``meta_reviews`` arrays whose objects mirror the CSV column names, and
    takes no ``meta_path``.  A UTF-8 byte-order mark is skipped.

    Rows with unknown labels, malformed fields or non-empty fields beyond
    the header are rejected record by record (collected in the report), as
    is every repeat of a (reviewer, paper) or (metareviewer, paper) pair
    after its first row; structural problems such as unknown or repeated
    columns, or text that does not decode, abort with ``ValueError`` naming
    the file.  Each distinct label tuple is checked once, and the columns
    share one string per distinct id.  The report also holds the counts and
    findings of :func:`validate` for the accepted rows, papers without a
    meta-review only if meta-reviews were read (a ``meta_path``, or a
    ``meta_reviews`` key).
    """
    if format == "csv":
        metas = None if meta_path is None else _csv_rows(meta_path, META_SCHEMA)
        return _read(_csv_rows(path, REVIEW_SCHEMA), metas, tuple)
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    if meta_path is not None:
        raise ValueError(f"{meta_path}: JSON exports carry their own meta_reviews")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # a JSON or Unicode decode error
        raise ValueError(f"{path}: {exc}") from None
    return _read_payload(payload, path)


def _audit(ex: Exports, metas_read: bool, min_reviews: int = 2):
    """Fill the report's counts and findings from the id columns; papers
    without a meta-review are findings only if ``metas_read``."""
    report = ex.report
    per_paper = Counter(ex.paper)
    meta_papers = set(ex.meta_paper)
    unreviewed = len(meta_papers.difference(per_paper))
    report.n_papers = len(per_paper) + unreviewed
    report.n_reviewers = len(set(ex.reviewer))
    report.n_reviews = len(ex.paper)
    report.n_metareviewers = len(set(ex.metareviewer))
    report.n_metareviews = len(ex.meta_paper)
    report.reviews_per_paper = dict(Counter(per_paper.values()) + Counter({0: unreviewed}))
    report.findings = [
        ("below minimum reviews", f"paper {p} has {n} review(s)")
        for p, n in sorted(per_paper.items())
        if n < min_reviews
    ]
    unmet = sorted(per_paper.keys() - meta_papers) if metas_read else []
    report.findings += [("missing meta-review", f"paper {p}") for p in unmet]


def validate(
    reviews: list[ReviewForm],
    metas: list[MetaReviewForm] | None = None,
    min_reviews: int = 2,
) -> ValidationReport:
    """The report of :meth:`Exports.from_forms`, which :func:`read_exports`
    gives for the records' export, with its review-count floor at
    ``min_reviews``.  Purely reporting, never raises."""
    return _read_payload(_export_object(reviews, metas), "typed records", min_reviews).report


def _canon(label: str) -> str:
    return _CANONICAL[_norm_label(label)]


def _review_row(f: ReviewForm) -> list:
    """A review's fields in ``REVIEW_SCHEMA`` column order, labels canonical."""
    labels = [_canon(f.recommendation), *map(_canon, f.criteria), _canon(f.confidence)]
    return [f.paper, f.reviewer, *labels, f.award, f.comments]


def _meta_row(f: MetaReviewForm) -> list:
    return [f.paper, f.metareviewer, _canon(f.recommendation)]


def _csv_text(header: list[str], rows) -> str:
    """CSV text with quoted fields where needed and ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    """The artifact form of JSON: indented, keys sorted, newline-ended."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def export_reviews_csv(reviews: list[ReviewForm]) -> str:
    """Canonical CSV text for review records (round-trips via read_exports)."""
    return _csv_text(REVIEW_SCHEMA.columns, map(_review_row, reviews))


def export_metas_csv(metas: list[MetaReviewForm]) -> str:
    return _csv_text(META_SCHEMA.columns, map(_meta_row, metas))


def _export_object(reviews: list[ReviewForm], metas: list[MetaReviewForm] | None) -> dict:
    """The object :func:`export_json` writes; without ``metas`` it has no
    ``meta_reviews`` key."""
    obj = {"reviews": [dict(zip(REVIEW_SCHEMA.columns, _review_row(f))) for f in reviews]}
    if metas is not None:
        obj["meta_reviews"] = [dict(zip(META_SCHEMA.columns, _meta_row(f))) for f in metas]
    return obj


def export_json(reviews: list[ReviewForm], metas: list[MetaReviewForm]) -> str:
    """Canonical JSON text mirroring the CSV schemas 1:1."""
    return _json_text(_export_object(reviews, metas))
