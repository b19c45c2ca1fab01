import csv
import gc
import io
import itertools
import json
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewpipe.records import (
    CONFLICT_SCHEMA,
    DUPLICATE_PAIR,
    SIMILARITY_SCHEMA,
    TAG_SCHEMA,
    MetaReviewForm,
    ReviewForm,
    UnknownLabelError,
    encode_likert,
    export_json,
    export_metas_csv,
    export_reviews_csv,
    label_score,
    likert_labels,
    read_exports,
    read_keyed_csv,
    validate,
)
from reviewpipe.report import csv_fields
from reviewpipe.scoring import DegenerateScaleWarning, build_score_table, review_table, score_table

from conftest import CONFS, CRITS, RECS, make_review

REVIEW_HEADER = "paper_id,reviewer_id,recommendation,c1,c2,c3,c4,confidence,award,comments"


def write_reviews(tmp_path, rows, name="reviews.csv"):
    path = tmp_path / name
    path.write_text("\n".join([REVIEW_HEADER] + rows) + "\n", encoding="utf-8")
    return path


def review_row(paper="P1", reviewer="R1", rec="Accept", crit="Good", conf="Good", award="0"):
    return f"{paper},{reviewer},{rec},{crit},{crit},{crit},{crit},{conf},{award},fine"


def named(codes, ids) -> list[str]:
    """The ids a code column of a review table names."""
    return [ids[c] for c in codes]


def assert_reads_as(got, reviews, metas=None):
    """The review table read is the review table of ``reviews`` (and
    ``metas``, if given), its report aside."""
    want = review_table(reviews, metas)
    for name, value in vars(want).items():
        if name == "report":
            continue
        if isinstance(value, list):
            assert getattr(got, name) == value, name
        else:
            assert getattr(got, name).dtype == value.dtype, name
            assert np.array_equal(getattr(got, name), value), name


class TestEncodeLikert:
    def test_recommendation_weights(self):
        assert encode_likert("Strong Accept", "recommendation") == 3
        assert encode_likert("Accept", "recommendation") == 2
        assert encode_likert("Borderline", "recommendation") == 0
        assert encode_likert("Strong Reject", "recommendation") == -3

    def test_criterion_vs_confidence(self):
        assert encode_likert("Excellent", "criterion") == 1.0
        assert encode_likert("Excellent", "confidence") == 1.2
        assert encode_likert("Poor", "confidence") == 0.8

    def test_case_insensitive_trimmed(self):
        assert encode_likert("  weak ACCEPT ", "recommendation") == 1

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            encode_likert("Maybe", "recommendation")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            encode_likert("Good", "vibes")

    def test_a_label_that_is_not_a_str_is_unknown(self):
        """Not an AttributeError from the label's strip, nor a TypeError
        from the cache's hash; the labels are still checked in order."""
        with pytest.raises(UnknownLabelError, match="^unknown label 3 for scale 'recommendation'$"):
            encode_likert(3, "recommendation")
        with pytest.raises(UnknownLabelError, match=r"^unknown label \['Accept'\] for scale"):
            MetaReviewForm("P1", "M1", ["Accept"])
        with pytest.raises(UnknownLabelError, match="^unknown label None for scale"):
            make_review("P1", "R1", rec=None)
        with pytest.raises(UnknownLabelError, match=r"^unknown label \('Good',\) for scale 'crit"):
            label_score("Accept", "Good", ("Good",), "Good", "Good", "Good", 0)
        with pytest.raises(UnknownLabelError, match="^unknown label 'Maybe'"):
            label_score("Maybe", ["Good"], "Good", "Good", "Good", "Good", 0)

    @pytest.mark.parametrize(
        "scale,count", [("recommendation", 7), ("criterion", 5), ("confidence", 5)]
    )
    def test_injective_and_total(self, scale, count):
        labels = likert_labels(scale)
        assert len(labels) == count
        weights = [encode_likert(label, scale) for label in labels]
        assert len(set(weights)) == count


    def test_canonical_spellings_in_weight_order(self):
        assert likert_labels("recommendation") == [
            "Strong Accept", "Accept", "Weak Accept", "Borderline",
            "Weak Reject", "Reject", "Strong Reject",
        ]
        assert likert_labels("criterion") == ["Excellent", "Very good", "Good", "Fair", "Poor"]
        assert likert_labels("confidence") == likert_labels("criterion")
        form = make_review("P1", "R1", rec=" weak  ACCEPT", crit="very GOOD", conf="poor")
        assert export_reviews_csv([form]).splitlines()[1] == (
            "P1,R1,Weak Accept,Very good,Very good,Very good,Very good,Poor,0,"
        )


class TestKeyedCsv:
    def test_rows_by_key_in_file_order(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("paper_id,bid,reviewer_id,subject_relevance\nP1,0.5,R2,0.1\n\nP0,0.2,R1,0.3\n")
        rows = read_keyed_csv(path, SIMILARITY_SCHEMA)
        assert list(rows.items()) == [
            (("R2", "P1"), ("0.5", "0.1", None)),
            (("R1", "P0"), ("0.2", "0.3", None)),
        ]

    def test_repeated_keys_named(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("reviewer_id,tag\nR1,a\nR0,b\nR1,c\nR0,d\n")
        with pytest.raises(ValueError, match=r"tags.csv: repeated reviewer rows: R0, R1$"):
            read_keyed_csv(path, TAG_SCHEMA)
        path.write_text("reviewer_id,paper_id\nR1,P1\nR1,P1\n")
        assert list(read_keyed_csv(path, CONFLICT_SCHEMA)) == [("R1", "P1")]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file, header required"),
            ("reviewer_id,tag,tag\n", "repeated column(s) ['tag']"),
            ("reviewer_id,tag\nR1, \nR2\n", "missing required field 'tag'"),
            ("reviewer_id,tag\nR1,a,,b\n", "row has 4 fields, header has 2"),
        ],
    )
    def test_bad_input_aborts_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "tags.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_keyed_csv(path, TAG_SCHEMA)


class TestLoad:
    def test_well_formed_rows(self, tmp_path):
        path = write_reviews(tmp_path, [review_row(reviewer=f"R{i}") for i in range(3)])
        exports = read_exports(path)
        assert not exports.report.rejected
        assert_reads_as(exports, [make_review("P1", f"R{i}", rec="Accept") for i in range(3)])

    def test_unknown_label_rejected_not_aborted(self, tmp_path):
        path = write_reviews(
            tmp_path, [review_row(), review_row(reviewer="R2", rec="Maybe")]
        )
        exports = read_exports(path)
        assert_reads_as(exports, [make_review("P1", "R1", rec="Accept")])
        assert len(exports.report.rejected) == 1
        row, reason = exports.report.rejected[0]
        assert "unknown label" in reason and row["recommendation"] == "Maybe"

    def test_unknown_column_aborts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(REVIEW_HEADER + ",sentiment\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown column"):
            read_exports(path)

    def test_repeated_columns_abort(self, tmp_path):
        # DictReader would keep the later column: R1's Strong Reject read as Strong Accept
        row = "P1,R1,Strong Reject,Good,Good,Good,Good,Good,0,,Strong Accept"
        path = tmp_path / "dup.csv"
        path.write_text(REVIEW_HEADER + ",recommendation\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape("repeated column(s) ['recommendation']")):
            read_exports(path)
        path.write_text("paper_id,reviewer_id,reviewer_id,recommendation,c1,c2,c3,c4,c1\n")
        with pytest.raises(ValueError, match=re.escape("repeated column(s) ['c1', 'reviewer_id']")):
            read_exports(path)
        meta = tmp_path / "meta.csv"
        meta.write_text("paper_id,metareviewer_id,recommendation,recommendation\nP1,M1,Reject,Accept\n")
        with pytest.raises(ValueError, match=re.escape("repeated column(s) ['recommendation']")):
            read_exports(write_reviews(tmp_path, [review_row()]), meta_path=meta)

    def test_row_with_surplus_fields_rejected(self, tmp_path):
        path = write_reviews(
            tmp_path, [review_row(), "P1,R2,Accept,Good,Good,Good,Good,Good,0,great, really"]
        )
        exports = read_exports(path)
        assert np.array_equal(exports.reviewer, [0]) and exports.reviewer_ids == ["R1"]
        [(row, reason)] = exports.report.rejected
        assert reason == "row has 11 fields, header has 10"
        assert row["comments"] == "great" and row["extra_fields"] == [" really"]

    def test_trailing_empty_fields_accepted(self, tmp_path):
        path = write_reviews(tmp_path, ["P1,R1,Accept,Good,Good,Good,Good,Good,0,,,"])
        exports = read_exports(path)
        assert_reads_as(exports, [make_review("P1", "R1", rec="Accept")])
        assert not exports.report.rejected

    def test_long_rejected_rows_serialize(self, tmp_path):
        path = write_reviews(
            tmp_path,
            [
                review_row(),
                "P1,R2,Maybe,Good,Good,Good,Good,Good,0,,",
                "P1,R1,Accept,Good,Good,Good,Good,Good,0,,",
            ],
        )
        meta = tmp_path / "meta.csv"
        meta.write_text("paper_id,metareviewer_id,recommendation\nP1,M1,Accept\nP1,M1,Accept,\n")
        report = read_exports(path, meta_path=meta).report
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert [
            (r["row"].get("reviewer_id", r["row"].get("metareviewer_id")), r["row"]["extra_fields"], r["reason"])
            for r in payload["rejected"]
        ] == [
            ("R2", [""], "unknown label 'Maybe' for scale 'recommendation'"),
            ("R1", [""], DUPLICATE_PAIR),
            ("M1", [""], DUPLICATE_PAIR),
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_exports(tmp_path / "nope.csv")

    def test_missing_confidence_defaults_with_warning(self, tmp_path):
        path = write_reviews(tmp_path, ["P1,R1,Accept,Good,Good,Good,Good,,0,"])
        exports = read_exports(path)
        assert_reads_as(exports, [make_review("P1", "R1", rec="Accept", conf="Good")])
        assert any("confidence" in w for w in exports.report.warnings)

    def test_missing_award_defaults_zero(self, tmp_path):
        path = write_reviews(tmp_path, ["P1,R1,Accept,Good,Good,Good,Good,Good,,"])
        assert_reads_as(read_exports(path), [make_review("P1", "R1", rec="Accept", award=0)])

    def test_meta_csv(self, tmp_path):
        path = write_reviews(tmp_path, [review_row()])
        meta = tmp_path / "meta.csv"
        meta.write_text("paper_id,metareviewer_id,recommendation\nP1,M1,Accept\n")
        assert_reads_as(
            read_exports(path, meta_path=meta),
            [make_review("P1", "R1", rec="Accept")],
            [MetaReviewForm("P1", "M1", "Accept")],
        )

    def test_json_format(self, tmp_path):
        payload = {
            "reviews": [
                {
                    "paper_id": "P1",
                    "reviewer_id": "R1",
                    "recommendation": "Accept",
                    "c1": "Good",
                    "c2": "Good",
                    "c3": "Good",
                    "c4": "Good",
                    "confidence": "Good",
                    "award": 0,
                    "comments": "",
                }
            ],
            "meta_reviews": [
                {"paper_id": "P1", "metareviewer_id": "M1", "recommendation": "Accept"}
            ],
        }
        path = tmp_path / "export.json"
        path.write_text(json.dumps(payload))
        assert_reads_as(
            read_exports(path, format="json"),
            [make_review("P1", "R1", rec="Accept")],
            [MetaReviewForm("P1", "M1", "Accept")],
        )

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ([1, 2], "top level is not an object"),
            ({"reviews": [["paper_id"]]}, "reviews[0] is not an object"),
            ({"reviews": [1]}, "reviews[0] is not an object"),
            ({"reviews": {"a": 1}}, "'reviews' is not an array"),
            ({"reviews": [], "meta_reviews": [None]}, "meta_reviews[0] is not an object"),
            ({"reviews": [{"paper_id": "P1", "score": 3}]}, "unknown field(s) ['score']"),
        ],
    )
    def test_json_of_the_wrong_shape_names_the_entry(self, tmp_path, payload, problem):
        path = tmp_path / "export.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
            read_exports(path, format="json")

    @pytest.mark.parametrize(
        "text, repeated",
        [
            # json.load alone keeps the last value: R1's Strong Reject read as Strong Accept
            (
                '{"reviews": [{"paper_id": "P1", "reviewer_id": "R1", "recommendation": '
                '"Strong Reject", "c1": "Good", "c2": "Good", "c3": "Good", "c4": "Good", '
                '"recommendation": "Strong Accept"}]}',
                "['recommendation']",
            ),
            ('{"reviews": [], "meta_reviews": [], "reviews": []}', "['reviews']"),
            ('{"reviews": [{"c1": {"a": 1, "b": 2, "a": 3, "b": 4}}]}', "['a', 'b']"),
        ],
    )
    def test_json_object_repeating_a_key_aborts(self, tmp_path, text, repeated):
        path = tmp_path / "export.json"
        path.write_text(text)
        message = f"{path}: repeated key(s) {repeated} in one object"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_exports(path, format="json")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            read_exports(tmp_path / "export.xml", format="xml")

    def test_json_format_rejects_a_meta_path(self, tmp_path):
        path = tmp_path / "export.json"
        path.write_text(json.dumps({"reviews": [], "meta_reviews": []}))
        with pytest.raises(ValueError, match="JSON exports carry their own meta_reviews"):
            read_exports(path, format="json", meta_path=tmp_path / "metas.csv")

    def test_duplicate_review_pair_keeps_first_row(self, tmp_path):
        path = write_reviews(
            tmp_path,
            [
                review_row(reviewer="R1", rec="Accept"),
                review_row(reviewer="R2", rec="Borderline"),
                review_row(reviewer="R1", rec="Strong Reject"),
            ],
        )
        exports = read_exports(path)
        assert np.array_equal(exports.reviewer, [0, 1]) and exports.reviewer_ids == ["R1", "R2"]
        assert_reads_as(
            exports,
            [make_review("P1", "R1", rec="Accept"), make_review("P1", "R2", rec="Borderline")],
        )
        assert len(exports.report.rejected) == 1
        row, reason = exports.report.rejected[0]
        assert reason == DUPLICATE_PAIR
        assert row["recommendation"] == "Strong Reject"
        assert not [f for f in exports.report.findings if f[0] == "duplicate assignment"]

    def test_duplicate_meta_pair_keeps_first_row(self, tmp_path):
        path = write_reviews(tmp_path, [review_row()])
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "paper_id,metareviewer_id,recommendation\nP1,M1,Accept\nP1,M2,Reject\nP1,M1,Reject\n"
        )
        exports = read_exports(path, meta_path=meta)
        meta_paper = named(exports.meta_paper, exports.paper_ids)
        metareviewer = named(exports.metareviewer, exports.metareviewer_ids)
        assert list(zip(meta_paper, metareviewer, exports.xi)) == [
            ("P1", "M1", 2),
            ("P1", "M2", -2),
        ]
        assert [(row["metareviewer_id"], reason) for row, reason in exports.report.rejected] == [
            ("M1", DUPLICATE_PAIR)
        ]

    def test_whitespace_only_ids_are_missing(self, tmp_path):
        path = write_reviews(
            tmp_path, [review_row(), review_row(paper="  "), review_row(reviewer=" ")]
        )
        meta = tmp_path / "meta.csv"
        meta.write_text("paper_id,metareviewer_id,recommendation\nP1,M1,Accept\n ,M2,Accept\nP1,\t,Reject\n")
        exports = read_exports(path, meta_path=meta)
        assert np.array_equal(exports.paper, [0]) and np.array_equal(exports.meta_paper, [0])
        assert exports.paper_ids == ["P1"]
        assert [reason for _, reason in exports.report.rejected] == [
            "missing required field 'paper_id'",
            "missing required field 'reviewer_id'",
            "missing required field 'paper_id'",
            "missing required field 'metareviewer_id'",
        ]
        assert exports.report.n_papers == 1

    def test_same_ids_in_review_and_meta_roles_are_not_duplicates(self, tmp_path):
        path = write_reviews(tmp_path, [review_row(reviewer="X1")])
        meta = tmp_path / "meta.csv"
        meta.write_text("paper_id,metareviewer_id,recommendation\nP1,X1,Accept\n")
        exports = read_exports(path, meta_path=meta)
        assert_reads_as(
            exports, [make_review("P1", "X1", rec="Accept")], [MetaReviewForm("P1", "X1", "Accept")]
        )
        assert not exports.report.rejected


class TestValidate:
    def test_clean_paper_no_findings(self):
        reviews = [make_review("P1", f"R{i}") for i in range(4)]
        metas = [MetaReviewForm("P1", "M1", "Accept")]
        assert validate(reviews, metas).findings == []

    def test_below_minimum_reviews(self):
        report = validate([make_review("P1", "R1")], [MetaReviewForm("P1", "M1", "Accept")])
        assert ("below minimum reviews", "paper P1 has 1 review(s)") in report.findings

    def test_duplicate_assignment(self):
        reviews = [make_review("P1", "R1"), make_review("P1", "R1"), make_review("P1", "R2")]
        report = validate(reviews, [MetaReviewForm("P1", "M1", "Accept")])
        assert [reason for _, reason in report.rejected] == [DUPLICATE_PAIR]
        assert report.n_reviews == 2

    def test_missing_meta_review(self):
        report = validate([make_review("P1", "R1"), make_review("P1", "R2")], [])
        assert ("missing meta-review", "paper P1") in report.findings

    def test_ids_equal_under_nfc_are_a_finding(self):
        """Validation reports one person under two Unicode spellings, as ids
        are never rewritten, and each role names its spellings; an ASCII id
        is matched by the NFC form of a non-ASCII one.  Scoring refuses
        them (see ``test_ids_equal_under_nfc_are_refused``)."""
        nfc, nfd = "Ren\u00e9e", "Rene\u0301e"
        reviews = [make_review("P1", r) for r in (nfc, nfd, "K1", "\u212a1", "Zoe")]
        metas = [MetaReviewForm("P1", nfd, "Accept"), MetaReviewForm("P1", nfc, "Accept")]
        report = validate(reviews, metas)
        assert (report.n_reviewers, report.n_metareviewers, report.rejected) == (5, 2, [])
        assert report.findings == [
            ("ids equal under NFC", "reviewer ids 'Rene\\u0301e', 'Ren\\xe9e'"),
            ("ids equal under NFC", "reviewer ids 'K1', '\\u212a1'"),
            ("ids equal under NFC", "metareviewer ids 'Rene\\u0301e', 'Ren\\xe9e'"),
        ]

    def test_ids_holding_a_lone_surrogate_are_rejected(self, tmp_path):
        """A paper, reviewer or meta-reviewer id holding a lone surrogate,
        which no output could encode, is a rejected row naming the field,
        from typed records and from a JSON export alike."""
        ids = [("P\ud8002", "R1"), ("P1", "R1"), ("P1", "R\udfff")]
        reviews = [make_review(paper, reviewer) for paper, reviewer in ids]
        metas = [MetaReviewForm("P1", "M\ud800", "Accept"), MetaReviewForm("P1", "M1", "Accept")]
        path = tmp_path / "export.json"
        path.write_text(export_json(reviews, metas), encoding="utf-8")
        reasons = [
            "paper_id 'P\\ud8002' holds a lone surrogate",
            "reviewer_id 'R\\udfff' holds a lone surrogate",
            "metareviewer_id 'M\\ud800' holds a lone surrogate",
        ]
        for report in (validate(reviews, metas), read_exports(path, format="json").report):
            assert [reason for _, reason in report.rejected] == reasons
            assert (report.n_papers, report.n_reviews, report.n_metareviews) == (1, 1, 1)

    def test_json_ids_that_are_neither_strings_nor_numbers_are_rejected(self, tmp_path):
        """A boolean, an array or an object names no paper or person: its
        row is rejected naming the field, and a number reads as its text."""
        labels = {"recommendation": "Accept", **dict.fromkeys(["c1", "c2", "c3", "c4"], "Good")}
        reviews = [
            dict(labels, paper_id=["P1"], reviewer_id="R1"),
            dict(labels, paper_id="P1", reviewer_id={"x": 1}),
            dict(labels, paper_id=True, reviewer_id="R1"),
            dict(labels, paper_id=7, reviewer_id=1.5),
        ]
        metas = [
            {"paper_id": "7", "metareviewer_id": False, "recommendation": "Accept"},
            {"paper_id": 7, "metareviewer_id": "M1", "recommendation": "Accept"},
        ]
        path = tmp_path / "export.json"
        path.write_text(json.dumps({"reviews": reviews, "meta_reviews": metas}), encoding="utf-8")
        table = read_exports(path, format="json")
        assert [reason for _, reason in table.report.rejected] == [
            "paper_id ['P1'] is not an id",
            "reviewer_id {'x': 1} is not an id",
            "paper_id True is not an id",
            "metareviewer_id False is not an id",
        ]
        assert (table.paper_ids, table.reviewer_ids, table.metareviewer_ids) == (
            ["7"], ["1.5"], ["M1"]
        )

    def test_mean_is_exact_ratio(self):
        reviews = [make_review(f"P{p}", f"R{r}") for p in range(4) for r in range(3)]
        report = validate(reviews)
        assert report.mean_reviews_per_paper == 12 / 4

    def test_counts_order_independent(self, rng):
        reviews = [make_review(f"P{p}", f"R{r}") for p in range(5) for r in range(3)]
        shuffled = list(reviews)
        rng.shuffle(shuffled)
        a, b = validate(reviews), validate(shuffled)
        assert (a.n_papers, a.n_reviews, a.reviews_per_paper) == (
            b.n_papers,
            b.n_reviews,
            b.reviews_per_paper,
        )


def padded_ids(names):
    """Ids from ``names`` (a blank one among them) with spaces around."""
    pad = st.sampled_from(["", " ", "  "])
    return st.builds(lambda a, name, b: a + name + b, pad, st.sampled_from(["", *names]), pad)


typed_reviews = st.lists(
    st.builds(
        ReviewForm,
        padded_ids(["P1", "P2", "P3"]),
        padded_ids(["R1", "R2"]),
        st.sampled_from(RECS),
        st.tuples(*[st.sampled_from(CRITS)] * 4),
        st.sampled_from(CONFS),
        st.sampled_from([0, 1]),
    ),
    max_size=10,
)
typed_metas = st.lists(
    st.builds(
        MetaReviewForm,
        padded_ids(["P1", "P2", "P3"]),
        padded_ids(["M1", "M2"]),
        st.sampled_from(RECS),
    ),
    max_size=6,
)


def first_of_each_pair(forms, person):
    """The first form of each stripped (person, paper) pair, none blank."""
    first = {}
    for f in forms:
        pair = (getattr(f, person).strip(), f.paper.strip())
        if all(pair):
            first.setdefault(pair, f)
    return list(first.values())


@settings(max_examples=150, deadline=None)
@given(typed_reviews, typed_metas, st.booleans())
def test_typed_records_report_as_their_export(reviews, metas, clean):
    """``validate`` of typed records gives the report ``read_exports`` gives
    for their CSV export, repeated pairs and padded or blank ids included; a
    rejected row is compared by its reason, as its shown values differ in
    type (0 against "0").  With nothing rejected (``clean`` drops what
    would be), ``review_table`` is the table of that read, and
    ``build_score_table`` fails as ``score_table`` of that table does."""
    if clean:
        reviews = first_of_each_pair(reviews, "reviewer")
        metas = first_of_each_pair(metas, "metareviewer")
    with tempfile.TemporaryDirectory() as tmp:
        rpath, mpath = Path(tmp, "reviews.csv"), Path(tmp, "metas.csv")
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        exports = read_exports(rpath, meta_path=mpath)

    def summary(report):
        out = report.to_dict()
        out["rejected"] = [r["reason"] for r in out["rejected"]]
        return out

    assert summary(validate(reviews, metas)) == summary(exports.report)
    if exports.report.rejected:
        return
    assert_reads_as(exports, reviews, metas)
    try:
        with warnings.catch_warnings():  # a constant column is not what this checks
            warnings.simplefilter("ignore", DegenerateScaleWarning)
            score_table(exports)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_score_table(reviews, metas)


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        reviews = [
            make_review("P1", "R1", rec="Strong Accept", crit="Very good", conf="Excellent", award=1),
            make_review("P2", "R2", rec="Weak Reject", crit="Fair", conf="Poor"),
        ]
        metas = [MetaReviewForm("P1", "M1", "Accept"), MetaReviewForm("P2", "M2", "Reject")]
        rpath = tmp_path / "r.csv"
        mpath = tmp_path / "m.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        exports = read_exports(rpath, meta_path=mpath)
        assert named(exports.paper, exports.paper_ids) == ["P1", "P2"]
        assert named(exports.reviewer, exports.reviewer_ids) == ["R1", "R2"]
        assert not exports.report.rejected
        assert_reads_as(exports, reviews, metas)

    @pytest.mark.parametrize("char", ["\r", "\n", '"', ",", "\x00", "\r\n", ""])
    def test_csv_round_trip_of_awkward_text(self, tmp_path, char):
        """Ids and comments holding a lone CR, LF, quote, comma, NUL or
        none of them read back from the CSV exports as the records' own
        table, with no row rejected."""
        papers = [f"P{char}{p}" for p in range(3)]
        reviewers = [f"R{char}{r}" for r in range(2)]
        reviews = [
            ReviewForm(p, r, RECS[i % 7], (CRITS[i % 5],) * 4, CONFS[i % 5], i % 2, f"a{char}b")
            for i, (p, r) in enumerate(itertools.product(papers, reviewers))
        ]
        metas = [MetaReviewForm(p, f"M{char}{i}", RECS[i]) for i, p in enumerate(papers)]
        rpath, mpath = tmp_path / "r.csv", tmp_path / "m.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8", newline="")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8", newline="")
        exports = read_exports(rpath, meta_path=mpath)
        assert not exports.report.rejected
        assert exports.paper_ids == sorted(papers)
        assert_reads_as(exports, reviews, metas)

    def test_csv_exports_quote_a_lone_cr(self):
        """The bytes of a lone CR's field, the same on every Python
        version: quoted, as RFC 4180 asks of a field holding a line
        break."""
        text = export_metas_csv([MetaReviewForm("P\r8", "M1", " weak  accept")])
        assert text == 'paper_id,metareviewer_id,recommendation\n"P\r8",M1,Weak Accept\n'

    def test_review_export_refuses_a_comment_holding_a_lone_surrogate(self):
        """A comment that no UTF-8 file can hold is refused by name, not
        returned as text whose write would fail."""
        review = ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", comments="x\udc80y")
        assert not validate([review], [MetaReviewForm("P1", "M1", "Accept")]).rejected
        with pytest.raises(ValueError, match=r"^'x\\udc80y' holds a lone surrogate"):
            export_reviews_csv([review])

    def test_review_export_refuses_a_field_longer_than_csv_reads(self, tmp_path):
        """A comment as long as csv's field size limit reads back; one
        character longer, which no read could take back, is refused."""
        limit = csv.field_size_limit()
        review = ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", comments="x" * limit)
        path = tmp_path / "r.csv"
        path.write_text(export_reviews_csv([review]), encoding="utf-8")
        exports = read_exports(path)
        assert not exports.report.rejected
        assert_reads_as(exports, [review])
        longer = ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", comments="x" * (limit + 1))
        message = f"^a field of {limit + 1} characters, 'x+'..., is longer than csv's field size"
        with pytest.raises(ValueError, match=message):
            export_reviews_csv([longer])
        assert csv_fields(["x" * limit, "y" * limit]) == ["x" * limit, "y" * limit]

    def test_meta_export_refuses_an_id_holding_a_lone_surrogate(self):
        with pytest.raises(ValueError, match=r"^'P\\ud8002' holds a lone surrogate"):
            export_metas_csv([MetaReviewForm(p, "M1", "Accept") for p in ("P1", "P\ud8002")])

    def test_json_round_trip(self, tmp_path):
        reviews = [make_review("P1", "R1", rec="Accept", crit="Excellent")]
        metas = [MetaReviewForm("P1", "M1", "Borderline")]
        path = tmp_path / "e.json"
        path.write_text(export_json(reviews, metas), encoding="utf-8")
        exports = read_exports(path, format="json")
        assert not exports.report.rejected
        assert_reads_as(exports, reviews, metas)


def writer_field(text):
    """csv.writer's field for ``text`` in the dialect whose rows end in CR
    LF, written beside an empty field (a row of one empty field is quoted)
    and cut from that field's comma and the CR LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


# texts without lone surrogates, half of their characters , " CR LF or NUL
csv_texts = st.text(
    st.one_of(st.sampled_from(',"\r\n\x00'), st.characters(exclude_categories=["Cs"])),
    max_size=8,
)


@given(st.lists(csv_texts, max_size=6))
def test_csv_fields_are_csv_writers(texts):
    """The written-out RFC 4180 rule gives csv.writer's fields."""
    assert csv_fields(texts) == list(map(writer_field, texts))


@given(st.sampled_from(["recommendation", "criterion", "confidence"]), st.text(max_size=20))
def test_encode_rejects_arbitrary_text(scale, text):
    labels = {label.lower() for label in likert_labels(scale)}
    if " ".join(text.strip().split()).lower() not in labels:
        with pytest.raises(UnknownLabelError):
            encode_likert(text, scale)


def test_award_flag_domain():
    with pytest.raises(ValueError):
        ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", award=2)


@pytest.mark.parametrize(
    "award", [True, False, 1.0, 0.0, np.int64(1)], ids=["True", "False", "1.0", "0.0", "int64"]
)
def test_award_flag_is_the_int_0_or_1(award):
    """An award equal to 0 or 1 but not of type int is refused: a bool or
    float would be exported as text that does not read back, and a numpy
    int could not be written as JSON."""
    with pytest.raises(ValueError, match="award flag must be 0 or 1"):
        ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", award=award)
    with pytest.raises(ValueError, match="award flag must be 0 or 1"):
        label_score("Accept", *["Good"] * 4, "Good", award)


def test_review_form_needs_four_criteria():
    message = "criteria must be four labels, c1-c4, got ('Good', 'Fair', 'Poor')"
    with pytest.raises(ValueError, match=re.escape(message)):
        ReviewForm("P1", "R1", "Accept", ("Good", "Fair", "Poor"), "Good")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ReviewForm(7, "R1", "Accept", ("Good",) * 4, "Good"), "paper must be a str, got 7"),
        (lambda: ReviewForm("P1", None, "Accept", ("Good",) * 4, "Good"),
         "reviewer must be a str, got None"),
        (lambda: ReviewForm("P1", "R1", "Accept", ("Good",) * 4, "Good", comments=None),
         "comments must be a str, got None"),
        (lambda: MetaReviewForm(b"P1", "M1", "Accept"), "paper must be a str, got b'P1'"),
        (lambda: MetaReviewForm("P1", 3, "Accept"), "metareviewer must be a str, got 3"),
    ],
    ids=["paper", "reviewer", "comments", "meta-paper", "metareviewer"],
)
def test_typed_forms_take_only_str_ids_and_comments(make, message):
    """An id or comment that is not a str is refused where the form is
    made, naming the field: the CSV exports could not join it, and
    ``export_json`` would write it as another type."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_label_score():
    # 2 * (2 + 0 + 0.5 - 0.5 + 1 + 1): Accept, four criteria, the award
    assert label_score("Accept", "Good", "Very good", "Fair", "Excellent", "Poor", 1) == (8, 0.8)
    assert label_score(" strong  ACCEPT", *["excellent"] * 4, "Excellent", 1) == (16, 1.2)
    assert label_score("Strong Reject", *["Poor"] * 4, "Good", 0) == (-14, 1.0)


def test_label_score_on_every_canonical_label_tuple():
    """All 43,750 tuples: the score is twice the exact sum of the
    recommendation, criterion and award weights, as an int, and the
    confidence weight is the scale's."""
    for rec, *criteria, conf, award in itertools.product(
        RECS, *[CRITS] * 4, CONFS, (0, 1)
    ):
        total = encode_likert(rec, "recommendation") + award
        total += sum(Fraction(encode_likert(c, "criterion")) for c in criteria)
        s_half, confidence = label_score(rec, *criteria, conf, award)
        assert type(s_half) is int and s_half == 2 * total
        assert confidence == encode_likert(conf, "confidence")


@pytest.mark.parametrize(
    "labels, message",
    [
        (("Maybe", "Superb", "Good", "Good", "Good", "Bad", 2), "'Maybe'"),
        (("Accept", "Good", "Good", "Superb", "Bad", "Bad", 2), "'Superb'"),
        (("Accept", "Good", "Good", "Good", "Good", "Bad", 2), "'Bad'"),
        (("Accept", "Good", "Good", "Good", "Good", "Good", 2), "award flag must be 0 or 1, got 2"),
    ],
)
def test_label_score_checks_in_form_order(labels, message):
    """The first bad field names the error: recommendation, c1-c4,
    confidence, then the award; the form raises the same."""
    rec, *criteria, conf, award = labels
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        label_score(*labels)
    with pytest.raises(type(raised.value), match=f"^{re.escape(str(raised.value))}$"):
        ReviewForm("P1", "R1", rec, tuple(criteria), conf, award)


def test_encode_cache_keeps_scales_apart():
    for _ in range(3):
        assert encode_likert("Excellent", "criterion") == 1.0
        assert encode_likert("Excellent", "confidence") == 1.2
        assert encode_likert("Poor", "confidence") == 0.8
        assert encode_likert("Poor", "criterion") == -1.0
        assert encode_likert(" strong  ACCEPT ", "recommendation") == 3


def test_encode_errors_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(UnknownLabelError):
            encode_likert("Superb", "criterion")
        with pytest.raises(UnknownLabelError):
            encode_likert("Accept", "criterion")
        with pytest.raises(ValueError, match="unknown scale"):
            encode_likert("Good", "quality")
        with pytest.raises(UnknownLabelError):
            make_review("P1", "R1", crit="Superb")


def test_read_exports_holds_each_row_only_while_checking_it(tmp_path, rng):
    """Rows are checked as they are read and each distinct id is kept once:
    whitespace around the ids of a 20,000-row export, which the reader
    strips, does not raise its peak, and the columns are codes into one
    list of stripped ids per role."""
    n_papers, n_rows = 5000, 20000
    paper = np.arange(n_rows) % n_papers
    reviewer = (paper * 7 + np.arange(n_rows) // n_papers) % 3500
    recs, crits, confs = (likert_labels(s) for s in ("recommendation", "criterion", "confidence"))
    labels = np.stack([rng.integers(n, size=n_rows) for n in (7, 5, 5, 2)], axis=1)

    def read(pad):
        rows = [
            review_row(
                f"{pad}P{p:05d}{pad}", f"{pad}R{r:05d}{pad}", recs[i], crits[j], confs[k], str(a)
            )
            for p, r, (i, j, k, a) in zip(paper, reviewer, labels)
        ]
        path = write_reviews(tmp_path, rows, f"reviews{len(pad)}.csv")
        meta = tmp_path / f"metas{len(pad)}.csv"
        meta.write_text(
            "paper_id,metareviewer_id,recommendation\n"
            + "".join(
                f"{pad}P{p:05d}{pad},{pad}M{p % 300:03d}{pad},{recs[p % 7]}\n"
                for p in range(n_papers)
            )
        )
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            exports = read_exports(path, meta_path=meta)
            return exports, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, plain_peak = read("")
    padded, padded_peak = read(" " * 100)
    assert np.array_equal(padded.paper, plain.paper)
    assert np.array_equal(padded.metareviewer, plain.metareviewer)
    assert len(padded.paper) == n_rows and not padded.report.rejected
    # the padded export is 8 MB longer; holding every row before checking
    # any would raise the peak by ~10 MiB
    assert padded_peak - plain_peak < 64 * 1024
    assert padded.paper_ids == plain.paper_ids == [f"P{p:05d}" for p in range(n_papers)]
    assert padded.reviewer_ids == plain.reviewer_ids
    assert sorted(padded.reviewer_ids) == [f"R{r:05d}" for r in np.unique(reviewer)]
    assert padded.metareviewer_ids == [f"M{m:03d}" for m in range(300)]


def test_export_reviews_csv_builds_rows_as_it_joins_them():
    """The review export's peak stays below 2.5 times its text's size.
    On these 4,000 records it is 2.0 times with each row's fields made as
    its line is joined and the lines joined 512 at a time, 2.9 when every
    line is held until the text is joined, 3.5 for the csv.writer row loop
    and 6.1 for a writer that holds every row's fields before joining any.
    Writing the benchmark's corpus at that peak sets its process's
    high-water mark, which the pipeline's worker inherits."""
    reviews = [
        ReviewForm(f"P{i // 3:05d}", f"R{i % 1000:05d}", RECS[i % 7], (CRITS[i % 5],) * 4, "Good")
        for i in range(4000)
    ]
    export_reviews_csv(reviews[:1])  # labels looked up outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        text = export_reviews_csv(reviews)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
