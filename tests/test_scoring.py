import csv
import gc
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reviewpipe.records import DUPLICATE_PAIR, MetaReviewForm, ReviewForm, encode_likert
from reviewpipe.report import report_texts
from reviewpipe.scoring import (
    DecisionConfig,
    DegenerateScaleWarning,
    ReviewScore,
    ScoreTable,
    build_score_table,
    normalize,
    rank_and_cut,
    review_score,
    review_table,
    score_index,
    score_table,
    weighted_paper_mean,
)

from conftest import CONFS, CRITS, RECS, make_review, random_corpus, random_review


class TestReviewScore:
    def test_accept_all_very_good(self):
        form = make_review("P1", "R1", rec="Accept", crit="Very good")
        assert review_score(form).value == 2 + 4 * 0.5 + 0

    def test_all_neutral_is_zero(self):
        assert review_score(make_review("P1", "R1")).value == 0.0

    def test_lattice_maximum(self):
        form = make_review("P1", "R1", rec="Strong Accept", crit="Excellent", award=1)
        assert review_score(form).value == 8.0

    def test_lattice_minimum(self):
        form = make_review("P1", "R1", rec="Strong Reject", crit="Poor")
        assert review_score(form).value == -7.0

    def test_confidence_not_added(self):
        low = make_review("P1", "R1", rec="Accept", conf="Poor")
        high = make_review("P1", "R1", rec="Accept", conf="Excellent")
        assert review_score(low).value == review_score(high).value == 2.0

    @given(
        st.sampled_from(RECS),
        st.tuples(*[st.sampled_from(CRITS)] * 4),
        st.sampled_from(CONFS),
        st.integers(0, 1),
    )
    def test_half_point_lattice(self, rec, crits, conf, award):
        form = ReviewForm("P", "R", rec, crits, conf, award)
        sc = review_score(form)
        assert sc.s_half == round(2 * sc.value)
        assert -7.0 <= sc.value <= 8.0


def one_paper_mean(values, weights) -> float:
    """:func:`weighted_paper_mean` of the rows of a single paper."""
    paper = np.zeros(len(values), dtype=int)
    return float(weighted_paper_mean(np.array(values, dtype=float), paper, np.array(weights), 1)[0])


def paper_mean(scores: list[ReviewScore]) -> float:
    return one_paper_mean([s.value for s in scores], [s.confidence for s in scores])


def meta_mean(metas: list[MetaReviewForm]) -> float:
    xi = [encode_likert(m.recommendation, "recommendation") for m in metas]
    return one_paper_mean(xi, np.ones(len(xi)))


class TestPaperScore:
    def test_singleton(self):
        assert paper_mean([ReviewScore("P", "R", 8, 1.1)]) == 4.0

    def test_weighted_mean(self):
        scores = [ReviewScore("P", "R1", 8, 1.2), ReviewScore("P", "R2", 0, 0.8)]
        assert paper_mean(scores) == pytest.approx(4.8 / 2.0, abs=1e-15)

    def test_constant_scores_any_confidence(self):
        scores = [ReviewScore("P", f"R{i}", 6, c) for i, c in enumerate([0.8, 1.0, 1.2])]
        assert paper_mean(scores) == pytest.approx(3.0, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            paper_mean([])

    def test_bounds_and_permutation_invariance(self, rng):
        for _ in range(50):
            n = rng.integers(1, 6)
            scores = [
                ReviewScore("P", f"R{i}", int(rng.integers(-14, 17)), float(rng.choice([0.8, 0.9, 1.0, 1.1, 1.2])))
                for i in range(n)
            ]
            sp = paper_mean(scores)
            vals = [s.value for s in scores]
            assert min(vals) - 1e-12 <= sp <= max(vals) + 1e-12
            perm = [scores[i] for i in rng.permutation(n)]
            assert paper_mean(perm) == pytest.approx(sp, abs=1e-12)


class TestMetaScore:
    def test_single(self):
        assert meta_mean([MetaReviewForm("P", "M", "Accept")]) == 2

    def test_mean_of_two(self):
        metas = [MetaReviewForm("P", "M1", "Accept"), MetaReviewForm("P", "M2", "Weak Reject")]
        assert meta_mean(metas) == 0.5

    def test_mean_of_zeros(self):
        metas = [MetaReviewForm("P", f"M{i}", "Borderline") for i in range(2)]
        assert meta_mean(metas) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            meta_mean([])


class TestNormalize:
    def test_basic(self):
        assert np.allclose(normalize([-7, 0.5, 8]), [0, 50, 100], atol=1e-12)

    def test_identity_case(self):
        v = [0.0, 25.0, 100.0]
        assert np.allclose(normalize(v), v, atol=1e-12)

    def test_degenerate_maps_to_midpoint(self):
        with pytest.warns(DegenerateScaleWarning):
            out = normalize([3.0, 3.0, 3.0])
        assert np.all(out == 50.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalize([])

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=20, unique=True),
        st.floats(0.1, 10),
        st.floats(-50, 50),
    )
    def test_affine_invariance(self, v, alpha, beta):
        v = np.array(v)
        assume(v.max() - v.min() > 1e-3)
        a = normalize(v)
        b = normalize(alpha * v + beta)
        assert np.allclose(a, b, atol=1e-6)
        assert a.min() == 0.0 and a.max() == 100.0

    def test_monotone(self, rng):
        v = rng.normal(size=30)
        out = normalize(v)
        order = np.argsort(v)
        assert np.all(np.diff(out[order]) >= 0)


class TestScoreIndex:
    def test_symmetry_fixed_point(self):
        assert score_index(73.0, 73.0) == pytest.approx(73.0, abs=1e-12)

    def test_zero_annihilates(self):
        assert score_index(0.0, 80.0) == 0.0

    def test_hand_value(self):
        assert score_index(50.0, 100.0) == pytest.approx(200.0 / 3.0, abs=1e-12)

    def test_both_zero_defined(self):
        assert score_index(0.0, 0.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_index(-1.0, 50.0)

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_bounds_and_symmetry(self, a, b):
        si = score_index(a, b)
        assert score_index(b, a) == si
        assert min(a, b) - 1e-9 <= si <= (a + b) / 2 + 1e-9


class TestRankAndCut:
    def make_table(self, n, si=None, sm=None):
        papers = [f"P{i:03d}" for i in range(n)]
        si = np.asarray(si if si is not None else np.linspace(100, 0, n), dtype=float)
        sm = np.asarray(sm if sm is not None else np.zeros(n), dtype=float)
        from reviewpipe.scoring import ScoreTable

        return ScoreTable(
            papers=papers,
            s_p=si.copy(),
            xi_p=sm.copy(),
            sR_norm=si.copy(),
            sM_norm=sm,
            SI=si,
        )

    def test_calibrated_rank_needs_a_calibrated_table(self):
        with pytest.raises(ValueError, match="table is uncalibrated"):
            rank_and_cut(self.make_table(3), DecisionConfig(40.0), use_calibrated=True)

    def test_floor_rule(self):
        result = rank_and_cut(self.make_table(10), DecisionConfig(40.0))
        assert result.n_accept == 4
        assert len(result.accepted) == 4

    def test_floor_never_exceeds_rate(self):
        for n in range(1, 30):
            result = rank_and_cut(self.make_table(n), DecisionConfig(33.0))
            assert result.n_accept == int(np.floor(0.33 * n))

    def test_floor_is_exact(self):
        # the float product 0.29 * 100 is 28.999..., and 0.7% of 1,000 is
        # 6.999... from the binary 0.7
        assert rank_and_cut(self.make_table(100), DecisionConfig(29.0)).n_accept == 29
        assert DecisionConfig(0.7).n_accept(1000) == 7
        assert DecisionConfig(40.0).n_accept(5526) == 2210
        assert DecisionConfig(40.0).n_accept(200) == 80
        for a in range(1, 101):
            cfg = DecisionConfig(float(a))
            for n in (*range(1, 201), 999, 1000, 4321, 5526, 5999):
                assert cfg.n_accept(n) == a * n // 100, (a, n)

    def test_descending_order(self):
        result = rank_and_cut(self.make_table(10), DecisionConfig(40.0))
        sis = [d.score_index for d in result.decisions]
        assert sis == sorted(sis, reverse=True)

    def test_total_tie_deterministic(self):
        sm = np.zeros(10)
        table = self.make_table(10, si=np.full(10, 50.0), sm=sm)
        result = rank_and_cut(table, DecisionConfig(40.0))
        # pure lexicographic fallback
        assert result.accepted == {"P000", "P001", "P002", "P003"}

    def test_tie_broken_by_meta_score(self):
        sm = np.array([0.0, 90.0, 10.0, 50.0])
        table = self.make_table(4, si=np.full(4, 50.0), sm=sm)
        result = rank_and_cut(table, DecisionConfig(50.0))
        assert result.accepted == {"P001", "P003"}

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DecisionConfig(0.0)
        with pytest.raises(ValueError):
            DecisionConfig(101.0)


class TestBuildScoreTable:
    def test_end_to_end_small(self):
        reviews = [
            make_review("A", "R1", rec="Accept", crit="Very good", conf="Excellent"),
            make_review("A", "R2", conf="Poor"),
            make_review("B", "R3", rec="Strong Accept", crit="Excellent", award=1),
            make_review("C", "R4", rec="Strong Reject", crit="Poor"),
        ]
        metas = [
            MetaReviewForm("A", "M1", "Accept"),
            MetaReviewForm("B", "M1", "Strong Accept"),
            MetaReviewForm("C", "M2", "Strong Reject"),
        ]
        table = build_score_table(reviews, metas)
        assert table.papers == ["A", "B", "C"]
        assert np.allclose(table.s_p, [2.4, 8.0, -7.0], atol=1e-12)
        assert table.sR_norm.min() == 0.0 and table.sR_norm.max() == 100.0
        assert not table.calibrated

    def test_missing_meta_rejected(self):
        with pytest.raises(ValueError, match="without meta-review"):
            build_score_table([make_review("A", "R1")], [])

    def test_every_missing_meta_named(self):
        papers = [f"P{i}" for i in range(8)]
        reviews = [make_review(p, "R1") for p in papers]
        metas = [MetaReviewForm("P0", "M1", "Accept")]
        with pytest.raises(ValueError, match="without meta-review") as info:
            build_score_table(reviews, metas)
        for p in papers[1:]:
            assert repr(p) in str(info.value)

    def test_repeated_typed_pair_rejected(self):
        """A typed review passed twice is rejected as its exported row is,
        not counted twice: here it would pull P1 from 0.0 to -0.667."""
        reviews = [make_review("P1", "R1", rec="Accept"), make_review("P1", "R2", rec="Reject")]
        reviews.append(make_review("P2", "R1", rec="Reject"))
        metas = [MetaReviewForm("P1", "M1", "Accept"), MetaReviewForm("P2", "M1", "Reject")]
        assert build_score_table(reviews, metas).s_p.tolist() == [0.0, -2.0]
        with pytest.raises(ValueError, match=re.escape(DUPLICATE_PAIR)) as info:
            build_score_table([*reviews, reviews[1]], metas)
        assert "'reviewer_id': 'R2'" in str(info.value)

    def test_every_unreviewed_meta_named(self):
        reviews = [make_review("A", "R1")]
        metas = [MetaReviewForm("A", "M1", "Accept")]
        metas += [MetaReviewForm(f"Z{i}", "M1", "Accept") for i in range(7)]
        with pytest.raises(ValueError, match="unreviewed papers") as info:
            build_score_table(reviews, metas)
        for i in range(7):
            assert repr(f"Z{i}") in str(info.value)

    def test_aggregate_within_review_bounds(self, rng):
        reviews = []
        metas = []
        for p in range(8):
            for r in range(3):
                reviews.append(random_review(rng, f"P{p}", f"R{p}_{r}"))
            metas.append(MetaReviewForm(f"P{p}", "M1", "Accept"))
        table = build_score_table(reviews, metas)
        by_paper = {}
        for f in reviews:
            by_paper.setdefault(f.paper, []).append(review_score(f).value)
        for i, p in enumerate(table.papers):
            assert min(by_paper[p]) - 1e-12 <= table.s_p[i] <= max(by_paper[p]) + 1e-12


class TestReviewTable:
    def test_codes_follow_sorted_ids_and_rows_are_ordered(self):
        reviews = [
            make_review("B", "R2", rec="Accept"),
            make_review("A", "R3"),
            make_review("B", "R1", rec="Reject", conf="Excellent"),
            make_review("A", "R1", award=1),
        ]
        metas = [
            MetaReviewForm("B", "M2", "Accept"),
            MetaReviewForm("A", "M2", "Reject"),
            MetaReviewForm("A", "M1", "Borderline"),
        ]
        rows = review_table(reviews, metas)
        assert rows.paper_ids == ["A", "B"]
        assert rows.reviewer_ids == ["R1", "R2", "R3"]
        assert rows.metareviewer_ids == ["M1", "M2"]
        assert rows.paper.tolist() == [0, 0, 1, 1]
        assert rows.reviewer.tolist() == [0, 2, 0, 1]
        assert rows.s_half.tolist() == [2, 0, -4, 4]
        assert rows.s.tolist() == [1.0, 0.0, -2.0, 2.0]
        assert rows.confidence.tolist() == [1.0, 1.0, 1.2, 1.0]
        assert rows.meta_paper.tolist() == [0, 0, 1]
        assert rows.metareviewer.tolist() == [0, 1, 1]
        assert rows.xi.tolist() == [0.0, -2.0, 2.0]

    def test_independent_of_input_order(self, rng):
        _, _, reviews, metas = random_corpus(rng, 12, 6)
        a = review_table(reviews, metas)
        order = rng.permutation(len(reviews))
        b = review_table([reviews[i] for i in order], metas[::-1])
        for name in ("paper_ids", "reviewer_ids", "metareviewer_ids"):
            assert getattr(a, name) == getattr(b, name)
        for name in ("paper", "reviewer", "s_half", "confidence", "meta_paper", "metareviewer", "xi"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_without_metas_skips_the_meta_checks(self):
        rows = review_table([make_review("A", "R1"), make_review("B", "R1")])
        assert rows.paper_ids == ["A", "B"]
        assert len(rows.meta_paper) == len(rows.xi) == 0

    def test_score_table_names_papers_without_meta_review(self):
        rows = review_table([make_review("A", "R1"), make_review("B", "R2")])
        with pytest.raises(ValueError, match=re.escape("papers without meta-review: ['A', 'B']")):
            score_table(rows)

    def test_ids_equal_under_nfc_are_refused(self):
        """One paper or person under two Unicode spellings is refused, each
        role's spellings named, before a paper is refused for a missing
        side; the reader only reports them."""
        nfc, nfd = "Ren\u00e9e", "Rene\u0301e"
        reviews = [make_review("P1", r) for r in (nfc, nfd, "K1", "\u212a1")]
        reviews.append(make_review("P\u00e9", "K1"))
        metas = [MetaReviewForm("Pe\u0301", "M1", "Accept"), MetaReviewForm("P1", "M1", "Accept")]
        rows = review_table(reviews, metas)
        message = (
            "one paper or person under two spellings: paper ids 'Pe\\u0301', 'P\\xe9';"
            " reviewer ids 'Rene\\u0301e', 'Ren\\xe9e'; reviewer ids 'K1', '\\u212a1'"
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            score_table(rows)

    def test_score_table_values_replace_raw_scores(self):
        reviews = [make_review("A", "R1", conf="Excellent"), make_review("A", "R2", conf="Poor")]
        reviews.append(make_review("B", "R1"))
        metas = [MetaReviewForm("A", "M1", "Accept"), MetaReviewForm("B", "M1", "Reject")]
        table = score_table(review_table(reviews, metas), values=[1.0, 3.0, 0.5])
        assert table.s_p == pytest.approx([(1.2 * 1.0 + 0.8 * 3.0) / 2.0, 0.5], abs=1e-15)
        assert table.xi_p.tolist() == [2.0, -2.0]


class TestExports:
    def test_csv_shapes(self):
        reviews = [make_review("A", "R1", rec="Accept"), make_review("B", "R2", rec="Reject")]
        metas = [MetaReviewForm("A", "M1", "Accept"), MetaReviewForm("B", "M2", "Reject")]
        table = build_score_table(reviews, metas)
        texts = dict(report_texts(table, rank_and_cut(table, DecisionConfig(50.0))))
        lines = texts["score_table.csv"].strip().splitlines()
        assert lines[0] == "paper_id,s_p,xi_p,sR_norm,sM_norm,SI"
        assert len(lines) == 3
        dlines = texts["decisions.csv"].strip().splitlines()
        assert dlines[0] == "rank,paper_id,SI,decision"
        assert dlines[1].endswith("accept") and dlines[2].endswith("reject")


# The row-by-row writers and the tuple-key sort that the column writers
# and the lexsort replaced, kept as oracles.
class LfRows(io.StringIO):
    """A text buffer for a csv.writer in the artifacts' dialect, whose rows
    end in CR LF, so that a field holding a CR or LF is quoted on every
    Python version; each row's CR LF is stored as the artifacts' LF."""

    def write(self, row):
        assert row.endswith("\r\n")
        return super().write(row[:-2] + "\n")


def oracle_score_table_csv(table):
    buf = LfRows()
    writer = csv.writer(buf, lineterminator="\r\n")
    header = ["paper_id", "s_p", "xi_p", "sR_norm", "sM_norm", "SI"]
    if table.calibrated:
        header += ["sR_cal", "sM_cal", "SI_cal"]
    writer.writerow(header)
    for i, p in enumerate(table.papers):
        row = [p] + [repr(float(getattr(table, name)[i])) for name in header[1:]]
        writer.writerow(row)
    return buf.getvalue()


def oracle_score_table_json(table):
    names = ["s_p", "xi_p", "sR_norm", "sM_norm", "SI"]
    if table.calibrated:
        names += ["sR_cal", "sM_cal", "SI_cal"]
    rows = [
        {"paper_id": p, **{name: float(getattr(table, name)[i]) for name in names}}
        for i, p in enumerate(table.papers)
    ]
    return json.dumps({"papers": rows}, indent=2, sort_keys=True) + "\n"


def table_texts(table, decisions=None):
    """The first two texts of ``report_texts``: the score table's CSV and
    JSON."""
    texts = report_texts(table, decisions or rank_and_cut(table, DecisionConfig(40.0)))
    return next(texts)[1], next(texts)[1]


def assert_texts_match_oracles(table):
    table_csv, table_json = table_texts(table)
    assert table_csv == oracle_score_table_csv(table)
    assert table_json == oracle_score_table_json(table)


def oracle_decision_list_csv(decisions):
    buf = LfRows()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["rank", "paper_id", "SI", "decision"])
    for d in decisions.decisions:
        writer.writerow([d.rank, d.paper, float(d.score_index), "accept" if d.accept else "reject"])
    return buf.getvalue()


def oracle_field(text):
    """csv.writer's field for one text, in the artifacts' dialect."""
    buf = LfRows()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def row_fields(text, leads):
    """The comma-separated fields after each row's expected ``lead``, the
    header skipped; every field after the lead is free of commas."""
    pos, rows = text.index("\n") + 1, []
    for lead in leads:
        assert text.startswith(lead, pos)
        end = text.index("\n", pos + len(lead))
        rows.append(text[pos + len(lead) : end].split(","))
        pos = end + 1
    assert pos == len(text)
    return rows


def assert_report_matches_oracles(table):
    """Every text of ``report_texts`` matches its row writer, and each
    paper's SI (and SI_cal) text in the decision lists is its text in
    score_table.csv."""
    cfg = DecisionConfig(40.0)
    decisions = rank_and_cut(table, cfg)
    # each list and the place of its SI column among a score-table row's floats
    lists = {"decisions.csv": (decisions, 4)}
    decisions_cal = None
    if table.calibrated:
        decisions_cal = rank_and_cut(table, cfg, use_calibrated=True)
        lists["decisions_calibrated.csv"] = (decisions_cal, 7)
    texts = list(report_texts(table, decisions, decisions_cal))
    assert texts == [
        ("score_table.csv", oracle_score_table_csv(table)),
        ("score_table.json", oracle_score_table_json(table)),
        *((name, oracle_decision_list_csv(listed)) for name, (listed, _) in lists.items()),
    ]
    texts = dict(texts)
    fields = dict(zip(table.papers, map(oracle_field, table.papers)))
    leads = [fields[p] + "," for p in table.papers]
    table_rows = dict(zip(table.papers, row_fields(texts["score_table.csv"], leads)))
    for name, (listed, column) in lists.items():
        leads = [f"{d.rank},{fields[d.paper]}," for d in listed.decisions]
        rows = row_fields(texts[name], leads)
        assert [row[0] for row in rows] == [table_rows[d.paper][column] for d in listed.decisions]


def oracle_rank_order(table, use_calibrated=False):
    si = table.SI_cal if use_calibrated else table.SI
    sm = table.sM_cal if use_calibrated else table.sM_norm
    order = sorted(range(len(table.papers)), key=lambda i: (-si[i], -sm[i], table.papers[i]))
    return [(pos + 1, table.papers[i], float(si[i])) for pos, i in enumerate(order)]


AWKWARD_IDS = ['P"1"', "P\\2", "P,3", "Pä4", "P€5", "P\t6", "P\n7", "a", "a\x00", "", "Z 9", "P\r8"]


def random_score_table(rng, papers, calibrated, levels=None):
    """Score table over ``papers`` in the given order; with ``levels`` every
    column takes one of that many values, so ties are common."""
    n = len(papers)

    def column():
        if levels is None:
            return rng.uniform(0, 100, n)
        return np.round(rng.integers(levels, size=n) * (100.0 / max(levels - 1, 1)), 6)

    cols = {name: column() for name in ("s_p", "xi_p", "sR_norm", "sM_norm", "SI")}
    if calibrated:
        cols.update(sR_cal=column(), sM_cal=column(), SI_cal=column())
    return ScoreTable(papers=list(papers), **cols)


class TestColumnWriters:
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_match_row_writers_on_awkward_ids(self, rng, calibrated):
        table = random_score_table(rng, AWKWARD_IDS, calibrated)
        assert_texts_match_oracles(table)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_match_row_writers_on_random_tables(self, rng, calibrated):
        for n in (1, 2, 7, 40):
            papers = [f"P{i:03d}" for i in rng.permutation(n)]
            table = random_score_table(rng, papers, calibrated, levels=int(rng.integers(1, 4)))
            assert_texts_match_oracles(table)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_match_row_writers_across_blocks(self, rng, calibrated):
        for n in (511, 512, 513, 1100):
            papers = [f"P{i:04d}" for i in rng.permutation(n)]
            table = random_score_table(rng, papers, calibrated)
            assert_texts_match_oracles(table)

    def test_nan_and_infinity_match(self, rng):
        table = random_score_table(rng, ["A", "B", "C", "D"], calibrated=True)
        table.s_p[:] = [np.nan, np.inf, -np.inf, -0.0]
        table.SI_cal[1] = np.nan
        table.xi_p[2] = 1e-300
        table.sM_norm[3] = 1.5e16
        table_csv, table_json = table_texts(table)
        assert "NaN" in table_json and "-Infinity" in table_json
        assert "nan" in table_csv and "-inf" in table_csv
        assert_texts_match_oracles(table)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_zero_papers(self, calibrated):
        empty = np.zeros(0)
        cal = dict(sR_cal=empty, sM_cal=empty, SI_cal=empty) if calibrated else {}
        table = ScoreTable(
            papers=[], s_p=empty, xi_p=empty, sR_norm=empty, sM_norm=empty, SI=empty, **cal
        )
        assert table_texts(table)[1] == '{\n  "papers": []\n}\n'
        assert_texts_match_oracles(table)

    def test_paper_scale_tables_are_formatted_block_by_block(self, rng):
        # 5,526 papers, the paper's count.  Beside the two texts, writing
        # holds less than one more copy of them (the CSV's buffer, the
        # JSON's blocks), one block's float texts, about 170 KiB, and the SI
        # texts kept for the decision list, about 380 KiB: 3.3 MiB of the
        # bound's 3.5 MiB.  Formatting whole columns at once holds all
        # 27,630 float texts, about 2 MiB more, and fails it.
        table = random_score_table(rng, [f"P{i:05d}" for i in range(5526)], calibrated=False)
        decisions = rank_and_cut(table, DecisionConfig(40.0))
        gc.collect()
        tracemalloc.start()
        try:
            texts = table_texts(table, decisions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(map(len, texts)) + 256 * 1024

    def test_pipeline_table_matches(self, rng):
        _, _, reviews, metas = random_corpus(rng, 30, 12)
        table = build_score_table(reviews, metas)
        assert_texts_match_oracles(table)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_report_matches_row_writers_on_awkward_ids(self, rng, calibrated):
        for levels in (None, 1, 2):
            papers = [AWKWARD_IDS[i] for i in rng.permutation(len(AWKWARD_IDS))]
            assert_report_matches_oracles(random_score_table(rng, papers, calibrated, levels))

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_report_matches_row_writers_on_tied_tables(self, rng, calibrated):
        for n in (1, 2, 7, 40):
            papers = [f"P{i:03d}" for i in rng.permutation(n)]
            table = random_score_table(rng, papers, calibrated, levels=int(rng.integers(1, 4)))
            assert_report_matches_oracles(table)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_report_matches_row_writers_across_blocks(self, rng, calibrated):
        for n in (511, 512, 513, 1100):
            papers = [f"P{i:04d}" for i in rng.permutation(n)]
            assert_report_matches_oracles(random_score_table(rng, papers, calibrated))

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_report_of_zero_papers(self, calibrated):
        empty = np.zeros(0)
        cal = dict(sR_cal=empty, sM_cal=empty, SI_cal=empty) if calibrated else {}
        table = ScoreTable(
            papers=[], s_p=empty, xi_p=empty, sR_norm=empty, sM_norm=empty, SI=empty, **cal
        )
        assert_report_matches_oracles(table)

    def test_report_nan_infinity_and_negative_zero(self, rng):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, np.nan, -0.0]
        table = random_score_table(rng, [f"P{i}" for i in range(len(special))], calibrated=True)
        table.SI[:] = special
        table.SI_cal[:] = special[::-1]
        table.sM_norm[:] = special[2:] + special[:2]
        table.s_p[:] = -0.0
        texts = dict(report_texts(table, rank_and_cut(table, DecisionConfig(40.0))))
        assert "-0.0" in texts["decisions.csv"] and "-inf" in texts["decisions.csv"]
        assert_report_matches_oracles(table)


class TestRankOracle:
    def ranked(self, table, use_calibrated=False):
        result = rank_and_cut(table, DecisionConfig(40.0), use_calibrated=use_calibrated)
        return [(d.rank, d.paper, d.score_index) for d in result.decisions]

    def test_heavy_ties_and_shuffled_ids(self, rng):
        for trial in range(60):
            n = int(rng.integers(0, 40))
            papers = [f"P{i:02d}" for i in rng.permutation(n)]
            table = random_score_table(rng, papers, calibrated=True, levels=int(rng.integers(1, 4)))
            assert self.ranked(table) == oracle_rank_order(table)
            assert self.ranked(table, True) == oracle_rank_order(table, True)

    def test_ids_that_differ_by_a_trailing_nul(self, rng):
        base = ["a", "a\x00", "a\x00\x00", "b", "", "\x00", "ab", "a\x00b"]
        for trial in range(30):
            papers = [base[i] for i in rng.permutation(len(base))]
            table = random_score_table(rng, papers, calibrated=False, levels=1)
            assert self.ranked(table) == oracle_rank_order(table)
        assert [p for _, p, _ in self.ranked(table)] == sorted(base)

    def test_awkward_ids_with_ties(self, rng):
        for trial in range(30):
            papers = [AWKWARD_IDS[i] for i in rng.permutation(len(AWKWARD_IDS))]
            table = random_score_table(rng, papers, calibrated=False, levels=2)
            assert self.ranked(table) == oracle_rank_order(table)
