import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import reviewpipe.pipeline
import reviewpipe.records
import reviewpipe.report

from reviewpipe.pipeline import (
    GrayAreaReport,
    PipelineConfig,
    emit_plots,
    gray_area,
    run_pipeline,
    write_atomic,
)
from reviewpipe.report import figure_texts, histogram_artifact, scatter_artifact
from reviewpipe.calibration import AcceptanceEstimate, GridSpec, UnidentifiableModelWarning
from reviewpipe.records import (
    DUPLICATE_PAIR,
    MetaReviewForm,
    export_json,
    export_metas_csv,
    export_reviews_csv,
)
from reviewpipe.scoring import Decision, DecisionConfig, DecisionList, ScoreTable

from conftest import RECS, random_corpus, random_review


def make_decisions(accepted, rejected):
    decisions = [
        Decision(rank=i + 1, paper=p, score_index=100.0 - i, accept=True)
        for i, p in enumerate(accepted)
    ]
    decisions += [
        Decision(rank=len(accepted) + i + 1, paper=p, score_index=10.0 - i, accept=False)
        for i, p in enumerate(rejected)
    ]
    return DecisionList(decisions, n_accept=len(accepted), acceptance_rate=40.0)


class TestGrayArea:
    def test_identical_rankings(self):
        a = make_decisions(["A", "B"], ["C", "D"])
        report = gray_area(a, a)
        assert report.counts == {"agree-accept": 2, "agree-reject": 2, "disagree": 0}

    def test_single_swap_two_disagreements(self):
        raw = make_decisions(["A", "B"], ["C", "D"])
        cal = make_decisions(["A", "C"], ["B", "D"])
        report = gray_area(raw, cal)
        assert sorted(report.disagree) == ["B", "C"]
        assert report.counts["disagree"] == 2

    def test_disjoint_accept_sets(self):
        raw = make_decisions(["A", "B"], ["C", "D", "E", "F"])
        cal = make_decisions(["C", "D"], ["A", "B", "E", "F"])
        report = gray_area(raw, cal)
        assert report.counts["disagree"] == 4

    def test_partitions_paper_set(self):
        raw = make_decisions(["A", "B", "C"], ["D", "E", "F", "G"])
        cal = make_decisions(["A", "D", "E"], ["B", "C", "F", "G"])
        report = gray_area(raw, cal)
        classes = report.agree_accept + report.agree_reject + report.disagree
        assert sorted(classes) == sorted("ABCDEFG")
        assert sum(report.counts.values()) == 7
        assert len(report.agree_accept) <= raw.n_accept

    def test_mismatched_paper_sets_rejected(self):
        with pytest.raises(ValueError):
            gray_area(make_decisions(["A"], ["B"]), make_decisions(["A"], ["C"]))


class TestPlots:
    def test_constant_values_single_occupied_bin(self):
        csv_text, _ = histogram_artifact(np.full(50, 3.0), bins=10)
        counts = [
            int(line.rsplit(",", 1)[1])
            for line in csv_text.strip().splitlines()
            if not line.startswith("#") and not line.startswith("bin_left")
        ]
        assert sum(1 for c in counts if c > 0) == 1
        assert sum(counts) == 50

    def test_scatter_artifact_alignment(self):
        with pytest.raises(ValueError):
            scatter_artifact([1.0, 2.0], [1.0])

    def test_emit_plots_needs_the_calibrated_columns(self, tmp_path):
        table = ScoreTable(["a", "b"], *np.zeros((5, 2)))
        with pytest.raises(ValueError, match="calibrated score columns"):
            emit_plots(table, np.zeros(2), None, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_figures_are_rendered_one_at_a_time(self, monkeypatch):
        """``figure_texts`` yields the six files in order and renders a
        figure only once the files before it have been taken."""
        rendered = []
        monkeypatch.setattr(
            reviewpipe.report, "scatter_artifact", lambda *args: rendered.append(args) or ("", "")
        )
        table = ScoreTable(["a", "b"], *np.zeros((8, 2)))
        texts = figure_texts(table, np.zeros(2), AcceptanceEstimate(np.zeros(2), 1, 0))
        first = [name for name, _ in itertools.islice(texts, 2)]
        assert first == ["calibrated_score_histogram.csv", "calibrated_score_histogram.svg"]
        assert rendered == []
        assert [name for name, _ in itertools.islice(texts, 2)] == [
            "acceptance_probability.csv", "acceptance_probability.svg"
        ]
        assert len(rendered) == 1
        assert [name for name, _ in texts] == ["meta_calibration_scatter.csv", "meta_calibration_scatter.svg"]
        assert len(rendered) == 2

    def test_svg_is_deterministic(self):
        a = scatter_artifact([1.0, 2.0], [3.0, 4.0])
        b = scatter_artifact([1.0, 2.0], [3.0, 4.0])
        assert a[1] == b[1]
        assert a[1].startswith("<svg ")


def write_corpus(tmp_path, rng, n_papers=60, n_reviewers=25):
    _, _, reviews, metas = random_corpus(rng, n_papers, n_reviewers)
    rpath = tmp_path / "reviews.csv"
    mpath = tmp_path / "metas.csv"
    rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
    mpath.write_text(export_metas_csv(metas), encoding="utf-8")
    return rpath, mpath


def count_label_scores(monkeypatch) -> list:
    """The arguments of every later ``label_score`` call in the package."""
    original = reviewpipe.records.label_score
    calls = []

    def counted(*labels):
        calls.append(labels)
        return original(*labels)

    for name, module in list(sys.modules.items()):
        if name.startswith("reviewpipe") and getattr(module, "label_score", None) is original:
            monkeypatch.setattr(module, "label_score", counted)
    return calls


@pytest.mark.parametrize(
    "name, value",
    [("seed", 1.5), ("seed", True), ("seed", np.int64(1)), ("n_samples", 2.5), ("n_samples", True)],
)
def test_config_takes_only_int_seed_and_sample_count(name, value):
    """A seed or sample count that is not an int, a bool included, is
    refused when the config is made, so before anything is written, as
    the CLI's ``type=int`` refuses it as a flag.  Before, a float failed
    only at stage 'calibrate' and a bool seed was written into
    ``calibration_fit.json`` as ``true``."""
    message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig(reviews_path="reviews.csv", calibrate=True, **{name: value})


class TestRunPipeline:
    def test_calibration_off_no_calibrated_columns(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng)
        cfg = PipelineConfig(
            reviews_path=str(rpath), meta_path=str(mpath), out_dir=str(tmp_path / "out")
        )
        result = run_pipeline(cfg)
        assert not result.table.calibrated
        assert result.gray.counts == {"agree-accept": 0, "agree-reject": 0, "disagree": 0}
        assert result.gray.notice is not None
        assert "SI_cal" not in (tmp_path / "out" / "score_table.csv").read_text()

    def test_accept_count_follows_floor_rule(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=200, n_reviewers=80)
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(tmp_path / "out"),
            decision=DecisionConfig(40.0),
        )
        result = run_pipeline(cfg)
        assert result.decisions.n_accept == 80
        assert len(result.decisions.accepted) == 80

    def test_full_pipeline_with_calibration(self, tmp_path, rng):
        from reviewpipe.calibration import GridSpec

        rpath, mpath = write_corpus(tmp_path, rng, n_papers=40, n_reviewers=15)
        out = tmp_path / "out"
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(out),
            calibrate=True,
            grid=GridSpec(points=4),
            n_samples=100,
            seed=5,
        )
        result = run_pipeline(cfg)
        assert result.table.calibrated
        assert result.fit_summary is not None
        assert sum(result.gray.counts.values()) == 40
        for name in [
            "score_table.csv",
            "score_table.json",
            "decisions.csv",
            "decisions_calibrated.csv",
            "gray_area.json",
            "calibration_fit.json",
            "validation.json",
            "calibrated_score_histogram.svg",
            "acceptance_probability.csv",
            "meta_calibration_scatter.svg",
        ]:
            assert (out / name).exists(), name
        header = (out / "score_table.csv").read_text().splitlines()[0]
        assert header == "paper_id,s_p,xi_p,sR_norm,sM_norm,SI,sR_cal,sM_cal,SI_cal"

    def test_dequantize_stage_changes_aggregates_only_within_band(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng)
        base = run_pipeline(
            PipelineConfig(reviews_path=str(rpath), meta_path=str(mpath), out_dir=str(tmp_path / "a"))
        )
        dq = run_pipeline(
            PipelineConfig(
                reviews_path=str(rpath),
                meta_path=str(mpath),
                out_dir=str(tmp_path / "b"),
                dequantize=True,
            )
        )
        assert dq.table.papers == base.table.papers
        assert np.all(np.abs(dq.table.s_p - base.table.s_p) <= 0.25 + 1e-12)

    def test_byte_identical_reruns(self, tmp_path, rng):
        from reviewpipe.calibration import GridSpec

        rpath, mpath = write_corpus(tmp_path, rng, n_papers=30, n_reviewers=12)
        texts = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            cfg = PipelineConfig(
                reviews_path=str(rpath),
                meta_path=str(mpath),
                out_dir=str(out),
                calibrate=True,
                grid=GridSpec(points=3),
                n_samples=50,
                seed=11,
            )
            run_pipeline(cfg)
            texts.append(
                {
                    name.name: name.read_bytes()
                    for name in sorted(out.iterdir())
                }
            )
        assert texts[0] == texts[1]

    def test_stage_errors_name_the_stage(self, tmp_path):
        cfg = PipelineConfig(reviews_path=str(tmp_path / "missing.csv"), out_dir=str(tmp_path / "o"))
        from reviewpipe.pipeline import PipelineStageError

        with pytest.raises(PipelineStageError, match="stage 'load'"):
            run_pipeline(cfg)

    def test_keyboard_interrupt_reaches_the_caller_unchanged(self, tmp_path, rng, monkeypatch):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(reviewpipe.pipeline, "score_table", interrupt)
        cfg = PipelineConfig(
            reviews_path=str(rpath), meta_path=str(mpath), out_dir=str(tmp_path / "o")
        )
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)

    @pytest.mark.parametrize("calibrate", [False, True])
    def test_artifacts_are_the_written_files(self, tmp_path, rng, calibrate):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=30, n_reviewers=12)
        out = tmp_path / "out"
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(out),
            calibrate=calibrate,
            grid=GridSpec(points=3),
            n_samples=50,
        )
        artifacts = run_pipeline(cfg).artifacts
        assert len(artifacts) == len(set(artifacts))
        assert set(artifacts) == {str(path) for path in out.iterdir()}

    def test_acceptance_probability_tracks_score(self, rng):
        # ranking-based acceptance: probability should rise with the score
        from reviewpipe.calibration import GridSpec, acceptance_probability, calibrate
        from conftest import planted_instance

        inputs, _, _ = planted_instance(rng, 100, 30, bias_sd=0.5, noise_sd=0.8)
        cal = calibrate(inputs, GridSpec(points=5))
        est = acceptance_probability(cal.mu_y, cal.sigma_y, inputs, DecisionConfig(40.0), 500, seed=2)
        assert spearmanr(cal.scores, est.probability).statistic > 0.9

    def test_duplicate_review_row_rejected_before_scoring(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=20, n_reviewers=10)
        lines = rpath.read_text(encoding="utf-8").splitlines()
        paper, reviewer, rec = lines[1].split(",")[:3]
        other = "Strong Reject" if rec != "Strong Reject" else "Strong Accept"
        dup_path = tmp_path / "reviews_dup.csv"
        dup_path.write_text(
            "\n".join(lines + [",".join([paper, reviewer, other] + lines[1].split(",")[3:])]) + "\n",
            encoding="utf-8",
        )
        outputs = []
        for name, path in (("clean", rpath), ("dup", dup_path)):
            out = tmp_path / name
            run_pipeline(
                PipelineConfig(
                    reviews_path=str(path), meta_path=str(mpath), out_dir=str(out), dequantize=True
                )
            )
            outputs.append(out)
        for name in ("score_table.csv", "decisions.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        rejected = json.loads((outputs[1] / "validation.json").read_text())["rejected"]
        assert [(r["row"]["reviewer_id"], r["reason"]) for r in rejected] == [
            (reviewer, DUPLICATE_PAIR)
        ]

    def test_fit_summary_flags_unidentifiable_review_bias(self, tmp_path, rng):
        # every reviewer covers one paper: only sigma_b^2 + sigma_e^2 is identified
        reviews = [random_review(rng, f"P{p:02d}", f"R{p:02d}_{k}") for p in range(30) for k in range(3)]
        metas = [MetaReviewForm(f"P{p:02d}", f"M{p % 3}", RECS[p % len(RECS)]) for p in range(30)]
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(tmp_path / "out"),
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=20,
        )
        with pytest.warns(UnidentifiableModelWarning, match="every reviewer"):
            result = run_pipeline(cfg)
        assert result.fit_summary["identifiable"] is False
        written = json.loads((tmp_path / "out" / "calibration_fit.json").read_text())
        assert written["identifiable"] is False

    def test_fit_summary_flags(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=30, n_reviewers=12)
        summaries = {}
        for name, grid in (("point", GridSpec(0.5, 0.5)), ("box", GridSpec())):
            cfg = PipelineConfig(
                reviews_path=str(rpath),
                meta_path=str(mpath),
                out_dir=str(tmp_path / name),
                calibrate=True,
                grid=grid,
                n_samples=20,
            )
            summaries[name] = run_pipeline(cfg).fit_summary
            written = json.loads((tmp_path / name / "calibration_fit.json").read_text())
            assert written == json.loads(json.dumps(summaries[name]))
        # a one-point box is all edge, and its one point is evaluated once;
        # with one meta-review per paper that point is a' = 0.5 / (1 + 0.5)
        point = summaries["point"]
        for summary in (point, point["meta"]):
            assert summary["argmin_on_grid_edge"] is True
            assert summary["evaluations"] == 1
        assert [(row["sb2_hat"], row["se2_hat"]) for row in point["grid"]] == [(0.5, 0.5)]
        assert [row["a_prime"] for row in point["meta"]["grid"]] == [0.5 / 1.5]
        box = summaries["box"]
        for summary in (box, box["meta"]):
            assert summary["identifiable"] is True
            assert summary["stopped_on_budget"] is False
            assert len(summary["grid"]) <= summary["evaluations"] <= 60
            assert set(summary["moment_estimate"]) == {"sigma_q2", "sigma_b2", "sigma_e2"}
        lo, hi = GridSpec().lo, GridSpec().hi
        best = min(box["grid"], key=lambda row: row["nll"])
        assert box["hyperparams"]["sigma_b2"] == best["sb2_hat"] * best["sigma_q2"]
        on_edge = best["sb2_hat"] in (lo, hi) or best["se2_hat"] in (lo, hi)
        assert box["argmin_on_grid_edge"] is on_edge
        # the meta side identifies sigma_b^2 and sigma_q^2 + sigma_e^2 only
        best = min(box["meta"]["grid"], key=lambda row: row["nll"])
        hp = box["meta"]["hyperparams"]
        assert hp["sigma_q2"] is None and hp["sigma_e2"] is None
        assert hp["sigma_q2_plus_e2"] == best["sigma_q2_plus_e2"]
        assert hp["sigma_b2"] == best["a_prime"] * best["sigma_q2_plus_e2"]
        assert box["meta"]["argmin_on_grid_edge"] is (best["a_prime"] in (lo / (1 + hi), hi / (1 + lo)))


    def test_label_score_runs_once_per_review(self, tmp_path, rng, monkeypatch):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=20, n_reviewers=10)
        calls = count_label_scores(monkeypatch)
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(tmp_path / "out"),
            dequantize=True,
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=20,
        )
        run_pipeline(cfg)
        assert len(calls) == 60

    def test_label_score_runs_once_per_distinct_raw_label_tuple(self, tmp_path, rng, monkeypatch):
        _, _, reviews, metas = random_corpus(rng, 20, 10)
        pool = reviews[:4]
        reviews = [
            replace(pool[i % 4], paper=f.paper, reviewer=f.reviewer) for i, f in enumerate(reviews)
        ]
        # a repeated pair and an unknown label, each with a tuple no accepted row carries
        repeat = replace(reviews[0], recommendation="Strong Accept", criteria=("Poor",) * 4)
        distinct = {(f.recommendation, f.criteria, f.confidence, f.award) for f in reviews}
        assert (repeat.recommendation, repeat.criteria, repeat.confidence, repeat.award) not in distinct
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        text = export_reviews_csv(reviews + [repeat]) + "P0000,R0099,Maybe,Good,Good,Good,Good,Good,0,\n"
        rpath.write_text(text, encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        calls = count_label_scores(monkeypatch)
        out = tmp_path / "out"
        run_pipeline(
            PipelineConfig(reviews_path=str(rpath), meta_path=str(mpath), out_dir=str(out), dequantize=True)
        )
        # the rejected rows' tuples are scored too: the repeat's and the unknown label's
        assert len(calls) == len(distinct) + 2 < len(reviews)
        assert len(json.loads((out / "validation.json").read_text())["rejected"]) == 2

    def test_constant_meta_scores_pass_through(self, tmp_path, rng):
        _, _, reviews, metas = random_corpus(rng, 30, 12)
        metas = [MetaReviewForm(m.paper, m.metareviewer, "Accept") for m in metas]
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(tmp_path / "out"),
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=20,
        )
        with pytest.warns(UnidentifiableModelWarning, match="every score equals"):
            result = run_pipeline(cfg)
        assert result.table.sM_cal.tolist() == [50.0] * 30
        assert (tmp_path / "out" / "decisions_calibrated.csv").exists()

    def test_constant_review_scores_name_the_cause(self, tmp_path, rng):
        from dataclasses import replace

        _, _, reviews, metas = random_corpus(rng, 30, 12)
        reviews = [
            replace(r, recommendation="Borderline", criteria=("Good",) * 4, award=0)
            for r in reviews
        ]
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(tmp_path / "out"),
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=20,
        )
        with pytest.warns(UnidentifiableModelWarning, match="every score equals") as caught:
            result = run_pipeline(cfg)
        assert [str(w.message) for w in caught if w.category is UnidentifiableModelWarning] == [
            "every score equals 0.0: the data cannot pin down reviewer bias, "
            "so the scores pass through uncalibrated"
        ]
        assert result.table.sR_cal.tolist() == [50.0] * 30
        assert result.fit_summary["hyperparams"] is None

    @pytest.mark.parametrize("side", ["reviews", "metas"])
    @pytest.mark.parametrize("case", ["one_paper_each", "all_equal"])
    def test_unpinned_bias_passes_scores_through(self, tmp_path, rng, side, case):
        from dataclasses import replace

        from reviewpipe.scoring import normalize

        _, _, reviews, metas = random_corpus(rng, 30, 12)
        if side == "reviews" and case == "one_paper_each":
            reviews = [replace(r, reviewer=f"{r.reviewer}_{r.paper}") for r in reviews]
        elif side == "reviews":
            reviews = [
                replace(r, recommendation="Accept", criteria=("Good",) * 4, award=1)
                for r in reviews
            ]
        elif case == "one_paper_each":
            metas = [replace(m, metareviewer=f"M_{m.paper}") for m in metas]
        else:
            metas = [replace(m, recommendation="Weak Reject") for m in metas]
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        out = tmp_path / "out"
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(out),
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=50,
        )
        who = "reviewer" if side == "reviews" else "meta-reviewer"
        cause = f"every {who} covers a single paper" if case == "one_paper_each" else "every score equals"
        with pytest.warns(UnidentifiableModelWarning, match=cause) as caught:
            result = run_pipeline(cfg)
        assert sum(w.category is UnidentifiableModelWarning for w in caught) == 1
        table = result.table
        written = json.loads((out / "calibration_fit.json").read_text())
        passed = written if side == "reviews" else written["meta"]
        assert passed["hyperparams"] is None and passed["moment_estimate"] is None
        assert passed["grid"] == [] and passed["argmin_on_grid_edge"] is None
        assert passed["evaluations"] == 0
        assert passed["identifiable"] is (case == "all_equal")
        if side == "reviews":
            assert np.array_equal(table.sR_cal, normalize(table.s_p))
            assert written["meta"]["hyperparams"] is not None
            with (out / "acceptance_probability.csv").open(encoding="utf-8") as fh:
                rows = [line for line in csv.reader(fh) if not line[0].startswith("#")]
            probabilities = {float(row[1]) for row in rows[1:]}
            assert probabilities == {0.0, 1.0}
        else:
            assert np.array_equal(table.sM_cal, normalize(table.xi_p))
            assert result.fit_summary["hyperparams"] is not None


SHUFFLE_CORPUS = random_corpus(np.random.default_rng(2024), 24, 10)


def _run_exports(review_lines, meta_lines) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rpath, mpath, out = tmp / "reviews.csv", tmp / "metas.csv", tmp / "out"
        rpath.write_text("\n".join(review_lines) + "\n", encoding="utf-8")
        mpath.write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(out),
            dequantize=True,
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=50,
            seed=4,
        )
        run_pipeline(cfg)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shuffled_input_rows_give_byte_identical_artifacts(random):
    _, _, reviews, metas = SHUFFLE_CORPUS
    review_lines = export_reviews_csv(reviews).splitlines()
    meta_lines = export_metas_csv(metas).splitlines()
    reference = _run_exports(review_lines, meta_lines)
    body, meta_body = review_lines[1:], meta_lines[1:]
    random.shuffle(body)
    random.shuffle(meta_body)
    assert _run_exports(review_lines[:1] + body, meta_lines[:1] + meta_body) == reference


def _tied_corpus():
    """Reviews on two recommendation levels and neutral criteria, so many
    papers tie on SI and on the meta score and the paper id decides."""
    rng = np.random.default_rng(77)
    _, _, reviews, metas = random_corpus(rng, 24, 10)
    reviews = [
        replace(f, recommendation=("Accept", "Reject")[rng.integers(2)],
                criteria=("Good",) * 4, confidence="Good", award=0)
        for f in reviews
    ]
    return reviews, metas


TIED_CORPUS = _tied_corpus()
# no whitespace, which ingestion strips from ids; no NUL, which Python 3.10's csv rejects
ID_ALPHABET = "Pab09,;'\"\\-éß€"


def _ordered_ids(n):
    ids = st.text(ID_ALPHABET, min_size=1, max_size=4)
    return st.lists(ids, min_size=n, max_size=n, unique=True).map(sorted)


def _renamed_outputs(paper_names, reviewer_names) -> tuple[list, dict]:
    """decisions.csv rows and gray_area.json of the tied corpus with its
    ids renamed, mapped back to the original ids."""
    reviews, metas = TIED_CORPUS
    papers = dict(zip(sorted({f.paper for f in reviews}), paper_names))
    reviewers = dict(zip(sorted({f.reviewer for f in reviews}), reviewer_names))
    back = {new: old for old, new in papers.items()}
    reviews = [replace(f, paper=papers[f.paper], reviewer=reviewers[f.reviewer]) for f in reviews]
    metas = [replace(m, paper=papers[m.paper]) for m in metas]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rpath, mpath, out = tmp / "reviews.csv", tmp / "metas.csv", tmp / "out"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        mpath.write_text(export_metas_csv(metas), encoding="utf-8")
        cfg = PipelineConfig(
            reviews_path=str(rpath),
            meta_path=str(mpath),
            out_dir=str(out),
            calibrate=True,
            grid=GridSpec(points=3),
            n_samples=50,
            seed=4,
        )
        run_pipeline(cfg)
        with open(out / "decisions.csv", newline="", encoding="utf-8") as fh:
            decisions = [[rank, back.get(p, p), si, d] for rank, p, si, d in csv.reader(fh)]
        gray = json.loads((out / "gray_area.json").read_text(encoding="utf-8"))
    for key in ("agree_accept", "agree_reject", "disagree"):
        gray[key] = [back[p] for p in gray[key]]
    return decisions, gray


@settings(max_examples=10, deadline=None)
@given(_ordered_ids(24), _ordered_ids(10))
def test_order_preserving_renaming_keeps_decisions(paper_names, reviewer_names):
    reviews, _ = TIED_CORPUS
    reference = _renamed_outputs(
        sorted({f.paper for f in reviews}), sorted({f.reviewer for f in reviews})
    )
    assert _renamed_outputs(paper_names, reviewer_names) == reference


def test_import_leaves_scipy_unloaded(tmp_path):
    # neither the import nor a calibrated run loads scipy
    rpath, mpath = write_corpus(tmp_path, np.random.default_rng(5), n_papers=20, n_reviewers=8)
    code = (
        "import sys, reviewpipe\n"
        "from reviewpipe import GridSpec, PipelineConfig, run_pipeline\n"
        "print('scipy' in sys.modules)\n"
        "run_pipeline(PipelineConfig(reviews_path=sys.argv[1], meta_path=sys.argv[2],"
        " out_dir=sys.argv[3], dequantize=True, calibrate=True, grid=GridSpec(points=3),"
        " n_samples=20))\n"
        "print('scipy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(rpath), str(mpath), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    assert (tmp_path / "out" / "calibration_fit.json").exists()


def _float_cells(path):
    """The cells of a CSV artifact, numbers as floats."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with path.open(encoding="utf-8") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh) if not row[0].startswith("#")]


def _assert_close(a, b, tol=1e-12):
    """Equal structure and strings; floats within tol, relative above 1."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_close(a[key], b[key], tol)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_close(x, y, tol)
    elif isinstance(a, float) and not isinstance(b, str):
        assert abs(a - b) <= tol * max(1.0, abs(a)), (a, b)
    else:
        assert a == b


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # a calibrated run under one and under two BLAS threads: the same
    # decisions and acceptance counts, every float within 1e-12.  With
    # fewer papers than reviewers the papers are factored, in two blocks.
    rpath, mpath = write_corpus(tmp_path, np.random.default_rng(7), n_papers=400, n_reviewers=570)
    code = (
        "import sys\n"
        "from reviewpipe import PipelineConfig, run_pipeline\n"
        "run_pipeline(PipelineConfig(reviews_path=sys.argv[1], meta_path=sys.argv[2],"
        " out_dir=sys.argv[3], dequantize=True, calibrate=True))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outs = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        )
        outs[threads] = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(rpath), str(mpath), str(outs[threads])],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    one, two = outs["1"], outs["2"]
    for name in (
        "decisions.csv", "decisions_calibrated.csv", "acceptance_probability.csv",
        "score_table.csv", "calibrated_score_histogram.csv",
    ):
        _assert_close(_float_cells(one / name), _float_cells(two / name))
    for name in ("score_table.json", "calibration_fit.json", "gray_area.json"):
        _assert_close(json.loads((one / name).read_text()), json.loads((two / name).read_text()))


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "x.txt"
        write_atomic(path, "one")
        write_atomic(path, "two")
        assert path.read_text() == "two"
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_mode_is_what_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_atomic(tmp_path / "x.txt", "one")
            with open(tmp_path / "y.txt", "w") as fh:
                fh.write("one")
        finally:
            os.umask(old)
        assert (tmp_path / "x.txt").stat().st_mode & 0o777 == mode
        assert (tmp_path / "y.txt").stat().st_mode & 0o777 == mode

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(tmp_path / "x.txt", None)
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def run(self, argv):
        from reviewpipe.cli import main

        return main(argv)

    def test_validate_command(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        code = self.run(
            ["validate", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert payload["papers"] == 10

    def test_pipeline_command(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=20, n_reviewers=10)
        code = self.run(
            [
                "pipeline",
                "--input", str(rpath),
                "--meta", str(mpath),
                "--out", str(tmp_path / "o"),
                "--samples", "50",
                "--acceptance-rate", "40",
            ]
        )
        assert code == 0
        assert "accepted" in capsys.readouterr().out
        assert (tmp_path / "o" / "gray_area.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--seed", "1"],
            ["validate", "--acceptance-rate", "50"],
            ["dequantize", "--seed", "1"],
            ["dequantize", "--acceptance-rate", "50"],
            ["dequantize", "--meta", "m.csv"],
        ],
    )
    def test_options_the_command_does_not_read_are_usage_errors(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run([*argv, "--input", str(tmp_path / "r.csv"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_grid_rejected_before_any_write(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run([*argv, "--grid-min", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("reviewpipe pipeline: error: grid bounds must be positive")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_rejected_before_any_write(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run([*argv, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "reviewpipe pipeline: error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_header_only_exports_refused_at_score(self, tmp_path, capsys):
        """No review and no meta-review accepted: 'score' says so."""
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text("paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n")
        mpath.write_text("paper_id,metareviewer_id,recommendation\n")
        argv = ["--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        for dequantize in ("--dequantize", "--no-dequantize"):
            assert self.run(["pipeline", *argv, dequantize]) == 2
            assert capsys.readouterr().err == (
                "reviewpipe pipeline: error: stage 'score' failed:"
                " no review was accepted: the table has no papers\n"
            )

    def test_one_reviewer_under_two_spellings_refused_at_score(self, tmp_path, capsys):
        """A reviewer named in NFC and in NFD would count as two people:
        'score' refuses the run naming both spellings; ``validate`` only
        reports them and exits 0."""
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rows = [("P1", "Ren\u00e9e"), ("P1", "R2"), ("P2", "Rene\u0301e"), ("P2", "R2")]
        rpath.write_text(
            "paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n"
            + "".join(f"{p},{r},Accept,Good,Good,Good,Good\n" for p, r in rows),
            encoding="utf-8",
        )
        mpath.write_text("paper_id,metareviewer_id,recommendation\nP1,M1,Accept\nP2,M1,Reject\n")
        argv = ["--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run(["pipeline", *argv, "--no-calibrate"]) == 2
        assert capsys.readouterr().err == (
            "reviewpipe pipeline: error: stage 'score' failed: one paper or person under"
            " two spellings: reviewer ids 'Rene\\u0301e', 'Ren\\xe9e'\n"
        )
        assert self.run(["validate", *argv]) == 0
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert ["ids equal under NFC", "reviewer ids 'Rene\\u0301e', 'Ren\\xe9e'"] in report["findings"]

    def test_validate_reports_export_with_no_accepted_review(self, tmp_path, capsys):
        """``validate`` names what ``pipeline`` refuses header-only exports
        for (see above), and still exits 0: no row was rejected."""
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text("paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n")
        mpath.write_text("paper_id,metareviewer_id,recommendation\n")
        argv = ["validate", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert report["papers"] == 0
        assert report["findings"] == [["no review accepted", "no review row was accepted"]]

    def test_sample_count_below_one_rejected_before_any_write(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run([*argv, "--calibrate", "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "reviewpipe pipeline: error: n_samples must be >= 1, got 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, export, extra, message",
        [
            ("validate", "r.json", ["--format", "json"], "top level is not an object"),
            ("dequantize", "r.json", ["--format", "json"], "top level is not an object"),
            ("pipeline", "r.json", ["--format", "json"], "stage 'load' failed"),
            ("validate", "bad.csv", [], "unknown column(s) ['score']"),
            ("dequantize", "bad.csv", [], "unknown column(s) ['score']"),
            ("pipeline", "bad.csv", [], "unknown column(s) ['score']"),
            ("validate", "reviews.csv", ["--format", "json", "--meta", "m.csv"], "carry their own"),
        ],
    )
    def test_bad_input_is_a_one_line_error(
        self, tmp_path, rng, capsys, command, export, extra, message
    ):
        write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        (tmp_path / "r.json").write_text("[1, 2]\n")
        (tmp_path / "bad.csv").write_text("paper_id,reviewer_id,score\nP1,R1,3\n")
        argv = [command, "--input", str(tmp_path / export), "--out", str(tmp_path / "o"), *extra]
        if command == "pipeline" and "--format" not in extra:
            argv += ["--meta", str(tmp_path / "metas.csv")]
        assert self.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"reviewpipe {command}: error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--input", "{missing}", "--out", "{out}"],
            ["dequantize", "--input", "{missing}", "--out", "{out}"],
            ["assign", "--similarities", "{missing}", "--out", "{out}"],
            ["validate", "--input", "{reviews}", "--out", "{out}", "--config", "{missing}"],
        ],
        ids=["validate-input", "dequantize-input", "assign-similarities", "config"],
    )
    def test_missing_file_is_a_one_line_error(self, tmp_path, rng, capsys, argv):
        rpath, _ = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        missing, out = tmp_path / "nonexistent.csv", tmp_path / "o"
        argv = [a.format(missing=missing, out=out, reviews=rpath) for a in argv]
        assert self.run(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"reviewpipe {argv[0]}: error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and str(missing) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_dequantize_command(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        code = self.run(
            ["dequantize", "--input", str(rpath), "--lambda", "1.5", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        lines = (tmp_path / "o" / "dequantized.csv").read_text().splitlines()
        assert lines[0] == "paper_id,reviewer_id,s,s_dq"
        for line in lines[1:]:
            _, _, s, s_dq = line.split(",")
            assert abs(float(s) - float(s_dq)) <= 0.25 + 1e-12

    def test_dequantize_reports_rejected_rows(self, tmp_path, capsys):
        rpath = tmp_path / "reviews.csv"
        rpath.write_text(
            "paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n"
            "P1,R1,Accept,Good,Good,Good,Good\n"
            "P1,R2,Maybe,Good,Good,Good,Good\n"
            "P1,R1,Reject,Good,Good,Good,Good\n"
        )
        out = tmp_path / "o"
        argv = ["dequantize", "--input", str(rpath), "--lambda", "1.5", "--out", str(out)]
        assert self.run(argv) == 0
        assert capsys.readouterr().out == (
            f"dequantized 1 reviews, 2 rows rejected (lambda=1.5) -> {out}\n"
        )
        assert len((out / "dequantized.csv").read_text().splitlines()) == 2
        rejected = json.loads((out / "validation.json").read_text())["rejected"]
        assert [r["reason"] for r in rejected] == [
            "unknown label 'Maybe' for scale 'recommendation'",
            DUPLICATE_PAIR,
        ]

    def test_dequantize_skips_papers_only_meta_reviewed(self, tmp_path):
        """A JSON export's meta-reviews may name papers no review names
        (here A, C and E, around and between the reviewed B and D): the
        command dequantizes the reviewed papers alone, counts all five and
        names the other three as below the review floor, with 0 reviews."""
        def review(paper, reviewer, rec, crit="Good", conf="Good"):
            return dict(paper_id=paper, reviewer_id=reviewer, recommendation=rec, c1=crit,
                        c2=crit, c3="Fair", c4=crit, confidence=conf)

        payload = {
            "reviews": [
                review("D", "R2", "Weak Reject"),
                review("B", "R1", "Accept", "Very good"),
                review("B", "R3", "Weak Accept", conf="Excellent"),
                review("D", "R1", "Borderline", "Fair"),
                review("B", "R2", "Borderline"),
            ],
            "meta_reviews": [
                {"paper_id": p, "metareviewer_id": "M1", "recommendation": "Accept"} for p in "ABCDE"
            ],
        }
        path, out = tmp_path / "export.json", tmp_path / "o"
        path.write_text(json.dumps(payload))
        assert self.run(["dequantize", "--input", str(path), "--format", "json", "--out", str(out)]) == 0
        assert (out / "dequantized.csv").read_text() == (
            "paper_id,reviewer_id,s,s_dq\n"
            "B,R1,3.0,2.75\n"
            "B,R2,-0.5,-0.25\n"
            "B,R3,0.5,0.6875\n"
            "D,R1,-2.0,-1.9166666666666667\n"
            "D,R2,-1.5,-1.5833333333333333\n"
        )
        report = json.loads((out / "validation.json").read_text())
        assert (report["papers"], report["reviews"], report["metareviews"]) == (5, 5, 5)
        assert report["reviews_per_paper_histogram"] == {"0": 3, "2": 1, "3": 1}
        assert report["findings"] == [
            ["below minimum reviews", f"paper {p} has 0 review(s)"] for p in "ACE"
        ]
        assert report["rejected"] == []

    def test_validate_names_papers_only_meta_reviewed(self, tmp_path, capsys):
        """A meta-review of a paper no review names is reported by
        ``validate``, as ``pipeline`` refuses the same export at 'score'."""
        rpath, mpath = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        rpath.write_text(
            "paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n"
            + "".join(f"{p},{r},Accept,Good,Good,Good,Good\n" for p in "AB" for r in ("R1", "R2"))
        )
        mpath.write_text(
            "paper_id,metareviewer_id,recommendation\n" + "".join(f"{p},M1,Accept\n" for p in "ABC")
        )
        argv = ["--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run(["validate", *argv]) == 0
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert report["findings"] == [["below minimum reviews", "paper C has 0 review(s)"]]
        capsys.readouterr()
        assert self.run(["pipeline", *argv, "--no-calibrate"]) == 2
        assert capsys.readouterr().err == (
            "reviewpipe pipeline: error: stage 'score' failed:"
            " meta-reviews for unreviewed papers: ['C']\n"
        )

    def test_inputs_with_a_byte_order_mark_read_as_without(self, tmp_path, rng):
        """Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark:
        exports, assign inputs and config files read the same with one."""
        _, _, reviews, metas = random_corpus(rng, 10, 8)
        texts = {
            "reviews.csv": export_reviews_csv(reviews),
            "metas.csv": export_metas_csv(metas),
            "export.json": export_json(reviews, metas),
            "sim.csv": "reviewer_id,paper_id,bid,subject_relevance,tpms\n"
            + "".join(f"R{r},P{p},0.5,0.8,\n" for r in range(4) for p in range(2)),
            "tags.csv": "reviewer_id,tag\nR0,Rev1\n",
            "conflicts.csv": "reviewer_id,paper_id\nR1,P0\n",
            "run.cfg": "calibrate = false\nacceptance_rate = 50\n",
        }
        results = []
        for bom in ("", "\ufeff"):
            d = tmp_path / f"bom{len(bom)}"
            d.mkdir()
            for name, text in texts.items():
                (d / name).write_text(bom + text, encoding="utf-8")
            f = {name: str(d / name) for name in texts}
            runs = {
                "csv": ["validate", "--input", f["reviews.csv"], "--meta", f["metas.csv"]],
                "json": ["validate", "--format", "json", "--input", f["export.json"]],
                "config": ["pipeline", "--input", f["reviews.csv"], "--meta", f["metas.csv"],
                           "--config", f["run.cfg"]],
                "assign": ["assign", "--similarities", f["sim.csv"], "--tags", f["tags.csv"],
                           "--conflicts", f["conflicts.csv"], "--min-reviewers", "2",
                           "--max-papers", "2"],
            }
            for out, argv in runs.items():
                assert self.run([*argv, "--out", str(d / out)]) == 0, (bom, out)
            results.append(
                {a.relative_to(d): a.read_bytes() for out in runs for a in (d / out).iterdir()}
            )
        assert results[0] == results[1]
        decisions = (tmp_path / "bom1" / "config" / "decisions.csv").read_text()
        assert decisions.count(",accept") == 5  # the config's 50%, not the default 40%

    @pytest.mark.parametrize(
        "command, name, data, message",
        [
            ("pipeline", "r.json", b'{"reviews": [', "Expecting value: line 1 column 14"),
            ("validate", "r.csv", "paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n"
             "P1,Ren\xe9,Accept,Good,Good,Good,Good\n".encode("latin-1"),
             "'utf-8' codec can't decode byte 0xe9"),
            ("assign", "sim.csv", "reviewer_id,paper_id,bid,subject_relevance\n"
             "Ren\xe9,P0,0.5,0.8\n".encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
            ("config", "run.cfg", "# r\xe9glages\n".encode("latin-1"),
             "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["json-export", "csv-export", "assign-input", "config"],
    )
    def test_decode_errors_name_the_file(self, tmp_path, rng, capsys, command, name, data, message):
        rpath, _ = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        bad = tmp_path / name
        bad.write_bytes(data)
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "pipeline": ["pipeline", "--format", "json", "--input", str(bad), *out],
            "validate": ["validate", "--input", str(bad), *out],
            "assign": ["assign", "--similarities", str(bad), *out],
            "config": ["validate", "--input", str(rpath), "--config", str(bad), *out],
        }[command]
        assert self.run(argv) == 2
        err = capsys.readouterr().err
        assert f": {bad}: {message}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "dequantize", "assign", "pipeline"])
    def test_a_field_longer_than_csv_reads_names_the_file(self, tmp_path, capsys, command):
        """A 200,000-character comment, or a 140,000-character tpms field,
        ends the command with one line naming the file and the line."""
        if command == "assign":
            bad = tmp_path / "sim.csv"
            bad.write_text(f"reviewer_id,paper_id,bid,subject_relevance,tpms\nR1,P1,0.5,0.8,"
                           f"{'0' * 140_000}\n")
            argv = ["assign", "--similarities", str(bad)]
        else:
            bad = tmp_path / "r.csv"
            bad.write_text("paper_id,reviewer_id,recommendation,c1,c2,c3,c4,comments\n"
                           f"P1,R1,Accept,Good,Good,Good,Good,{'x' * 200_000}\n")
            argv = [command, "--input", str(bad)]
        assert self.run([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        limit = csv.field_size_limit()
        assert f": {bad}: line 2: field larger than field limit ({limit})\n" in err
        assert err.count("\n") == 1

    def test_missing_meta_review_only_when_metas_read(self, tmp_path, capsys):
        rpath = tmp_path / "reviews.csv"
        rpath.write_text(
            "paper_id,reviewer_id,recommendation,c1,c2,c3,c4\n"
            "P1,R1,Accept,Good,Good,Good,Good\n"
            "P1,R2,Accept,Good,Good,Good,Good\n"
            "P2,R1,Reject,Good,Good,Good,Good\n"
            "P2,R2,Reject,Good,Good,Good,Good\n"
        )
        mpath = tmp_path / "metas.csv"
        mpath.write_text("paper_id,metareviewer_id,recommendation\nP2,M1,Reject\n")
        jpath = tmp_path / "reviews.json"
        with open(rpath, newline="") as fh:
            jpath.write_text(json.dumps({"reviews": list(csv.DictReader(fh)), "meta_reviews": []}))

        def findings(*argv):
            out = tmp_path / "o"
            assert self.run([*argv, "--out", str(out)]) == 0
            capsys.readouterr()
            return json.loads((out / "validation.json").read_text())["findings"]

        assert findings("dequantize", "--input", str(rpath)) == []
        assert findings("validate", "--input", str(rpath)) == []
        missing = [["missing meta-review", "paper P1"]]
        assert findings("validate", "--input", str(rpath), "--meta", str(mpath)) == missing
        assert findings("validate", "--input", str(jpath), "--format", "json") == [
            ["missing meta-review", "paper P1"], ["missing meta-review", "paper P2"]
        ]

    def test_assign_command(self, tmp_path):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        for r in range(8):
            for p in range(2):
                rows.append(f"R{r},P{p},0.5,0.8,")
        sim.write_text("\n".join(rows) + "\n")
        code = self.run(
            [
                "assign",
                "--similarities", str(sim),
                "--min-reviewers", "4",
                "--max-papers", "1",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        audit = json.loads((tmp_path / "o" / "assignment_audit.json").read_text())
        assert audit["feasible"] is True

    def test_assign_rejects_repeated_similarity_rows(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        rows += [f"R{r},P0,0.5,0.8," for r in range(4)]
        rows += ["R2,P0,0.9,0.9,", "R0,P0,0.1,0.1,", "R2,P0,0.2,0.2,"]
        sim.write_text("\n".join(rows) + "\n")
        argv = ["assign", "--similarities", str(sim), "--min-reviewers", "2",
                "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("reviewpipe assign: error: ")
        assert err.endswith("repeated (reviewer, paper) rows: (R0, P0), (R2, P0)\n")
        assert not (tmp_path / "o").exists()

    def test_assign_rejects_repeated_tag_rows(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        rows += [f"R{r},P0,0.5,0.8," for r in range(4)]
        sim.write_text("\n".join(rows) + "\n")
        tags = tmp_path / "tags.csv"
        tags.write_text("reviewer_id,tag\nR1,Rev2\nR3,Rev1\nR1,Rev1\nR0,Rev2\nR3,Rev1\n")
        argv = ["assign", "--similarities", str(sim), "--tags", str(tags),
                "--min-reviewers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err.endswith("repeated reviewer rows: R1, R3\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("similarities", "reviewer_id,paper_id,subject_relevance\nR0,P0,0.8\n",
             "missing column(s) ['bid']"),
            ("similarities", "reviewer_id,paper_id,bid,subject_relevance,tpms\nR0,P0,0.5\n",
             "missing required field 'subject_relevance'"),
            ("similarities", "reviewer_id,paper_id,bid,subject_relevance,score\nR0,P0,0.5,0.8,1\n",
             "unknown column(s) ['score']"),
            ("similarities", "reviewer_id,paper_id,bid,subject_relevance\nR0,P0,0.5,0.8,0.1\n",
             "row has 5 fields, header has 4"),
            ("tags", "reviewer_id\nR0\n", "missing column(s) ['tag']"),
            ("tags", "reviewer_id,tag\nR0\n", "missing required field 'tag'"),
            ("conflicts", "reviewer_id,paper_id,note\nR0,P0,x\n", "unknown column(s) ['note']"),
            ("conflicts", "reviewer_id,paper_id\nR0,\n", "missing required field 'paper_id'"),
        ],
        ids=[
            "similarities-missing-column", "similarities-short-row", "similarities-unknown-column",
            "similarities-long-row", "tags-missing-column", "tags-short-row",
            "conflicts-unknown-column", "conflicts-short-row",
        ],
    )
    def test_assign_bad_input_is_a_one_line_error(self, tmp_path, capsys, flag, text, message):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        rows += [f"R{r},P0,0.5,0.8," for r in range(4)]
        sim.write_text("\n".join(rows) + "\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        inputs = {"similarities": sim, flag: bad}
        argv = ["assign", "--min-reviewers", "2", "--out", str(tmp_path / "o")]
        for name, path in inputs.items():
            argv += [f"--{name}", str(path)]
        assert self.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"reviewpipe assign: error: {bad}: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_assign_repeated_conflict_rows_are_harmless(self, tmp_path):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance"]
        rows += [f"R{r},P0,0.5,0.8" for r in range(4)]
        sim.write_text("\n".join(rows) + "\n")
        conflicts = tmp_path / "conflicts.csv"
        conflicts.write_text("reviewer_id,paper_id\nR1,P0\nR1,P0\n")
        argv = ["assign", "--similarities", str(sim), "--conflicts", str(conflicts),
                "--min-reviewers", "3", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        lines = (tmp_path / "o" / "assignment.csv").read_text().splitlines()
        assert lines == ["reviewer_id,paper_id", "R0,P0", "R2,P0", "R3,P0"]

    def test_assign_strips_fields(self, tmp_path):
        # with the tags read verbatim, neither R0 nor R1 was an author-reviewer,
        # and both went on P0 while the audit reported lone-wolf "pass"
        sim = tmp_path / "sim.csv"
        sim.write_text("reviewer_id,paper_id,bid,subject_relevance\n"
                       "R0,P0,0.9,0.9\n R1 ,P0 , 0.8,0.8\nR2,P0,0.1,0.1\n")
        tags = tmp_path / "tags.csv"
        tags.write_text("reviewer_id,tag\nR0 ,Rev2\nR1,Rev2 \n")
        argv = ["assign", "--similarities", str(sim), "--tags", str(tags),
                "--min-reviewers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        lines = (tmp_path / "o" / "assignment.csv").read_text().splitlines()
        assert lines == ["reviewer_id,paper_id", "R0,P0", "R2,P0"]
        audit = json.loads((tmp_path / "o" / "assignment_audit.json").read_text())
        assert audit["constraints"]["lone-wolf mitigation"]["pass"] is True

    def test_assign_tag_other_than_rev1_or_rev2_is_a_one_line_error(self, tmp_path, capsys):
        # a tag the assignment does not know would lift the author-reviewer
        # cap for that reviewer without a word
        sim = tmp_path / "sim.csv"
        sim.write_text("reviewer_id,paper_id,bid,subject_relevance\n"
                       "R0,P0,0.9,0.9\nR1,P0,0.8,0.8\nR2,P0,0.1,0.1\n")
        tags = tmp_path / "tags.csv"
        tags.write_text("reviewer_id,tag\nR0,Rev9\nR1,Rev1\nR2,rev2\n")
        argv = ["assign", "--similarities", str(sim), "--tags", str(tags),
                "--min-reviewers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err == (
            f"reviewpipe assign: error: {tags}: tag other than Rev1 or Rev2 for "
            "R0 ('Rev9'), R2 ('rev2')\n"
        )
        assert not (tmp_path / "o").exists()

    def test_assign_tag_for_absent_reviewer_is_a_one_line_error(self, tmp_path, capsys):
        # a tag for an id the similarities lack, a typo included, is no silent no-op
        sim = tmp_path / "sim.csv"
        sim.write_text("reviewer_id,paper_id,bid,subject_relevance\n"
                       "R0,P0,0.9,0.9\nR1,P0,0.8,0.8\nR2,P0,0.1,0.1\n")
        tags = tmp_path / "tags.csv"
        tags.write_text("reviewer_id,tag\nR9,Rev2\nR1,Rev1\nP0,Rev2\n")
        argv = ["assign", "--similarities", str(sim), "--tags", str(tags),
                "--min-reviewers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err == (
            f"reviewpipe assign: error: {tags}: tag for a reviewer absent from {sim}: R9, P0\n"
        )
        assert not (tmp_path / "o").exists()

    def test_assign_conflict_with_absent_reviewer_or_paper_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        sim = tmp_path / "sim.csv"
        sim.write_text("reviewer_id,paper_id,bid,subject_relevance\n"
                       "R0,P0,0.9,0.9\nR1,P0,0.8,0.8\nR2,P1,0.1,0.1\n")
        conflicts = tmp_path / "conflicts.csv"
        # (R1, P1) is no candidate pair, but both ids are known: harmless
        conflicts.write_text("reviewer_id,paper_id\nR1,P1\nR9,P0\nR0,P7\nP0,R0\n")
        argv = ["assign", "--similarities", str(sim), "--conflicts", str(conflicts),
                "--min-reviewers", "1", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err == (
            f"reviewpipe assign: error: {conflicts}: conflict with a reviewer or paper "
            f"absent from {sim}: (R9, P0), (R0, P7), (P0, R0)\n"
        )
        assert not (tmp_path / "o").exists()
        conflicts.write_text("reviewer_id,paper_id\nR1,P1\n")
        assert self.run(argv) == 0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("R1,P0,x,0.8,0.1", "bid 'x' of (R1, P0) is not a number"),
            ("R1,P0,0.5,high,0.1", "subject_relevance 'high' of (R1, P0) is not a number"),
            ("R1,P0,0.5,0.8,n/a", "tpms 'n/a' of (R1, P0) is not a number"),
            ("R1,P0,1.5,0.8,0.1", "bid similarity 1.5 outside [0, 1] in row (R1, P0)"),
            ("R1,P0,0.5,-0.1,0.1",
             "subject_relevance similarity -0.1 outside [0, 1] in row (R1, P0)"),
            ("R1,P0,0.5,0.8,nan", "tpms similarity nan outside [0, 1] in row (R1, P0)"),
        ],
    )
    def test_assign_non_numeric_similarity_is_a_one_line_error(
        self, tmp_path, capsys, row, message
    ):
        sim = tmp_path / "sim.csv"
        sim.write_text(f"reviewer_id,paper_id,bid,subject_relevance,tpms\nR0,P0,0.5,0.8,\n{row}\n")
        argv = ["assign", "--similarities", str(sim), "--min-reviewers", "2",
                "--out", str(tmp_path / "o")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err == f"reviewpipe assign: error: {sim}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_assign_quotes_ids_with_commas(self, tmp_path):
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        rows += [f'"R,{r}","P,{p}",0.5,0.8,' for r in range(2) for p in range(2)]
        sim.write_text("\n".join(rows) + "\n")
        argv = ["assign", "--similarities", str(sim), "--min-reviewers", "2",
                "--max-papers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        with open(tmp_path / "o" / "assignment.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert got == [["reviewer_id", "paper_id"]] + [
            [f"R,{r}", f"P,{p}"] for r in range(2) for p in range(2)
        ]

    def test_assign_quotes_ids_with_a_lone_cr(self, tmp_path):
        """A reviewer id holding a lone CR is one quoted field of
        assignment.csv, which csv.reader reads back to the same pairs."""
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        rows += [f'"R\r{r}",P{p},0.5,0.8,' for r in range(2) for p in range(2)]
        sim.write_text("\n".join(rows) + "\n", newline="")
        argv = ["assign", "--similarities", str(sim), "--min-reviewers", "2",
                "--max-papers", "2", "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        with open(tmp_path / "o" / "assignment.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert got == [["reviewer_id", "paper_id"]] + [
            [f"R\r{r}", f"P{p}"] for r in range(2) for p in range(2)
        ]

    def test_pipeline_rejects_an_id_holding_a_lone_surrogate(self, tmp_path, rng):
        """A JSON export's paper id written with a lone surrogate escape is
        a rejected row, and every report is written without it."""
        _, _, reviews, metas = random_corpus(rng, 8, 6)
        reviews[0] = replace(reviews[0], paper="P\ud8002")
        path = tmp_path / "reviews.json"
        path.write_text(export_json(reviews, metas), encoding="utf-8")
        assert "\\ud800" in path.read_text(encoding="utf-8")
        argv = ["pipeline", "--input", str(path), "--format", "json", "--no-calibrate",
                "--out", str(tmp_path / "o")]
        assert self.run(argv) == 0
        validation = json.loads((tmp_path / "o" / "validation.json").read_text(encoding="utf-8"))
        assert [r["reason"] for r in validation["rejected"]] == [
            "paper_id 'P\\ud8002' holds a lone surrogate"
        ]
        decisions = (tmp_path / "o" / "decisions.csv").read_text(encoding="utf-8")
        assert decisions.count("\n") == 9

    def test_dequantize_quotes_ids_with_commas(self, tmp_path, rng):
        _, _, reviews, _ = random_corpus(rng, 6, 5)
        reviews = [replace(f, paper=f"P,{f.paper}", reviewer=f'R"{f.reviewer}') for f in reviews]
        rpath = tmp_path / "reviews.csv"
        rpath.write_text(export_reviews_csv(reviews), encoding="utf-8")
        code = self.run(["dequantize", "--input", str(rpath), "--out", str(tmp_path / "o")])
        assert code == 0
        with open(tmp_path / "o" / "dequantized.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["paper_id", "reviewer_id", "s", "s_dq"]
        assert all(len(row) == 4 for row in got)
        assert sorted((p, r) for p, r, _, _ in got[1:]) == sorted(
            (f.paper, f.reviewer) for f in reviews
        )

    def test_assign_reruns_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        sim = tmp_path / "sim.csv"
        rows = ["reviewer_id,paper_id,bid,subject_relevance,tpms"]
        for r in range(30):
            for p in range(12):
                bid, subject, tpms = rng.uniform(size=3).tolist()
                rows.append(f"R{r:02d},P{p:02d},{bid!r},{subject!r},{tpms!r}")
        sim.write_text("\n".join(rows) + "\n")
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"o{hash_seed}"
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
            )
            proc = subprocess.run(
                [sys.executable, "-m", "reviewpipe.cli", "assign", "--similarities", str(sim),
                 "--max-papers", "2", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_config_file_overrides_flags(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        # a '#' inside a value is kept; one after whitespace starts a comment
        config.write_text(
            f"# settings\n\nout = {tmp_path / 'results#2'}\n"
            "  # indented\nacceptance_rate = 50  # half\n"
        )
        code = self.run(
            [
                "pipeline",
                "--no-calibrate",
                "--input", str(rpath),
                "--meta", str(mpath),
                "--out", str(tmp_path / "ignored"),
                "--config", str(config),
            ]
        )
        assert code == 0
        decisions = (tmp_path / "results#2" / "decisions.csv").read_text()
        assert decisions.count(",accept") == 5  # 50% of 10 papers, not the default 40%
        assert not (tmp_path / "results").exists() and not (tmp_path / "ignored").exists()


    @pytest.mark.parametrize(
        "command, line",
        [
            ("dequantize", "meta = /nonexistent/metas.csv"),
            ("dequantize", "seed = 3"),
            ("dequantize", "dequantize = yes"),
            ("validate", "samples = 10"),
        ],
    )
    def test_config_keys_the_command_does_not_read_are_errors(
        self, tmp_path, rng, capsys, command, line
    ):
        rpath, _ = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text(f"lambda = 1.5\n{line}\n" if command == "dequantize" else f"{line}\n")
        out = tmp_path / "o"
        code = self.run([command, "--input", str(rpath), "--out", str(out), "--config", str(config)])
        key = line.split(" = ")[0]
        assert code == 2
        assert f"{command} has no option {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_an_error(self, tmp_path, rng, capsys):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text("seeds = 3\n")
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(tmp_path / "o")]
        assert self.run([*argv, "--config", str(config)]) == 2
        assert "run.cfg:1: pipeline has no option 'seeds'" in capsys.readouterr().err

    def test_config_calibrate_false_skips_calibration(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text("calibrate = false\n")
        out = tmp_path / "o"
        code = self.run(
            [
                "pipeline",
                "--input", str(rpath),
                "--meta", str(mpath),
                "--out", str(out),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert (out / "decisions.csv").exists()
        assert not (out / "decisions_calibrated.csv").exists()
        assert not (out / "calibration_fit.json").exists()

    def test_config_false_overrides_a_boolean_flag(self, tmp_path, rng):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text("dequantize = false\ncalibrate = OFF\n")
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath)]
        tables = {}
        for name, extra in [
            ("file", ["--dequantize", "--calibrate", "--config", str(config)]),
            ("flag", ["--no-calibrate"]),
            ("dequantized", ["--dequantize", "--no-calibrate"]),
        ]:
            out = tmp_path / name
            assert self.run([*argv, "--out", str(out), *extra]) == 0
            assert not (out / "decisions_calibrated.csv").exists()
            tables[name] = (out / "score_table.csv").read_bytes()
        assert tables["file"] == tables["flag"] != tables["dequantized"]

    def test_no_dequantize_is_a_second_spelling(self):
        from reviewpipe.cli import build_parser

        argv = ["pipeline", "--input", "r.csv"]
        parse = build_parser().parse_args
        assert parse(argv).dequantize is False
        assert parse([*argv, "--no-dequantize"]) == parse(argv)
        assert parse([*argv, "--no-dequantize", "--dequantize"]).dequantize is True
        assert parse([*argv, "--dequantize", "--no-dequantize"]) == parse(argv)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("calibrate = ture", "run.cfg:1: calibrate must be 1/0, true/false, yes/no or on/off, "
                                 "got 'ture'"),
            ("dequantize =", "run.cfg:1: dequantize must be 1/0, true/false, yes/no or on/off"),
            ("config = other.cfg", "run.cfg:1: pipeline has no option 'config'"),
            ("command = validate", "run.cfg:1: pipeline has no option 'command'"),
            ("sample = 10", "run.cfg:1: pipeline has no option 'sample'"),
            ("grid-min = 0.1", "run.cfg:1: pipeline has no option 'grid-min'"),
            ("lam = 0.5", "run.cfg:1: pipeline has no option 'lam'"),
            ("seed 3", "run.cfg:1: expected 'key = value', got 'seed 3'"),
            # the last line used to win silently: 6 of 10 papers accepted, exit 0
            ("acceptance_rate = 30\n# later\nacceptance_rate = 60",
             "run.cfg:3: acceptance_rate set twice, first on line 1"),
            ("calibrate = on\ncalibrate = off", "run.cfg:2: calibrate set twice, first on line 1"),
        ],
    )
    def test_bad_config_line_names_file_and_line(self, tmp_path, rng, capsys, line, message):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        out = tmp_path / "o"
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(out)]
        assert self.run([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"reviewpipe pipeline: error: {config}") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("seed", "1.5", "argument --seed: invalid int value: '1.5'"),
            ("samples", "many", "argument --samples: invalid int value: 'many'"),
            ("lambda", "x", "argument --lambda: invalid float value: 'x'"),
            ("format", "xml", "argument --format: invalid choice: 'xml'"),
        ],
    )
    def test_config_values_are_checked_as_flags_are(
        self, tmp_path, rng, capsys, flag, value, message
    ):
        rpath, mpath = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = {value}\n")
        out = tmp_path / "o"
        argv = ["pipeline", "--input", str(rpath), "--meta", str(mpath), "--out", str(out)]
        errors = []
        for extra in ([f"--{flag}", value], ["--config", str(config)]):
            with pytest.raises(SystemExit) as exc:
                self.run([*argv, *extra])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert errors[0].startswith("reviewpipe pipeline: error: ") and message in errors[0]
        assert not out.exists()

    def test_parsed_defaults_are_the_dataclass_defaults(self, monkeypatch):
        import reviewpipe.cli
        from reviewpipe.assignment import AssignmentConstraints
        from reviewpipe.dequant import DequantConfig

        seen = []

        def stop(cfg):
            seen.append(cfg)
            raise ValueError("stop")

        monkeypatch.setattr(reviewpipe.cli, "run_pipeline", stop)
        assert self.run(["pipeline", "--input", "r.csv"]) == 2
        # the CLI calibrates by default; the dataclass does not
        assert seen == [replace(PipelineConfig(reviews_path="r.csv"), calibrate=True)]
        parser = reviewpipe.cli.build_parser()
        args = parser.parse_args(["dequantize", "--input", "r.csv"])
        assert getattr(args, "lambda") == DequantConfig().lam
        args = parser.parse_args(["assign", "--similarities", "s.csv"])
        caps = AssignmentConstraints()
        assert (args.min_reviewers, args.max_papers) == (
            caps.min_reviewers_per_paper, caps.max_papers_per_reviewer,
        )

    @pytest.mark.parametrize("command", ["pipeline", "dequantize"])
    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_lambda_rejected(self, tmp_path, rng, capsys, command, lam):
        rpath, _ = write_corpus(tmp_path, rng, n_papers=10, n_reviewers=8)
        out = tmp_path / "o"
        argv = [command, "--input", str(rpath), "--out", str(out), f"--lambda={lam}"]
        if command == "pipeline":
            argv += ["--dequantize", "--no-calibrate"]
        assert self.run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"reviewpipe {command}: error: lambda must be finite and nonnegative, " \
                      f"got {float(lam)!r}\n"
        assert not out.exists()


def test_gray_area_report_serialization():
    report = GrayAreaReport(agree_accept=["A"], agree_reject=["B"], disagree=["C"])
    payload = report.to_dict()
    assert payload["counts"] == {"agree-accept": 1, "agree-reject": 1, "disagree": 1}


# A small export with every kind of row the readers handle: a reordered
# header without the award and comments columns, ids quoted for their
# commas and padded with spaces, a blank confidence, a blank line, a short
# row, an overlong row, a row whose extra fields are empty, unknown labels
# and repeated pairs.
MESSY_REVIEWS = """\
reviewer_id,c2,paper_id,recommendation,c1,confidence,c4,c3
R1,Good,P1,Accept,Very good,Good,Good,Fair
R2,Fair,P1,Weak Accept,Good,,Good,Good
R3,Excellent,P1,reject,Poor,very  GOOD,Fair,Poor
"R,4",Good,"P,2",Strong Accept,Excellent,Excellent,Very good,Good
R1,Poor,"P,2",Borderline,Fair,Fair,Poor,Fair
R2,Good,"P,2",Maybe,Good,Good,Good,Good

R1,Good,P3,Weak Reject,Fair,Good,Good
R2,Very good,P3,Accept,Good,Poor,Excellent,Good
R3,Good,P3,Borderline,Good,Good,Good,Good,extra
R3,Good,P3,Weak Accept,Good,Good,Good,Good,,
R2,Very good,P3,Reject,Good,Good,Good,Good
 R4 ,Good,P4,Accept,Good,Excellent,Good,Good
R1,Excellent,P4,Strong Accept,Excellent,Good,Very good,Excellent
"R,4",Fair,P5,Weak Reject,Fair,Poor,Fair,Poor
"""
MESSY_METAS = """\
recommendation,paper_id,metareviewer_id
Accept,P1,M1
Weak Reject,"P,2",M1
Borderline,P3,M2
Strong Accept,P4,M2
Bogus,P4,M1
Reject,P5,M1
Accept,P1,M1
"""


def _json_twin(text: str) -> list[dict]:
    """The CSV rows as JSON objects: blank lines and fields beyond the
    header dropped, fields a short row lacks absent."""
    header, *rows = csv.reader(text.splitlines())
    return [dict(zip(header, row)) for row in rows if row]


def _messy_artifacts(tmp_path, format, dequantize) -> dict[str, str]:
    if format == "csv":
        reviews, metas = tmp_path / "reviews.csv", tmp_path / "metas.csv"
        reviews.write_text(MESSY_REVIEWS, encoding="utf-8")
        metas.write_text(MESSY_METAS, encoding="utf-8")
    else:
        reviews, metas = tmp_path / "reviews.json", None
        payload = {"reviews": _json_twin(MESSY_REVIEWS), "meta_reviews": _json_twin(MESSY_METAS)}
        reviews.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    cfg = PipelineConfig(
        reviews_path=str(reviews),
        meta_path=metas and str(metas),
        format=format,
        out_dir=str(out),
        dequantize=dequantize,
        calibrate=False,
    )
    run_pipeline(cfg)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# sha256 of each artifact, recorded before the readers and writers were
# rewritten for speed: the rewrite must not move a byte
VALIDATION = {
    "csv": "1c706cf10e6acbb9981fcacaad28785b115759d0c0aab1937599e7aae28715df",
    "json": "c33f3f9e252cc5a9fd5d947ed1d269a23da5bb1386dd2c4c01109b0e077667cb",
}
GRAY = "7c3d2982dfd55910dd8a431d74ceeb34243f5f981ac5db463c6197c012d27a8b"
MESSY_SHA256 = {
    ("csv", False): (
        "0c07ab34ed9c3de51c4b3554513e133eb177cce5cd236d650ac4d58368ad1682",
        "8c6c58bd24e215a3af52c36fc6c36415f11df71c0b9a42a54f3df7c6e40e448e",
        "3aaa35f14ae6a85320ff5ebdfc7efaeea64b510d2c9e41e92db851b0abf66cd6",
    ),
    ("csv", True): (
        "4f92c20e2f67355c15fd6defc17827053a4a367a11b360b0016c13b6e2d6364e",
        "0aae99dfbc1db61092a5512fe25cc3292b3659b03041ea816f1e7631bf0727c8",
        "2bad38bf4fbda33885f6e345878f06827234819b0e1f6c6ea142e3f863716c12",
    ),
    ("json", False): (
        "53bc7d65767c9791615a1dbd9dc307eda36c970a9b81700af6d1bcce4abd068c",
        "4a2ca2f94a65bcf9129278270f89f857e4a09360088be9036907d6abe904cfc6",
        "a1ffa1be847b37327b5ee8fb8d59e5718775c16f605de21d12abaf697f41d7c7",
    ),
    ("json", True): (
        "28d4e05299cc7a5d26d89c66ecfb94217829a12ce6809cd39ce3f083641e306e",
        "2e1bff4c2279dd64063ee7e0c6d2d43a332b6c6846789e12a614808113ad0bf1",
        "e4475e1a1bdbeac3d2757b7c3e4884d816d098fb8e353fbddda4d183e32fe3ce",
    ),
}


@pytest.mark.parametrize("format, dequantize", list(MESSY_SHA256))
def test_messy_export_artifacts_are_pinned(tmp_path, format, dequantize):
    decisions, table_csv, table_json = MESSY_SHA256[format, dequantize]
    assert _messy_artifacts(tmp_path, format, dequantize) == {
        "decisions.csv": decisions,
        "gray_area.json": GRAY,
        "score_table.csv": table_csv,
        "score_table.json": table_json,
        "validation.json": VALIDATION[format],
    }
