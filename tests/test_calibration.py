import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kendalltau

import reviewpipe.calibration

from reviewpipe.calibration import (
    AcceptanceEstimate,
    CalibrationInputs,
    DegenerateModelError,
    GridSpec,
    Hyperparams,
    PosteriorCovariance,
    UnidentifiableModelWarning,
    acceptance_probability,
    bias_identifiable,
    build_covariance,
    calibrate,
    fit_hyperparams,
    fit_sigma_q,
    nll,
    posterior,
)
from reviewpipe.scoring import DecisionConfig

from conftest import planted_instance, random_labels


class TestCovariance:
    def test_single_entry(self):
        k = build_covariance([0], [0], 0.7, 0.4)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(1 + 0.7 + 0.4)

    def test_same_paper_different_reviewers(self):
        k = build_covariance([0, 0], [0, 1], 0.7, 0.4)
        assert k[0, 1] == 1.0

    def test_same_reviewer_different_papers(self):
        k = build_covariance([0, 1], [0, 0], 0.7, 0.4)
        assert k[0, 1] == pytest.approx(0.7)

    def test_disjoint_entries(self):
        k = build_covariance([0, 1], [0, 1], 0.7, 0.4)
        assert k[0, 1] == 0.0

    def test_symmetric_with_dominant_diagonal(self, rng):
        pi, ri = random_labels(rng, 30, 12, 10)
        k = build_covariance(pi, ri, 0.5, 0.3)
        assert np.array_equal(k, k.T)
        for i in range(30):
            off = np.delete(k[i], i)
            assert k[i, i] > off.max()


class TestNLL:
    def test_scalar_reference(self):
        # one standard normal observation at its mean
        val = nll(np.array([0.0]), np.array([[1.0]]), 1.0, 0.0)
        assert val == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_identity_matrix_calculus_oracle(self, rng):
        # K = I: the NLL in sigma^2 is minimized at the sample second moment
        s = rng.normal(0, 2, 40)
        s -= s.mean()
        k = np.eye(40)
        best = fit_sigma_q(s, k, 0.0)
        assert best == pytest.approx(float(np.mean(s**2)), rel=1e-12)
        for factor in [0.5, 0.9, 1.1, 2.0]:
            assert nll(s, k, best, 0.0) < nll(s, k, best * factor, 0.0)

    def test_quadratic_term_homogeneity(self, rng):
        pi, ri = random_labels(rng, 20, 8, 6)
        k = build_covariance(pi, ri, 0.5, 0.5)
        s = rng.normal(1.0, 1.0, 20)
        mu = 1.0
        # scaling residuals by 2 and sigma_q^2 by 4 shifts only the log term
        a = nll(s, k, 1.0, mu)
        b = nll(mu + 2 * (s - mu), k, 4.0, mu)
        assert b - a == pytest.approx(0.5 * 20 * np.log(4.0), abs=1e-9)

    def test_non_pd_rejected(self):
        k = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DegenerateModelError):
            nll(np.zeros(2), k, 1.0, 0.0)

    def test_zero_sigma_q2_rejected(self):
        with pytest.raises(DegenerateModelError, match=r"sigma_q\^2 must be positive"):
            nll(np.array([1.0, -1.0]), np.eye(2), 0.0, 0.0)


class TestFitSigmaQ:
    def test_identity_reduction(self, rng):
        s = rng.normal(3.0, 1.5, 50)
        assert fit_sigma_q(s, np.eye(50), float(s.mean())) == pytest.approx(
            float(np.mean((s - s.mean()) ** 2)), rel=1e-12
        )

    def test_zero_residual_flagged(self):
        with pytest.raises(DegenerateModelError):
            fit_sigma_q(np.full(5, 2.0), np.eye(5), 2.0)

    def test_stationarity_on_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            pi, ri = random_labels(rng, n, max(3, n // 2), max(3, n // 2))
            k = build_covariance(pi, ri, float(rng.uniform(0.05, 2)), float(rng.uniform(0.05, 2)))
            s = rng.normal(0, 2, n)
            mu = float(s.mean())
            sq = fit_sigma_q(s, k, mu)
            eps = sq * 1e-5
            deriv = (nll(s, k, sq + eps, mu) - nll(s, k, sq - eps, mu)) / (2 * eps)
            scale = abs(nll(s, k, sq, mu)) / sq
            assert abs(deriv) / max(scale, 1.0) < 1e-6


class TestFitHyperparams:
    def test_no_bias_data_selects_small_bias_ratio(self, rng):
        inputs, _, _ = planted_instance(rng, 40, 12, bias_sd=0.0, noise_sd=2.0)
        grid = GridSpec(1e-2, 1e2, 7)
        hp = fit_hyperparams(inputs, grid)
        values = grid.values()
        assert hp.sb2_hat <= values[1]  # at or adjacent to the grid minimum

    def test_planted_bias_variance_recovered(self, rng):
        inputs, _, bias = planted_instance(rng, 120, 50, bias_sd=1.0, noise_sd=0.1)
        hp = fit_hyperparams(inputs, GridSpec(1e-2, 1e2, 13))
        planted_var = float(np.var(bias))
        assert planted_var / 3 <= hp.sigma_b2 <= planted_var * 3

    def test_duplicate_grid_points_harmless(self, rng):
        inputs, _, _ = planted_instance(rng, 20, 8)

        class DupGrid:
            def values(self):
                base = GridSpec(1e-1, 1e1, 5).values()
                return np.concatenate([base, base])

        a = fit_hyperparams(inputs, GridSpec(1e-1, 1e1, 5))
        b = fit_hyperparams(inputs, DupGrid())
        assert (a.sb2_hat, a.se2_hat, a.sigma_q2) == (b.sb2_hat, b.se2_hat, b.sigma_q2)

    def test_constant_scores_raise(self):
        inputs = CalibrationInputs([2.0] * 4, [0, 0, 1, 1], [0, 1, 0, 1], ["a", "b"], ["x", "y"])
        with pytest.raises(DegenerateModelError, match="every score equals 2.0"):
            fit_hyperparams(inputs, GridSpec(points=3))

    def test_mu_q_is_sample_mean(self, rng):
        inputs, _, _ = planted_instance(rng, 20, 8)
        hp = fit_hyperparams(inputs, GridSpec(points=3))
        assert hp.mu_q == float(np.mean(inputs.s))

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(sigma_q2=0.0, sb2_hat=1.0, se2_hat=1.0, mu_q=0.0)
        with pytest.raises(ValueError):
            Hyperparams(sigma_q2=1.0, sb2_hat=-0.1, se2_hat=1.0, mu_q=0.0)
        with pytest.raises(ValueError):
            Hyperparams(sigma_q2=1.0, sb2_hat=1.0, se2_hat=0.0, mu_q=0.0)


def degenerate_factors(monkeypatch, degenerate):
    """Make the likelihood's bordered factor raise DegenerateModelError on
    each call, counted from 1, for which ``degenerate(call)`` is true."""
    calls = itertools.count(1)

    class Bordered(reviewpipe.calibration._Bordered):
        def __init__(self, mat):
            if degenerate(next(calls)):
                raise DegenerateModelError("planted")
            super().__init__(mat)

    monkeypatch.setattr(reviewpipe.calibration, "_Bordered", Bordered)


class TestDegenerateEvaluations:
    def test_search_stops_at_a_degenerate_point_and_keeps_the_best(self, rng, monkeypatch):
        """The second evaluation, the search's first step from its start, is
        degenerate: the search stops once its first model's points are
        evaluated, not on its budget, at the least finite NLL among them."""
        inputs, _, _ = planted_instance(rng, 40, 12)
        whole = calibrate(inputs).summary
        degenerate_factors(monkeypatch, lambda call: call == 2)
        summary = calibrate(inputs).summary
        assert summary["stopped_on_budget"] is False
        # the start, two steps on each axis and the corner between them
        assert summary["evaluations"] == 6 < whole["evaluations"]
        assert len(summary["grid"]) == 5 and whole["grid"][0] == summary["grid"][0]
        best = min(summary["grid"], key=lambda row: row["nll"])
        assert summary["hyperparams"]["sigma_q2"] == best["sigma_q2"]
        assert summary["hyperparams"]["sigma_b2"] == best["sb2_hat"] * best["sigma_q2"]

    def test_every_point_degenerate_raises(self, rng, monkeypatch):
        inputs, _, _ = planted_instance(rng, 20, 8)
        degenerate_factors(monkeypatch, lambda call: True)
        with pytest.raises(DegenerateModelError, match="^all grid points degenerate$"):
            fit_hyperparams(inputs, GridSpec(points=3))


class TestGridSpec:
    @pytest.mark.parametrize(
        "lo, hi, points",
        [(-1.0, 1e2, 13), (0.0, 1e2, 13), (1e-2, 0.0, 13), (1e-2, np.inf, 13), (np.nan, 1e2, 13),
         (1e-2, 1e2, 0)],
    )
    def test_rejected_at_construction(self, lo, hi, points):
        with pytest.raises(ValueError):
            GridSpec(lo, hi, points)

    def test_descending_grid_allowed(self):
        assert GridSpec(1e2, 1e-2, 3).values().tolist() == pytest.approx([1e2, 1.0, 1e-2])


class TestPosterior:
    def test_zero_bias_identity(self):
        inputs = CalibrationInputs(
            s=np.array([1.0, 2.0, 3.0]),
            paper_idx=[0, 0, 1],
            reviewer_idx=[0, 1, 0],
            paper_ids=["a", "b"],
            reviewer_ids=["x", "y"],
        )
        hp = Hyperparams(sigma_q2=1.0, sb2_hat=1e-300, se2_hat=0.5, mu_q=2.0)
        mu_y, sigma_y = posterior(inputs, hp)
        assert np.max(np.abs(mu_y - inputs.s)) < 1e-9

    def test_matches_brute_force_dense_formulas(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            pi, ri = random_labels(rng, n, 3, 3)
            s = rng.normal(0, 2, n)
            inputs = CalibrationInputs(s, pi, ri, ["p0", "p1", "p2"], ["r0", "r1", "r2"])
            hp = Hyperparams(
                sigma_q2=float(rng.uniform(0.5, 2)),
                sb2_hat=float(rng.uniform(0.1, 2)),
                se2_hat=float(rng.uniform(0.1, 2)),
                mu_q=float(s.mean()),
            )
            mu_y, sigma_y = posterior(inputs, hp)
            sp = (pi[:, None] == pi[None, :]).astype(float)
            sr = (ri[:, None] == ri[None, :]).astype(float)
            k = hp.sigma_q2 * sp + hp.sigma_b2 * sr + hp.sigma_e2 * sp * sr
            ky = hp.sigma_q2 * sp + hp.sigma_e2 * sp * sr
            kinv = np.linalg.inv(k)
            assert np.allclose(mu_y, hp.mu_q + ky @ kinv @ (s - hp.mu_q), atol=1e-8)
            assert np.allclose(sigma_y, ky - ky @ kinv @ ky, atol=1e-8)
            w = np.linalg.eigvalsh(sigma_y)
            assert w.min() > -1e-8 * max(w.max(), 1.0)

    def test_biased_reviewer_pulled_toward_consensus(self, rng):
        # one reviewer shifted +2 across many papers, tiny noise
        inputs, quality, bias = planted_instance(rng, 60, 10, bias_sd=0.0, noise_sd=0.01)
        shift = 2.0
        s = inputs.s.copy()
        shifted = inputs.reviewer_idx == 0
        assert shifted.sum() > 3
        s[shifted] += shift
        inputs = CalibrationInputs(
            s, inputs.paper_idx, inputs.reviewer_idx, inputs.paper_ids, inputs.reviewer_ids
        )
        hp = fit_hyperparams(inputs, GridSpec(1e-2, 1e2, 9))
        mu_y, _ = posterior(inputs, hp)
        raw_err = np.abs(s - quality[inputs.paper_idx]).mean()
        cal_err = np.abs(mu_y - quality[inputs.paper_idx]).mean()
        assert cal_err < raw_err
        assert np.all(mu_y[shifted] < s[shifted])

    def test_residual_variance_shrinks(self, rng):
        inputs, quality, _ = planted_instance(rng, 80, 20, bias_sd=1.0, noise_sd=0.2)
        hp = fit_hyperparams(inputs, GridSpec(1e-2, 1e2, 9))
        mu_y, _ = posterior(inputs, hp)
        q_hat = np.bincount(inputs.paper_idx, weights=inputs.s) / np.bincount(inputs.paper_idx)
        raw_res = inputs.s - q_hat[inputs.paper_idx]
        cal_res = mu_y - q_hat[inputs.paper_idx]

        def reviewer_mean_var(res):
            means = np.bincount(inputs.reviewer_idx, weights=res) / np.bincount(
                inputs.reviewer_idx
            )
            return float(np.var(means))

        assert reviewer_mean_var(cal_res) <= reviewer_mean_var(raw_res)


class TestAggregateCalibrated:
    def test_zero_bias_matches_uncalibrated_pipeline(self, rng, monkeypatch):
        inputs, _, _ = planted_instance(rng, 30, 10, bias_sd=0.0, noise_sd=0.5)
        hp = Hyperparams(sigma_q2=1.0, sb2_hat=1e-300, se2_hat=0.5, mu_q=float(inputs.s.mean()))
        # calibrate conditions on the point its search returns
        monkeypatch.setattr(reviewpipe.calibration._Model, "best", lambda self: hp)
        cal = calibrate(inputs).scores
        from reviewpipe.scoring import normalize

        raw_agg = np.bincount(inputs.paper_idx, weights=inputs.s) / np.bincount(inputs.paper_idx)
        assert np.allclose(cal, normalize(raw_agg), atol=1e-9)

    def test_permutation_invariance(self, rng):
        inputs, _, _ = planted_instance(rng, 12, 6)
        cal = calibrate(inputs, GridSpec(points=3)).scores
        perm = rng.permutation(inputs.n)
        shuffled = CalibrationInputs(
            inputs.s[perm],
            inputs.paper_idx[perm],
            inputs.reviewer_idx[perm],
            inputs.paper_ids,
            inputs.reviewer_ids,
            inputs.confidences[perm],
        )
        cal2 = calibrate(shuffled, GridSpec(points=3)).scores
        assert np.allclose(cal, cal2, atol=1e-12)


class TestAcceptanceProbability:
    def make_inputs(self, rng, n_papers=12, n_reviewers=6):
        inputs, _, _ = planted_instance(rng, n_papers, n_reviewers)
        hp = fit_hyperparams(inputs, GridSpec(points=3))
        mu_y, sigma_y = posterior(inputs, hp)
        return inputs, mu_y, sigma_y

    def test_probability_sums_to_slot_count(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        for seed in range(3):
            est = acceptance_probability(
                mu_y, sigma_y, inputs, DecisionConfig(40.0), n_samples=1000, seed=seed
            )
            assert est.counts.sum() == est.n_accept * est.n_samples
            assert float(est.counts.sum() / est.n_samples) == est.n_accept

    def test_deterministic_given_seed(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        a = acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 200, seed=9)
        b = acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 200, seed=9)
        assert np.array_equal(a.counts, b.counts)

    def test_dominant_paper_always_accepted(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        # push one paper at least 10 posterior standard deviations clear
        boost = 10.0 * np.sqrt(max(np.diag(sigma_y).max(), 1e-12)) + 100.0
        mu_y = mu_y.copy()
        mu_y[inputs.paper_idx == 0] += boost
        est = acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 500, seed=3)
        assert est.probability[0] == 1.0

    def test_dimension_mismatch_rejected(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        with pytest.raises(ValueError):
            acceptance_probability(mu_y[:-1], sigma_y, inputs, DecisionConfig(40.0), 10, 0)

    def test_sample_count_below_one_rejected(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 0, 0)

    def test_paper_without_entries_rejected(self, rng):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        # the same entries with one more paper id that no entry names
        extended = CalibrationInputs(
            inputs.s, inputs.paper_idx, inputs.reviewer_idx,
            [*inputs.paper_ids, "P9999"], inputs.reviewer_ids, inputs.confidences,
        )
        with pytest.raises(ValueError, match=r"review entry; none for \['P9999'\]"):
            acceptance_probability(mu_y, sigma_y, extended, DecisionConfig(40.0), 10, 0)

    @pytest.mark.parametrize("mismatch", ["reviewer_idx", "reviewer_count"])
    def test_posterior_of_other_inputs_rejected(self, rng, mismatch):
        inputs, mu_y, sigma_y = self.make_inputs(rng)
        if mismatch == "reviewer_idx":
            other = replace(sigma_y, reviewer_idx=np.roll(inputs.reviewer_idx, 1))
        else:
            other = replace(sigma_y, coef=sigma_y.coef[:-1])
        with pytest.raises(ValueError, match="not the posterior of these inputs"):
            acceptance_probability(mu_y, other, inputs, DecisionConfig(40.0), 10, 0)


def argsort_counts(mu_y, sigma_y, inputs, k, n_samples, seed):
    """Reference sampler: all draws at once (a row per sample), per-paper
    aggregates entry by entry, and a stable argsort of each sample's
    negated aggregates over the papers in id order; its first k win."""
    bias = sigma_y.draw(np.random.default_rng(seed), n_samples)
    p = inputs.n_papers
    den = np.bincount(inputs.paper_idx, weights=inputs.confidences, minlength=p)
    agg = np.zeros((n_samples, p))
    for e in range(inputs.n):
        paper, reviewer = inputs.paper_idx[e], inputs.reviewer_idx[e]
        agg[:, paper] += inputs.confidences[e] / den[paper] * (mu_y[e] + bias[:, reviewer])
    by_id = np.argsort(inputs.paper_ids, kind="stable")
    ranked = np.argsort(-agg[:, by_id], axis=1, kind="stable")
    return np.bincount(by_id[ranked[:, :k]].ravel(), minlength=p)


class TestSelectionMatchesArgsortOracle:
    @staticmethod
    def tied_inputs(paper_ids, means):
        # two entries per paper, reviewers shared, so the per-paper means
        # are exact in floating point and equal means tie exactly
        n = len(paper_ids)
        s = [m + d for m in means for d in (-1.0, 1.0)]
        conf = [0.8, 1.2] * n
        return CalibrationInputs(
            s, np.repeat(np.arange(n), 2), np.tile([0, 1], n), paper_ids, ["r0", "r1"], conf
        )

    @pytest.mark.parametrize(
        "paper_ids, means, rate, k",
        [
            (["q", "p"], [3.0, 3.0], 40.0, 0),
            (["e", "b", "d", "a", "c"], [2.0, 1.0, 2.0, 1.0, 2.0], 20.0, 1),
            (["e", "b", "d", "a", "c"], [2.0, 1.0, 2.0, 1.0, 2.0], 40.0, 2),
            (["e", "b", "d", "a", "c"], [2.0, 1.0, 2.0, 1.0, 2.0], 80.0, 4),
            (["e", "b", "d", "a", "c"], [2.0, 1.0, 2.0, 1.0, 2.0], 100.0, 5),
        ],
    )
    def test_zero_width_posterior_with_ties(self, paper_ids, means, rate, k):
        inputs = self.tied_inputs(paper_ids, means)
        zero = PosteriorCovariance(inputs.reviewer_idx, np.zeros(2))
        cfg = DecisionConfig(rate)
        assert cfg.n_accept(inputs.n_papers) == k
        est = acceptance_probability(inputs.s, zero, inputs, cfg, 300, seed=4)
        expected = argsort_counts(inputs.s, zero, inputs, k, 300, seed=4)
        assert np.array_equal(est.counts, expected)
        assert est.counts.sum() == k * 300

    @pytest.mark.parametrize("rate, k", [(25.0, 1), (50.0, 2), (75.0, 3)])
    def test_ties_on_uneven_entry_counts(self, rate, k):
        # papers c, a and d tie at 2.0 with 2, 1 and 2 entries; b, at 1.0,
        # has 3, so the order by entry count (b, c, d, a) is not the id
        # order.  Only b's reviewer r3 has a bias spread: b moves past the
        # tied papers in some samples and they stay tied.  Dyadic weights
        # keep the means exact.
        paper_ids = ["c", "a", "d", "b"]
        paper_idx = [0, 0, 1, 2, 2, 3, 3, 3]
        reviewer_idx = [0, 1, 0, 1, 2, 0, 1, 3]
        s = [1.0, 3.0, 2.0, 3.0, 1.0, 2.0, 2.0, 0.0]
        conf = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        inputs = CalibrationInputs(s, paper_idx, reviewer_idx, paper_ids, ["r0", "r1", "r2", "r3"], conf)
        sigma_y = PosteriorCovariance(inputs.reviewer_idx, np.zeros(4), sd=np.array([0.0, 0.0, 0.0, 4.0]))
        cfg = DecisionConfig(rate)
        assert cfg.n_accept(inputs.n_papers) == k
        est = acceptance_probability(inputs.s, sigma_y, inputs, cfg, 200, seed=2)
        expected = argsort_counts(inputs.s, sigma_y, inputs, k, 200, seed=2)
        assert np.array_equal(est.counts, expected)
        # b is above the tie in some samples, and then the last tied paper
        # in id order that had a slot loses it
        assert 0 < est.counts[3] < 200
        assert est.counts[[1, 0, 2][k - 1]] == 200 - est.counts[3]

    def test_tie_order_keeps_trailing_nuls(self):
        # a NumPy string sort reads "a\x00" as "a": the tie must go to "a"
        inputs = self.tied_inputs(["b", "a\x00", "a"], [1.0, 1.0, 1.0])
        zero = PosteriorCovariance(inputs.reviewer_idx, np.zeros(2))
        est = acceptance_probability(inputs.s, zero, inputs, DecisionConfig(40.0), 50, seed=0)
        assert est.counts.tolist() == [0, 0, 50]

    @pytest.mark.parametrize("block", [7, reviewpipe.calibration.SAMPLE_BLOCK])
    def test_sampled_posterior(self, rng, monkeypatch, block):
        planted, _, _ = planted_instance(rng, 30, 12)
        # 1 to 6 entries per paper, in an order unlike the id order: the
        # sampler's last entry rows are mostly zero weight
        counts = rng.permutation(np.repeat(np.arange(1, 7), 5))
        uneven = CalibrationInputs(
            rng.normal(0.0, 1.0, counts.sum()),
            np.repeat(np.arange(30), counts),
            np.concatenate([rng.choice(12, size=c, replace=False) for c in counts]),
            planted.paper_ids,
            planted.reviewer_ids,
        )
        monkeypatch.setattr(reviewpipe.calibration, "SAMPLE_BLOCK", block)
        for inputs in (planted, uneven):
            # ids whose sorted order is not their code order
            inputs.paper_ids = [f"P{(7 * i) % 30:02d}" for i in range(30)]
            mu_y, sigma_y = posterior(inputs, fit_hyperparams(inputs, GridSpec(points=3)))
            # 300 samples: whole blocks and a partial last one
            est = acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 300, seed=5)
            expected = argsort_counts(mu_y, sigma_y, inputs, 12, 300, seed=5)
            assert np.array_equal(est.counts, expected)
            assert np.any((est.counts > 0) & (est.counts < 300))  # the draws move the cut


class TestCalibrateMeta:
    def test_operating_point_instance_runs(self, rng):
        # ~400 papers split across 25 ACs, 16 papers each
        n_papers, n_acs = 400, 25
        paper_idx = np.arange(n_papers)
        ac_idx = np.repeat(np.arange(n_acs), n_papers // n_acs)
        offsets = rng.normal(0, 1, n_acs)
        xi = rng.integers(-3, 4, n_papers).astype(float) + offsets[ac_idx]
        inputs = CalibrationInputs(
            xi,
            paper_idx,
            ac_idx,
            [f"P{i:04d}" for i in range(n_papers)],
            [f"M{i:02d}" for i in range(n_acs)],
        )
        out = calibrate(inputs, GridSpec(points=5)).scores
        assert out.shape == (n_papers,)
        assert out.min() == 0.0 and out.max() == 100.0

    def test_unidentifiable_passthrough_with_warning(self):
        xi = np.array([2.0, -1.0, 0.0])
        inputs = CalibrationInputs(xi, [0, 1, 2], [0, 1, 2], ["a", "b", "c"], ["x", "y", "z"])
        with pytest.warns(UnidentifiableModelWarning, match="every reviewer covers a single paper"):
            result = calibrate(inputs)
        from reviewpipe.scoring import normalize

        assert np.allclose(result.scores, normalize(xi), atol=1e-12)
        assert np.array_equal(result.mu_y, xi)
        assert np.asarray(result.sigma_y).tolist() == np.zeros((3, 3)).tolist()
        assert result.summary == {
            "identifiable": False, "argmin_on_grid_edge": None, "hyperparams": None,
            "moment_estimate": None, "evaluations": 0, "stopped_on_budget": False, "grid": [],
        }

    def test_planted_offsets_recovered_in_sign(self, rng):
        n_papers, n_acs = 200, 10
        quality = rng.normal(0, 1, n_papers)
        offsets = np.where(np.arange(n_acs) % 2 == 0, 1.0, -1.0)
        paper_idx = np.arange(n_papers)
        ac_idx = np.repeat(np.arange(n_acs), n_papers // n_acs)
        xi = quality + offsets[ac_idx] + rng.normal(0, 0.1, n_papers)
        inputs = CalibrationInputs(
            xi, paper_idx, ac_idx, [f"P{i}" for i in range(n_papers)], [f"M{i}" for i in range(n_acs)]
        )
        result = calibrate(inputs, GridSpec(points=9))
        # the implied correction per AC should be positive for positively
        # biased ACs and negative for the others
        correction = xi - result.mu_y
        per_ac = np.bincount(ac_idx, weights=correction) / np.bincount(ac_idx)
        assert np.all(np.sign(per_ac) == np.sign(offsets))
        # with one meta-review per paper, the scores are the normalized mu_y
        from reviewpipe.scoring import normalize

        assert np.array_equal(result.scores, normalize(result.mu_y))

    def test_too_few_entries_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            calibrate(CalibrationInputs(np.array([1.0]), [0], [0], ["a"], ["x"]))


def test_bias_recovery_improves_ranking(rng):
    # planted-bias instance: calibrated ranking should track true quality
    # better than raw per-paper means
    inputs, quality, _ = planted_instance(rng, 100, 30, bias_sd=1.0, noise_sd=0.3)
    hp = fit_hyperparams(inputs, GridSpec(points=7))
    mu_y, _ = posterior(inputs, hp)
    raw = np.bincount(inputs.paper_idx, weights=inputs.s) / np.bincount(inputs.paper_idx)
    cal = np.bincount(inputs.paper_idx, weights=mu_y) / np.bincount(inputs.paper_idx)
    tau_raw = kendalltau(raw, quality).statistic
    tau_cal = kendalltau(cal, quality).statistic
    assert tau_cal > tau_raw


# ---------------------------------------------------------------------------
# Dense oracle: the O(n^3) formulas the structured solver replaces.
# ---------------------------------------------------------------------------


def dense_grid(inputs, values):
    """Grid NLL per (sb2, se2), sb2 outer, from dense Cholesky factors."""
    mu_q = float(np.mean(inputs.s))
    rows = []
    for sb2 in values:
        for se2 in values:
            k = build_covariance(inputs.paper_idx, inputs.reviewer_idx, sb2, se2)
            sq2 = fit_sigma_q(inputs.s, k, mu_q)
            rows.append((float(sb2), float(se2), sq2, nll(inputs.s, k, sq2, mu_q)))
    return rows


def dense_posterior(inputs, hp):
    """mu_y and Sigma_y by brute-force conditioning of the joint Gaussian."""
    pi, ri = inputs.paper_idx, inputs.reviewer_idx
    same_paper = (pi[:, None] == pi[None, :]).astype(float)
    same_rev = (ri[:, None] == ri[None, :]).astype(float)
    k_y = hp.sigma_q2 * same_paper + hp.sigma_e2 * same_paper * same_rev
    k_s = k_y + hp.sigma_b2 * same_rev
    k_inv = np.linalg.inv(k_s)
    return hp.mu_q + k_y @ k_inv @ (inputs.s - hp.mu_q), k_y - k_y @ k_inv @ k_y


def meta_shape(rng, n_papers=400, n_heavy=4, n_light=40):
    """One entry per paper; a few heavy meta-reviewers take most papers."""
    heavy = rng.random(n_papers) < 0.7
    idx = np.where(
        heavy, rng.integers(0, n_heavy, n_papers), rng.integers(n_heavy, n_heavy + n_light, n_papers)
    )
    offsets = rng.normal(0, 1, n_heavy + n_light)
    s = rng.normal(0, 1, n_papers) + offsets[idx] + rng.normal(0, 0.3, n_papers)
    return CalibrationInputs(
        s,
        np.arange(n_papers),
        idx,
        [f"P{i:04d}" for i in range(n_papers)],
        [f"M{i:02d}" for i in range(n_heavy + n_light)],
    )


def reviewer_once_shape(rng, n_papers=200, per_paper=3):
    """Every reviewer covers exactly one paper."""
    n = n_papers * per_paper
    return CalibrationInputs(
        rng.normal(0, 2, n),
        np.repeat(np.arange(n_papers), per_paper),
        np.arange(n),
        [f"P{i:04d}" for i in range(n_papers)],
        [f"R{i:04d}" for i in range(n)],
    )


def sparse_ids_shape(rng, n=150):
    """Papers and reviewers with no entries, as the desk-scale test draws them."""
    pi, ri = random_labels(rng, n, n, n)
    return CalibrationInputs(
        rng.normal(0, 1.5, n), pi, ri, [f"P{i}" for i in range(n)], [f"R{i}" for i in range(n)]
    )


class TestStructuredMatchesDenseOracle:
    GRID = GridSpec(1e-2, 1e2, 5)

    def check(self, inputs):
        hp = fit_hyperparams(inputs, self.GRID)
        table = hp.grid
        dense = dense_grid(inputs, self.GRID.values())
        assert [(row["sb2_hat"], row["se2_hat"]) for row in table] == [d[:2] for d in dense]
        for row, (_, _, sq2, val) in zip(table, dense):
            assert abs(row["nll"] - val) <= 1e-10 * abs(val)
            assert row["sigma_q2"] == pytest.approx(sq2, rel=1e-10)
        best = min(dense, key=lambda d: d[3])
        assert (hp.sb2_hat, hp.se2_hat) == best[:2]
        mu_y, sigma_y = posterior(inputs, hp)
        mu_ref, sigma_ref = dense_posterior(inputs, hp)
        assert np.max(np.abs(mu_y - mu_ref)) <= 1e-9
        assert sigma_y.shape == (inputs.n, inputs.n)
        assert np.max(np.abs(np.asarray(sigma_y) - sigma_ref)) <= 1e-8

    def test_planted_review_instances(self, rng):
        for n_papers, n_reviewers in [(40, 12), (120, 40), (190, 60)]:
            inputs, _, _ = planted_instance(rng, n_papers, n_reviewers)
            self.check(inputs)

    def test_meta_shape_with_heavy_reviewers(self, rng):
        self.check(meta_shape(rng))

    def test_every_reviewer_once(self, rng):
        with pytest.warns(UnidentifiableModelWarning, match="every reviewer"):
            self.check(reviewer_once_shape(rng))

    def test_ids_without_entries(self, rng):
        for n in (3, 40, 150):
            self.check(sparse_ids_shape(rng, n))

    def test_random_unique_pairs(self, rng):
        for _ in range(5):
            n = int(rng.integers(20, 600))
            pi, ri = random_labels(rng, n, max(4, n // 3), max(4, n // 4))
            inputs = CalibrationInputs(
                rng.normal(0, 2, n),
                pi,
                ri,
                [f"P{i}" for i in range(max(4, n // 3))],
                [f"R{i}" for i in range(max(4, n // 4))],
            )
            self.check(inputs)


class TestModelChecks:
    def test_duplicate_pairs_rejected_and_named(self):
        with pytest.raises(ValueError, match=r"duplicate \(paper, reviewer\) pairs.*'b', 'y'"):
            CalibrationInputs(
                s=[1.0, 2.0, 3.0, 4.0],
                paper_idx=[0, 1, 1, 1],
                reviewer_idx=[0, 1, 0, 1],
                paper_ids=["a", "b"],
                reviewer_ids=["x", "y"],
            )

    def test_labels_must_index_ids(self):
        with pytest.raises(ValueError, match="reviewer labels"):
            CalibrationInputs([1.0, 2.0], [0, 1], [0, 2], ["a", "b"], ["x", "y"])
        with pytest.raises(ValueError, match="labels must align"):
            CalibrationInputs([1.0, 2.0], [0, 1, 1], [0, 1], ["a", "b"], ["x", "y"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="^s: "):
            CalibrationInputs([1.0, bad, 2.0], [0, 1, 1], [0, 0, 1], ["a", "b"], ["x", "y"])

    @pytest.mark.parametrize(
        "confidences",
        [[1.0, np.nan, 1.0], [1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0], [1.0, np.inf, 1.0]],
        ids=["nan", "short", "zero", "negative", "inf"],
    )
    def test_bad_confidences_rejected(self, confidences):
        with pytest.raises(ValueError, match="^confidences: "):
            CalibrationInputs(
                [1.0, 3.0, 2.0], [0, 1, 1], [0, 0, 1], ["a", "b"], ["x", "y"], confidences
            )

    def test_identifiability_rule(self):
        assert not bias_identifiable([0, 1, 2])
        assert bias_identifiable([0, 1, 0])

    def test_review_fit_warns_when_bias_unidentifiable(self, rng):
        with pytest.warns(UnidentifiableModelWarning, match="every reviewer"):
            fit_hyperparams(reviewer_once_shape(rng, 30), GridSpec(points=3))


def test_calibration_memory_below_one_dense_matrix():
    # ~3,000 reviews: fit, posterior and sampling stay below the 72 MB of a
    # single n x n float64 matrix
    rng = np.random.default_rng(3)
    inputs, _, _ = planted_instance(rng, 1000, 300)
    dense_bytes = inputs.n * inputs.n * 8
    tracemalloc.start()
    try:
        hp = fit_hyperparams(inputs, GridSpec(points=3))
        mu_y, sigma_y = posterior(inputs, hp)
        acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inputs.n == 3000
    assert peak < dense_bytes


def test_sampler_memory_does_not_grow_with_samples():
    # ~200 papers: the sampler's tracemalloc peak at 4,000 samples stays
    # within 1.2x of its peak at 500
    rng = np.random.default_rng(8)
    inputs, _, _ = planted_instance(rng, 200, 145)
    mu_y, sigma_y = posterior(inputs, fit_hyperparams(inputs, GridSpec(points=3)))
    peaks = []
    for n_samples in (500, 4000):
        tracemalloc.start()
        try:
            acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), n_samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


@pytest.mark.parametrize(
    "n_papers, n_reviewers, per_paper",
    [(300, 900, 8), (200, 145, 3)],
    ids=["papers_factored", "reviewers_factored"],
)
def test_one_draw_holds_little_more_than_its_result(n_papers, n_reviewers, per_paper):
    # one block of draws peaks within 2.5x the bytes it returns.  With papers
    # factored, S x n arrays (n = 2,400 entries here, 3x the reviewers)
    # once took it past 10x at the paper's scale, and a padded copy of the
    # normals for the solve and a separate result past 2.7x here
    inputs, _, _ = planted_instance(np.random.default_rng(5), n_papers, n_reviewers, per_paper)
    mu_y, sigma_y = posterior(inputs, Hyperparams(sigma_q2=1.0, sb2_hat=0.5, se2_hat=0.2, mu_q=0.0))
    assert (sigma_y.paper_idx is not None) == (n_reviewers > n_papers)
    sigma_y.draw(np.random.default_rng(0), 1)  # the factor's one-time last-block inverse
    block = reviewpipe.calibration.SAMPLE_BLOCK
    tracemalloc.start()
    try:
        bias = sigma_y.draw(np.random.default_rng(1), block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bias.shape == (block, n_reviewers)
    assert peak <= 2.5 * bias.nbytes, peak / bias.nbytes


# ---------------------------------------------------------------------------
# The reduced evaluator: the blocked Cholesky, the papers-factored side, and
# the search that calibrate runs on it.
# ---------------------------------------------------------------------------


class TestBlockedCholesky:
    B = reviewpipe.calibration.CHOLESKY_BLOCK

    @pytest.mark.parametrize("size", [B - 1, B, B + 1, 2 * B + 3])
    def test_matches_numpy(self, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=(size, size + 5))
        mat = x @ x.T / size + np.eye(size)
        ref = np.linalg.cholesky(mat)
        fac = reviewpipe.calibration._Bordered(mat.copy())
        m = size - 1
        assert np.max(np.abs(fac.border - ref[m, :m])) <= 1e-12 * np.max(np.abs(ref))
        assert fac.logdet == pytest.approx(np.linalg.slogdet(mat[:m, :m])[1], rel=1e-12)
        v = mat[:m, m]
        assert fac.quad == pytest.approx(mat[m, m] - v @ np.linalg.solve(mat[:m, :m], v), rel=1e-10)
        rows = rng.normal(size=(3, m))
        # rows L_A^-1 solves x L_A = rows
        assert np.allclose(fac.solve_t(rows.copy()) @ ref[:m, :m], rows, atol=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(DegenerateModelError):
            reviewpipe.calibration._Bordered(np.array([[1.0, 2.0], [2.0, 1.0]]))


def papers_factored_shapes(rng):
    """Instances with fewer papers than reviewers, so papers are factored."""
    yield planted_instance(rng, 30, 80)[0]
    yield planted_instance(rng, 60, 150, reviews_per_paper=4)[0]
    n = 120
    pi, ri = random_labels(rng, n, 25, 90)  # ids without entries too
    yield CalibrationInputs(
        rng.normal(0, 2, n), pi, ri, [f"P{i}" for i in range(25)], [f"R{i}" for i in range(90)]
    )


class TestPapersFactoredMatchesDenseOracle:
    GRID = TestStructuredMatchesDenseOracle.GRID
    check = TestStructuredMatchesDenseOracle.check

    def test_grid_posterior_and_covariance(self, rng):
        for inputs in papers_factored_shapes(rng):
            assert not reviewpipe.calibration._Model(inputs).on_reviewers
            self.check(inputs)

    def test_sampled_posterior_matches_argsort_oracle(self, rng, monkeypatch):
        inputs = next(papers_factored_shapes(rng))
        mu_y, sigma_y = posterior(inputs, fit_hyperparams(inputs, GridSpec(points=3)))
        monkeypatch.setattr(reviewpipe.calibration, "SAMPLE_BLOCK", 7)
        est = acceptance_probability(mu_y, sigma_y, inputs, DecisionConfig(40.0), 300, seed=5)
        assert np.array_equal(est.counts, argsort_counts(mu_y, sigma_y, inputs, 12, 300, seed=5))
        # the draws' covariance is the posterior's
        draws = sigma_y.draw(np.random.default_rng(1), 20000)
        cov = sigma_y.bias_cov
        assert np.max(np.abs(np.cov(draws.T) - cov)) <= 0.05 * np.max(np.diag(cov))


def test_recipe_refuses_what_no_posterior_builds(rng):
    # papers factored come with an independent part and reviewers factored
    # without one: a draw adds into the one or scales in place without it
    hp = Hyperparams(sigma_q2=1.0, sb2_hat=0.5, se2_hat=0.2, mu_q=0.0)
    _, on_reviewers = posterior(planted_instance(rng, 40, 20)[0], hp)
    _, on_papers = posterior(planted_instance(rng, 30, 60, 6)[0], hp)
    assert on_reviewers.paper_idx is None and on_papers.paper_idx is not None
    refused = [
        (on_reviewers, {"sd": np.full(len(on_reviewers.coef), 0.7)}),
        (on_reviewers, {"paper_idx": on_papers.paper_idx}),
        (on_papers, {"sd": None}),
    ]
    for sigma_y, change in refused:
        with pytest.raises(ValueError, match="independent part goes with papers factored"):
            replace(sigma_y, **change)


def corpus_like(rng, n_papers, n_reviewers):
    """The benchmark corpus model: unit paper quality, bias and noise SD
    0.4, scores rounded to halves."""
    inputs, _, _ = planted_instance(rng, n_papers, n_reviewers, bias_sd=0.4, noise_sd=0.4)
    inputs.s = np.round(2 * inputs.s) / 2
    return inputs


class TestSearch:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("shape", [(200, 145), (60, 150), "meta"])
    def test_no_worse_than_grid_argmin(self, seed, shape):
        rng = np.random.default_rng(seed)
        inputs = meta_shape(rng) if shape == "meta" else corpus_like(rng, *shape)
        grid_best = min(row["nll"] for row in fit_hyperparams(inputs, GridSpec()).grid)
        summary = calibrate(inputs).summary
        fitted = min(row["nll"] for row in summary["grid"])
        # the one-dimensional meta fit searches a' alone; every grid point
        # lies on its ridge, so the grid's best is within its reach
        assert fitted <= grid_best + (1e-9 if shape == "meta" else 0.0)
        assert not summary["stopped_on_budget"]
        assert summary["evaluations"] == len(summary["grid"]) <= 60

    def test_descending_box_is_the_same_box(self, rng):
        inputs = corpus_like(rng, 40, 20)
        up, down = calibrate(inputs, GridSpec(1e-2, 1e2)), calibrate(inputs, GridSpec(1e2, 1e-2))
        assert up.summary == down.summary
        assert np.array_equal(up.mu_y, down.mu_y)

    def test_stop_on_budget_is_reported(self, rng, monkeypatch):
        inputs = corpus_like(rng, 40, 20)
        monkeypatch.setattr(reviewpipe.calibration, "SEARCH_BUDGET", 5)
        summary = calibrate(inputs).summary
        assert summary["stopped_on_budget"] is True
        assert summary["evaluations"] == 5

    def test_optimum_on_box_edge_is_flagged(self, rng):
        # no bias planted: the bias ratio runs to the box's lower edge
        inputs, _, _ = planted_instance(rng, 80, 20, bias_sd=0.0, noise_sd=1.0)
        summary = calibrate(inputs, GridSpec(0.5, 20.0)).summary
        assert summary["argmin_on_grid_edge"] is True
        best = min(summary["grid"], key=lambda row: row["nll"])
        assert best["sb2_hat"] == 0.5

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_few_evaluations(self, seed):
        # the benchmark's review shape and the meta-review shape
        for inputs in (corpus_like(np.random.default_rng(seed), 200, 145),
                       meta_shape(np.random.default_rng(seed))):
            summary = calibrate(inputs).summary
            assert not summary["stopped_on_budget"]
            assert summary["evaluations"] <= 20

    def test_box_corner_optimum_stops_below_budget(self):
        # one entry per paper and no meta-reviewer offsets: the likelihood
        # depends on a' = a / (1 + c) alone and falls toward its least
        # value, the image lo / (1 + hi) of the box's corner (lo, hi)
        rng = np.random.default_rng(3)
        s = np.round(rng.normal(0, 1, 200) + rng.normal(0, 0.3, 200), 1)
        inputs = CalibrationInputs(
            s, np.arange(200), rng.integers(0, 14, 200),
            [f"P{i:03d}" for i in range(200)], [f"M{i:02d}" for i in range(14)],
        )
        summary = calibrate(inputs).summary
        assert summary["argmin_on_grid_edge"] is True
        assert not summary["stopped_on_budget"]
        # Nelder-Mead took 20 here
        assert summary["evaluations"] <= 20
        best = min(summary["grid"], key=lambda row: row["nll"])
        assert best["a_prime"] == GridSpec().lo / (1 + GridSpec().hi)


def lstsq_moments(inputs):
    """The Gao-Owen moment system by pair sums, each row divided by its
    pair count, solved by least squares for the min-norm solution."""
    s = inputs.s

    def pairs(idx):
        count = np.bincount(idx)
        mean = np.bincount(idx, weights=s) / np.maximum(count, 1)
        return 0.5 * np.sum(count[idx] * (s - mean[idx]) ** 2), np.sum(count * (count - 1)) / 2

    (u_p, n_p), (u_r, n_r) = pairs(inputs.paper_idx), pairs(inputs.reviewer_idx)
    u_a, n_a = pairs(np.zeros(inputs.n, dtype=int))
    system = np.array([[0, n_p, n_p], [n_r, 0, n_r], [n_a - n_p, n_a - n_r, n_a]], dtype=float)
    scale = np.maximum([n_p, n_r, n_a], 1)
    return np.linalg.lstsq(system / scale[:, None], np.array([u_p, u_r, u_a]) / scale, rcond=None)[0]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_moment_estimate_is_the_min_norm_solution(seed):
    rng = np.random.default_rng(seed)
    one_reviewer = CalibrationInputs(rng.normal(0, 1, 5), np.arange(5), np.zeros(5), list("abcde"), ["x"])
    for inputs in (corpus_like(rng, 50, 30), corpus_like(rng, 20, 60), meta_shape(rng), one_reviewer):
        got, ref = reviewpipe.calibration._moment_estimate(inputs), lstsq_moments(inputs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMetaShapeRidge:
    """One entry per paper: q and the noise add up, so only a / (1 + c)
    is identified and the likelihood is flat along it."""

    def test_min_norm_moments_and_flat_ridge(self, rng):
        inputs = meta_shape(rng)
        moments = calibrate(inputs).summary["moment_estimate"]
        # no pair shares a paper: the min-norm solution splits the paper
        # and noise variances evenly
        assert moments["sigma_q2"] == pytest.approx(moments["sigma_e2"], rel=1e-9)
        fit = reviewpipe.calibration._Model(inputs)
        a, c = 0.3, 0.5
        a2, c2 = a * (1 + 2.0) / (1 + c), 2.0
        assert fit(a, c) == pytest.approx(fit(a2, c2), rel=1e-12)
        rows = {(row["sb2_hat"], row["se2_hat"]): row["sigma_q2"] for row in fit.rows}
        mu_1, _ = posterior(inputs, Hyperparams(rows[(a, c)], a, c, fit.mu_q))
        mu_2, _ = posterior(inputs, Hyperparams(rows[(a2, c2)], a2, c2, fit.mu_q))
        assert np.max(np.abs(mu_1 - mu_2)) <= 1e-10
