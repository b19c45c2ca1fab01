import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewpipe.dequant import BAND, DequantConfig, dequantize, dequantize_rows


def one_paper(values):
    return {"p": [(f"r{i}", float(v)) for i, v in enumerate(values)]}


def paper_scores(result, paper, n):
    return np.array([result.scores[(f"r{i}", paper)] for i in range(n)])


def grid_min_cost(s, lam, step=0.01, band=BAND):
    """Exhaustive grid search over the feasible box, one paper.

    Offsets per review on a uniform grid; cost evaluated via the
    sum/square-sum identity to avoid materializing the full point cloud.
    """
    s = np.asarray(s, dtype=float)
    n = len(s)
    k = int(round(2 * band / step)) + 1
    offs = np.linspace(-band, band, k)
    total = np.zeros((1,) * n)
    sqsum = np.zeros((1,) * n)
    d2 = np.zeros((1,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = k
        x = (s[i] + offs).reshape(shape)
        total = total + x
        sqsum = sqsum + x**2
        d2 = d2 + (offs**2).reshape(shape)
    cost = sqsum - total**2 / n + lam * d2
    return float(cost.min())


def random_lattice_scores(rng, n):
    return rng.integers(-14, 17, size=n) / 2.0


class TestClosedForm:
    def test_singleton_fixed_point(self):
        for lam in [0.0, 0.5, 2.0, 100.0]:
            result = dequantize(one_paper([3.5]), DequantConfig(lam=lam))
            assert result.scores[("r0", "p")] == 3.5

    def test_lambda_zero_two_reviews(self):
        result = dequantize(one_paper([2.0, 3.0]), DequantConfig(lam=0.0))
        assert paper_scores(result, "p", 2) == pytest.approx([2.25, 2.75], abs=1e-12)

    def test_large_lambda_reproduces_input(self, rng):
        for _ in range(20):
            s = random_lattice_scores(rng, rng.integers(2, 6))
            result = dequantize(one_paper(s), DequantConfig(lam=1e6))
            assert paper_scores(result, "p", len(s)) == pytest.approx(s, abs=1e-4)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            DequantConfig(lam=-1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # NaN made every paper's scores equal; inf made them all NaN
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            DequantConfig(lam=lam)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-14, 16).map(lambda k: k / 2), min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    def test_huge_lambda_returns_the_raw_scores(self, papers):
        paper = np.repeat(np.arange(len(papers)), [len(s) for s in papers])
        s = np.concatenate(papers)
        x = dequantize_rows(paper, s, DequantConfig(lam=1e12))
        assert np.max(np.abs(x - s)) <= 1e-9


class TestExactSolver:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.lists(
                    st.integers(-14, 16).map(lambda k: k / 2) | st.floats(-7.0, 8.0),
                    min_size=1,
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=10,
        ),
        st.just(0.0) | st.floats(0.0, 10.0),
    )
    def test_codes_with_no_rows_are_skipped(self, papers, lam):
        """Codes with gaps, up to three unused codes before each paper,
        give bit for bit what the same codes renumbered 0, 1, 2, ... give;
        lambda = 0 takes the guarded division."""
        codes = np.cumsum([gap + 1 for gap, _ in papers]) - 1
        paper = np.repeat(codes, [len(s) for _, s in papers])
        s = np.array([v for _, scores in papers for v in scores])
        dense = np.unique(paper, return_inverse=True)[1]
        cfg = DequantConfig(lam=lam)
        assert dequantize_rows(paper, s, cfg).tobytes() == dequantize_rows(dense, s, cfg).tobytes()

    def test_kkt_conditions_on_random_instances(self, rng):
        # with m the paper mean, r = (x - m) + lambda (x - s) is zero inside
        # the band, >= 0 on its lower edge and <= 0 on its upper edge
        for trial in range(200):
            lam = 0.0 if trial % 4 == 0 else float(rng.uniform(0.0, 10.0))
            sizes = rng.integers(1, 8, size=int(rng.integers(1, 30)))
            paper = np.repeat(np.arange(len(sizes)), sizes)
            if trial % 2:
                s = random_lattice_scores(rng, len(paper))
            else:
                s = rng.uniform(-7.0, 8.0, len(paper))
            x = dequantize_rows(paper, s, DequantConfig(lam=lam))
            assert np.all(np.abs(x - s) <= BAND + 1e-12)
            m = (np.bincount(paper, weights=x) / sizes)[paper]
            r = (x - m) + lam * (x - s)
            at_low = x - (s - BAND) <= 1e-12
            at_high = (s + BAND) - x <= 1e-12
            inside = ~(at_low | at_high)
            assert np.all(np.abs(r[inside]) <= 1e-12)
            assert np.all(r[at_low & ~at_high] >= -1e-12)
            assert np.all(r[at_high & ~at_low] <= 1e-12)
            assert np.array_equal(x[sizes[paper] == 1], s[sizes[paper] == 1])

    def test_identical_scores_unchanged_at_lambda_zero(self):
        result = dequantize(one_paper([2.0, 2.0]), DequantConfig(lam=0.0))
        assert paper_scores(result, "p", 2).tolist() == [2.0, 2.0]

    def test_lambda_zero_takes_the_root_nearest_the_mean(self):
        # the roots are [max s - band, min s + band]: one point for the first
        # paper, [1.0, 1.25] around the mean 1.125 for the second
        result = dequantize(one_paper([0.0, 0.0, 0.0, 0.5]), DequantConfig(lam=0.0))
        assert paper_scores(result, "p", 4) == pytest.approx([0.25] * 4, abs=1e-15)
        result = dequantize(one_paper([1.0, 1.25]), DequantConfig(lam=0.0))
        assert paper_scores(result, "p", 2) == pytest.approx([1.125, 1.125], abs=1e-15)

    def test_rows_must_be_grouped_by_paper(self):
        with pytest.raises(ValueError):
            dequantize_rows([0, 1, 0], [1.0, 2.0, 3.0], DequantConfig())
        with pytest.raises(ValueError, match="must align"):
            dequantize_rows([0, 0], [1.0], DequantConfig())

    def test_no_rows(self):
        assert dequantize_rows([], [], DequantConfig()).shape == (0,)


class TestOptimality:
    def test_beats_coarse_grid_perturbations(self, rng):
        for _ in range(20):
            s = random_lattice_scores(rng, rng.integers(2, 5))
            lam = float(rng.uniform(0.1, 5.0))
            result = dequantize(one_paper(s), DequantConfig(lam=lam))
            assert result.cost <= grid_min_cost(s, lam, step=0.05) + 1e-9

    def test_matches_fine_grid_on_desk_instances(self, rng):
        for _ in range(25):
            n_papers = rng.integers(1, 4)
            lam = float(rng.uniform(0.1, 5.0))
            groups = {}
            for p in range(n_papers):
                n = rng.integers(1, 5)
                groups[f"p{p}"] = [
                    (f"r{i}", float(v)) for i, v in enumerate(random_lattice_scores(rng, n))
                ]
            result = dequantize(groups, DequantConfig(lam=lam))
            # papers are independent, so the instance optimum is the sum of
            # per-paper grid minima
            ref = sum(
                grid_min_cost([v for _, v in entries], lam) for entries in groups.values()
            )
            assert result.cost <= ref + 1e-6

    def test_optimal_where_clipping_interacts_with_interior(self):
        # one review clips while the others stay interior: the clipped point
        # of the closed form alone is not stationary, the polished one is
        s = [0.0, 2.0, 2.0]
        lam = 2.0
        result = dequantize(one_paper(s), DequantConfig(lam=lam))
        assert paper_scores(result, "p", 3) == pytest.approx([0.25, 1.75, 1.75], abs=1e-9)
        assert result.cost == pytest.approx(1.875, abs=1e-9)


class TestFeasibilityAndStructure:
    def test_band_always_respected(self, rng):
        for _ in range(2000):
            s = random_lattice_scores(rng, rng.integers(1, 7))
            lam = float(rng.uniform(0.0, 10.0))
            result = dequantize(one_paper(s), DequantConfig(lam=lam))
            out = paper_scores(result, "p", len(s))
            assert np.all(np.abs(out - s) <= BAND + 1e-12)

    def test_monotone_shrinkage_in_lambda(self, rng):
        for _ in range(30):
            s = random_lattice_scores(rng, rng.integers(2, 6))
            lams = sorted(rng.uniform(0.01, 10.0, size=3))
            devs = []
            for lam in lams:
                result = dequantize(one_paper(s), DequantConfig(lam=lam))
                out = paper_scores(result, "p", len(s))
                devs.append(float(((out - s) ** 2).sum()))
            assert devs[0] + 1e-12 >= devs[1] >= devs[2] - 1e-12

    def test_papers_processed_independently(self, rng):
        groups = {
            "a": [("r0", 2.0), ("r1", 4.0)],
            "b": [("r2", -3.0), ("r3", 0.5), ("r4", 1.0)],
        }
        cfg = DequantConfig(lam=1.5)
        joint = dequantize(groups, cfg)
        for paper, entries in groups.items():
            alone = dequantize({paper: entries}, cfg)
            for r, _ in entries:
                assert joint.scores[(r, paper)] == alone.scores[(r, paper)]

    def test_order_invariance(self):
        entries = [("r0", 1.0), ("r1", 3.0), ("r2", 2.0)]
        cfg = DequantConfig(lam=0.7)
        fwd = dequantize({"p": entries}, cfg)
        rev = dequantize({"p": entries[::-1]}, cfg)
        for r, _ in entries:
            assert fwd.scores[(r, "p")] == pytest.approx(rev.scores[(r, "p")], abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            dequantize({"p": []}, DequantConfig())
