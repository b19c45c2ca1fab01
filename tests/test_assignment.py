from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from reviewpipe.assignment import (
    AssignmentConstraints,
    InfeasibleInstanceError,
    SimilaritySources,
    assign,
    check_constraints,
    combined_similarity,
)


def full_sources(papers, reviewers, rng=None, default=0.5):
    src = {}
    for r in reviewers:
        for p in papers:
            if rng is None:
                src[(r, p)] = SimilaritySources(bid=default, subject=default, tpms=default)
            else:
                src[(r, p)] = SimilaritySources(
                    bid=float(rng.uniform()), subject=float(rng.uniform()), tpms=float(rng.uniform())
                )
    return src


class TestCombinedSimilarity:
    def test_equal_sources(self):
        assert combined_similarity(SimilaritySources(1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_subject_weight(self):
        assert combined_similarity(SimilaritySources(bid=0.0, subject=1.0, tpms=0.0)) == 0.5

    def test_missing_tpms_renormalized(self):
        sim = combined_similarity(SimilaritySources(bid=1.0, subject=0.0, tpms=None))
        assert sim == pytest.approx(0.2 / 0.7)

    def test_source_range_checked(self):
        with pytest.raises(ValueError):
            SimilaritySources(bid=1.5, subject=0.0)

    def test_monotone_and_bounded(self, rng):
        for _ in range(100):
            bid, subj, tpms = rng.uniform(size=3)
            base = combined_similarity(SimilaritySources(bid, subj, tpms))
            assert 0.0 <= base <= 1.0
            bumped = combined_similarity(
                SimilaritySources(min(bid + 0.1, 1.0), subj, tpms)
            )
            assert bumped >= base


class TestAssign:
    def test_forced_perfect_matching(self):
        papers = ["P1", "P2"]
        reviewers = [f"R{i}" for i in range(8)]
        constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=1)
        result = assign(papers, reviewers, full_sources(papers, reviewers), constraints)
        assert result.feasible and result.report.ok
        per_paper = {p: sum(1 for _, q in result.pairs if q == p) for p in papers}
        assert per_paper == {"P1": 4, "P2": 4}
        assert len({r for r, _ in result.pairs}) == 8  # no reviewer reused

    def test_author_reviewer_cap_and_shortfall(self):
        papers = ["P1"]
        reviewers = [f"R{i}" for i in range(5)]
        tags = {"R0": "Rev2", "R1": "Rev2", "R2": "Rev2"}
        constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=1)
        result = assign(papers, reviewers, full_sources(papers, reviewers), constraints, tags)
        assigned_tags = [tags.get(r) for r, _ in result.pairs]
        assert assigned_tags.count("Rev2") == 1
        assert len(result.pairs) == 3  # 1 author reviewer + 2 others
        assert result.shortfalls == {"P1": 1}
        assert not result.feasible

    def test_conflicts_never_assigned(self, rng):
        papers = [f"P{i}" for i in range(4)]
        reviewers = [f"R{i}" for i in range(12)]
        conflicts = frozenset({("R0", "P0"), ("R1", "P1"), ("R2", "P2")})
        constraints = AssignmentConstraints(
            min_reviewers_per_paper=3, max_papers_per_reviewer=2, conflicts=conflicts
        )
        result = assign(papers, reviewers, full_sources(papers, reviewers, rng), constraints)
        assert not (result.pairs & conflicts)
        assert result.report.checks["conflicts"] == []

    def test_local_search_beats_pure_greedy(self, rng):
        # the exact optimum can only match or beat a greedy fill
        for seed in range(10):
            import numpy as np

            local = np.random.default_rng(seed)
            papers = [f"P{i}" for i in range(20)]
            reviewers = [f"R{i}" for i in range(60)]
            sources = full_sources(papers, reviewers, local)
            constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=3)
            result = assign(papers, reviewers, sources, constraints)
            greedy_only = _greedy_baseline(papers, reviewers, sources, constraints)
            assert result.total_similarity >= greedy_only - 1e-12
            assert result.feasible and result.report.ok

    def test_deterministic(self, rng):
        papers = [f"P{i}" for i in range(6)]
        reviewers = [f"R{i}" for i in range(20)]
        sources = full_sources(papers, reviewers, rng)
        constraints = AssignmentConstraints(min_reviewers_per_paper=3, max_papers_per_reviewer=2)
        a = assign(papers, reviewers, sources, constraints)
        b = assign(papers, reviewers, sources, constraints)
        assert a.pairs == b.pairs and a.total_similarity == b.total_similarity

    def test_full_cover_found_where_greedy_falls_short(self):
        # Filling in similarity order spends R0 and R1 on P0 and P1 and
        # leaves only R2 for P2, but a full cover needs every reviewer at
        # capacity, R2 included.
        papers, reviewers = ["P0", "P1", "P2"], ["R0", "R1", "R2"]
        value = {"P0": 0.9, "P1": 0.8, "P2": 0.7}
        sources = {
            (r, p): SimilaritySources(bid=v, subject=v, tpms=v)
            for r in reviewers
            for p in papers
            for v in [0.1 if r == "R2" else value[p]]
        }
        constraints = AssignmentConstraints(min_reviewers_per_paper=2, max_papers_per_reviewer=2)
        result = assign(papers, reviewers, sources, constraints)
        assert result.feasible and result.shortfalls == {} and result.report.ok
        assert len(result.pairs) == 6
        # best full cover: R0 and R1 both on P0, R2 on P1 and P2
        assert result.total_similarity == pytest.approx(2 * 0.9 + 0.8 + 0.7 + 2 * 0.1, abs=1e-12)
        assert {r for r, p in result.pairs if p == "P0"} == {"R0", "R1"}

    def test_capacity_shortfall_is_infeasible(self):
        papers = [f"P{i}" for i in range(10)]
        reviewers = ["R0", "R1"]
        constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=2)
        with pytest.raises(InfeasibleInstanceError, match="papers/reviewer"):
            assign(papers, reviewers, full_sources(papers, reviewers), constraints)

    @pytest.mark.parametrize(
        "caps, message",
        [
            ({"min_reviewers_per_paper": 0}, "at least one reviewer per paper"),
            ({"max_papers_per_reviewer": 0}, "reviewer capacity must be positive"),
            ({"max_author_reviewers_per_paper": -1}, "author-reviewer cap must be nonnegative"),
        ],
    )
    def test_bad_caps_rejected(self, caps, message):
        with pytest.raises(ValueError, match=message):
            AssignmentConstraints(**caps)

    @pytest.mark.parametrize(
        "status, x, message",
        [
            (2, None, "^assignment LP failed: planted$"),
            (0, 0.5, "^assignment LP returned a fractional vertex$"),
        ],
    )
    def test_lp_failure_and_fractional_vertex_raise(self, monkeypatch, status, x, message):
        """A failed LP, and a vertex that is not integral, raise: there is no
        fallback to a rounded or a greedy assignment."""

        def linprog(c, **kwargs):
            return SimpleNamespace(status=status, message="planted", x=np.full(len(c), x))

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        papers, reviewers = ["P1", "P2"], [f"R{i}" for i in range(8)]
        constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=1)
        with pytest.raises(RuntimeError, match=message):
            assign(papers, reviewers, full_sources(papers, reviewers), constraints)


def _greedy_baseline(papers, reviewers, sources, constraints):
    sim = {
        (r, p): combined_similarity(src)
        for (r, p), src in sources.items()
        if (r, p) not in constraints.conflicts
    }
    load = {r: 0 for r in reviewers}
    cover = {p: 0 for p in papers}
    total = 0.0
    for (r, p) in sorted(sim, key=lambda k: (-sim[k], k[0], k[1])):
        if cover[p] < constraints.min_reviewers_per_paper and load[r] < constraints.max_papers_per_reviewer:
            load[r] += 1
            cover[p] += 1
            total += sim[(r, p)]
    return total


class TestCheckConstraints:
    def test_compliant(self):
        pairs = {("R0", "P0"), ("R1", "P0")}
        constraints = AssignmentConstraints(min_reviewers_per_paper=2, max_papers_per_reviewer=1)
        report = check_constraints(pairs, ["P0"], constraints)
        assert report.ok

    def test_lone_wolf_violation_lists_pairs(self):
        pairs = {("R0", "P0"), ("R1", "P0"), ("R2", "P0"), ("R3", "P0")}
        tags = {"R0": "Rev2", "R1": "Rev2"}
        constraints = AssignmentConstraints(min_reviewers_per_paper=2, max_papers_per_reviewer=1)
        report = check_constraints(pairs, ["P0"], constraints, tags)
        assert report.checks["lone-wolf mitigation"] == [("R0", "P0"), ("R1", "P0")]
        assert not report.ok

    def test_conflict_violation(self):
        pairs = {("R0", "P0"), ("R1", "P0")}
        constraints = AssignmentConstraints(
            min_reviewers_per_paper=1, max_papers_per_reviewer=2, conflicts=frozenset({("R0", "P0")})
        )
        report = check_constraints(pairs, ["P0"], constraints)
        assert report.checks["conflicts"] == [("R0", "P0")]

    def test_coverage_violation(self):
        constraints = AssignmentConstraints(min_reviewers_per_paper=4, max_papers_per_reviewer=2)
        report = check_constraints({("R0", "P0")}, ["P0"], constraints)
        assert report.checks["minimum reviewers per paper"] == [("P0", 1)]


def test_random_feasible_instances_satisfy_all_constraints(rng):
    import numpy as np

    for seed in range(20):
        local = np.random.default_rng(seed)
        n_papers = int(local.integers(3, 8))
        n_reviewers = int(local.integers(16, 30))
        papers = [f"P{i}" for i in range(n_papers)]
        reviewers = [f"R{i}" for i in range(n_reviewers)]
        tags = {r: "Rev2" for r in reviewers if local.uniform() < 0.2}
        conflicts = frozenset(
            (r, p) for r in reviewers for p in papers if local.uniform() < 0.02
        )
        constraints = AssignmentConstraints(
            min_reviewers_per_paper=4,
            max_papers_per_reviewer=3,
            conflicts=conflicts,
        )
        result = assign(papers, reviewers, full_sources(papers, reviewers, local), constraints, tags)
        assert result.feasible, f"seed {seed} unexpectedly infeasible"
        assert result.report.ok


def _milp_oracle(pairs, sim, papers, reviewers, tags, constraints):
    """Fewest uncovered slots, then the largest similarity, by two integer
    programs over a dense constraint matrix."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(pairs)
    rows, ub = [], []
    for p in papers:
        rows.append([float(q == p) for _, q in pairs])
        ub.append(constraints.min_reviewers_per_paper)
        rows.append([float(q == p and tags.get(r) == "Rev2") for r, q in pairs])
        ub.append(constraints.max_author_reviewers_per_paper)
    for r in reviewers:
        rows.append([float(s == r) for s, _ in pairs])
        ub.append(constraints.max_papers_per_reviewer)
    limits = LinearConstraint(np.array(rows), -np.inf, np.array(ub, dtype=float))
    ones = np.ones(n)
    binary = dict(integrality=ones, bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    most = milp(-ones, constraints=[limits], **binary)
    n_pairs = round(-most.fun)
    fixed = LinearConstraint(ones[None, :], n_pairs, n_pairs)
    best = milp(-np.asarray(sim), constraints=[limits, fixed], **binary)
    assert most.status == 0 and best.status == 0
    deficit = constraints.min_reviewers_per_paper * len(papers) - n_pairs
    return -best.fun, deficit


def test_matches_integer_program_oracle():
    import numpy as np

    tight = short = 0
    for seed in range(30):
        local = np.random.default_rng(1000 + seed)
        n_papers = int(local.integers(2, 6))
        n_reviewers = int(local.integers(2, 8))
        k = int(local.integers(1, 4))
        cap = max(int(local.integers(1, 4)), -(-k * n_papers // n_reviewers))
        papers = [f"P{i}" for i in range(n_papers)]
        reviewers = [f"R{i}" for i in range(n_reviewers)]
        density = local.uniform(0.4, 1.0)
        sources = {
            (r, p): SimilaritySources(
                bid=float(local.uniform()), subject=float(local.uniform()), tpms=float(local.uniform())
            )
            for r in reviewers
            for p in papers
            if local.uniform() < density
        }
        tags = {r: "Rev2" for r in reviewers if local.uniform() < 0.3}
        conflicts = frozenset(pair for pair in sorted(sources) if local.uniform() < 0.1)
        constraints = AssignmentConstraints(
            min_reviewers_per_paper=k, max_papers_per_reviewer=cap, conflicts=conflicts
        )
        result = assign(papers, reviewers, sources, constraints, tags)

        pairs = sorted(pair for pair in sources if pair not in conflicts)
        sim = [combined_similarity(sources[pair]) for pair in pairs]
        objective, deficit = _milp_oracle(pairs, sim, papers, reviewers, tags, constraints)
        assert abs(result.total_similarity - objective) <= 1e-9, seed
        assert sum(result.shortfalls.values()) == deficit, seed
        assert result.feasible == (deficit == 0)
        assert result.report.checks["minimum reviewers per paper"] == sorted(
            (p, k - d) for p, d in result.shortfalls.items()
        )
        others = {n: v for n, v in result.report.checks.items() if n != "minimum reviewers per paper"}
        assert all(not v for v in others.values()), seed
        tight += cap * n_reviewers == k * n_papers
        short += deficit > 0
    assert tight >= 3 and short >= 5  # the draw covers both hard cases
