"""Reviewer bias calibration with a three-variance Gaussian model.

Each stacked review score decomposes as

    s = q(paper) + b(reviewer) + noise,
    q ~ N(mu_q, sigma_q^2),  b ~ N(0, sigma_b^2),  noise ~ N(0, sigma_e^2)

With unique (paper, reviewer) pairs the covariance of s, divided by
sigma_q^2, is

    K = Zp Zp^T + a Zr Zr^T + c I,   a = sigma_b^2 / sigma_q^2,  c = sigma_e^2 / sigma_q^2

where Zp and Zr map score entries to papers and reviewers; sigma_q^2 has a
closed-form maximum-likelihood value at each (a, c).

No n x n matrix is formed.  One group is factored: the reviewers when
R <= P, else the papers.  Call its variance ratio g (a for reviewers, 1 for
papers) and its indicator matrix Z.  The other group's term O = c I +
g_o Zo Zo^T is block diagonal, so K = O + g Z Z^T, and with r = s - mu_q
and u = Z^T O^-1 r one Cholesky factor of the bordered matrix

    [[I + g Z^T O^-1 Z,  sqrt(g) u  ],
     [sqrt(g) u^T,       r^T O^-1 r ]]

gives log|K| = log|O| + 2 sum(log diag L[:m]) and r^T K^-1 r = L[m, m]^2
(Woodbury and the matrix determinant lemma; Henderson's mixed-model
equations).  The matrix is built from the entry pairs that share an
other-group block and factored in place by a blocked Cholesky, numpy only.

:func:`calibrate` starts at the method-of-moments estimate of Gao & Owen
(2017), clipped into the grid's box, and minimizes the exact profile NLL
in log space by a deterministic, bounded quadratic-model trust-region
search in the manner of BOBYQA (Powell 2009), as lme4 fits the same
crossed model (Bates et al. 2015): six points fix an interpolating
quadratic, each step goes to its least point in the box within the trust
radius, and the ratio of the actual to the predicted decrease resizes the
radius.  Once, after its first gain, a search heading for the box's
no-bias corner (least a, most c) tries that corner.  It stops at a
radius of XATOL where the model, its points near the best or its best at
a corner of the box, predicts at most FATOL nats, or after SEARCH_BUDGET
evaluations; on the benchmark's corpora that takes 11 to 19 evaluations
on the review side and 12 to 29, a median of 14, on the meta-review
side.
:func:`fit_hyperparams` is the exact grid search on the same evaluator.
The bias term is removed by Gaussian conditioning, E[b | s] =
a Zr^T K^-1 r, and Monte-Carlo draws of b from the same factor turn
ranked samples into per-paper acceptance probabilities.  One evaluation
costs O(sum of block sizes squared) to build the m x m matrix and O(m^3)
to factor it, m = min(R, P) + 1; memory is O(m^2 + n).  The sampler works
SAMPLE_BLOCK samples at a time, so its memory is O(SAMPLE_BLOCK x (n + m))
whatever the number of samples.

:func:`calibrate` serves reviews and meta-reviews alike (meta-reviewers
take the reviewer role).  Where the data cannot pin the bias term down,
because no reviewer covers two papers or every score is equal, it passes
the scores through uncalibrated with a warning that names the cause.

``build_covariance``, ``nll`` and ``fit_sigma_q`` keep the dense O(n^3)
formulas as a reference for tests; no pipeline path calls them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .scoring import DecisionConfig, id_rank, normalize, paper_pairs, weighted_paper_mean

__all__ = [
    "CalibrationInputs",
    "GridSpec",
    "Hyperparams",
    "PosteriorCovariance",
    "AcceptanceEstimate",
    "DegenerateModelError",
    "UnidentifiableModelWarning",
    "bias_identifiable",
    "build_covariance",
    "nll",
    "fit_sigma_q",
    "fit_hyperparams",
    "posterior",
    "Calibration",
    "calibrate",
    "acceptance_probability",
]


class DegenerateModelError(ValueError):
    """The likelihood cannot be evaluated (zero residual or non-PD matrix)."""


class UnidentifiableModelWarning(UserWarning):
    """Bias terms cannot be separated from paper quality on this data."""


@dataclass
class CalibrationInputs:
    """Stacked score vector with paper/reviewer index labels per entry.

    Each (paper, reviewer) pair appears at most once: the model's noise
    term is diagonal only under that condition.
    """

    s: np.ndarray
    paper_idx: np.ndarray
    reviewer_idx: np.ndarray
    paper_ids: list[str]
    reviewer_ids: list[str]
    confidences: np.ndarray | None = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.paper_idx = np.asarray(self.paper_idx, dtype=int)
        self.reviewer_idx = np.asarray(self.reviewer_idx, dtype=int)
        n = len(self.s)
        if len(self.paper_idx) != n or len(self.reviewer_idx) != n:
            raise ValueError("labels must align with the score vector")
        if n < 2:
            raise ValueError("calibration needs at least two stacked scores")
        if not np.isfinite(self.s).all():
            raise ValueError("s: every score must be finite")
        for idx, ids, what in (
            (self.paper_idx, self.paper_ids, "paper"),
            (self.reviewer_idx, self.reviewer_ids, "reviewer"),
        ):
            if idx.min() < 0 or idx.max() >= len(ids):
                raise ValueError(f"{what} labels must index {what}_ids")
        n_rev = len(self.reviewer_ids)
        keys, counts = np.unique(self.paper_idx * n_rev + self.reviewer_idx, return_counts=True)
        if np.any(counts > 1):
            pairs = [
                (self.paper_ids[k // n_rev], self.reviewer_ids[k % n_rev])
                for k in keys[counts > 1]
            ]
            raise ValueError(f"duplicate (paper, reviewer) pairs: {pairs}")
        c = np.ones(n) if self.confidences is None else np.asarray(self.confidences, dtype=float)
        if c.shape != (n,) or not (np.isfinite(c) & (c > 0)).all():
            raise ValueError("confidences: need one finite positive value per score")
        self.confidences = c

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def n_papers(self) -> int:
        return len(self.paper_ids)


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic grid over the two variance ratios, from ``lo`` to ``hi``
    (either may be the larger); both bounds positive and finite.  Its box
    bounds the search of :func:`calibrate`; ``points`` is read only by
    :func:`fit_hyperparams`."""

    lo: float = 1e-2
    hi: float = 1e2
    points: int = 13

    def __post_init__(self):
        if not (0 < self.lo < np.inf and 0 < self.hi < np.inf):
            raise ValueError(f"grid bounds must be positive and finite: {self.lo!r}, {self.hi!r}")
        if self.points < 1:
            raise ValueError("grid needs at least one point")

    def values(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class Hyperparams:
    """Fitted model parameters; the ratios are relative to sigma_q^2.
    ``grid`` holds the fit's rows, if any, and takes no part in comparison."""

    sigma_q2: float
    sb2_hat: float
    se2_hat: float
    mu_q: float
    grid: tuple[dict, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.sigma_q2 <= 0:
            raise ValueError("sigma_q^2 must be positive")
        if self.se2_hat <= 0:
            raise ValueError("noise ratio must be positive")
        if self.sb2_hat < 0:
            raise ValueError("bias ratio must be nonnegative")

    @property
    def sigma_b2(self) -> float:
        return self.sb2_hat * self.sigma_q2

    @property
    def sigma_e2(self) -> float:
        return self.se2_hat * self.sigma_q2


def bias_identifiable(reviewer_idx) -> bool:
    """Whether the bias variance can be told apart from the noise: some
    reviewer covers more than one paper.  When every reviewer scores a
    single entry, only sigma_b^2 + sigma_e^2 is identified."""
    return bool(np.any(np.bincount(np.asarray(reviewer_idx)) > 1))


def build_covariance(paper_idx, reviewer_idx, sb2_hat: float, se2_hat: float) -> np.ndarray:
    """Dense scaled covariance: 1 per shared paper, the bias ratio per
    shared reviewer, the noise ratio on the diagonal.  O(n^2) memory; a
    reference for tests, not used by the fit."""
    pi = np.asarray(paper_idx)
    ri = np.asarray(reviewer_idx)
    same_paper = (pi[:, None] == pi[None, :]).astype(float)
    same_reviewer = (ri[:, None] == ri[None, :]).astype(float)
    return same_paper + sb2_hat * same_reviewer + se2_hat * same_paper * same_reviewer


def _dense_quad_logdet(k_hat: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(r^T K^-1 r, log|K|) via one dense Cholesky factor."""
    try:
        low = np.linalg.cholesky(k_hat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"covariance not positive definite: {exc}") from exc
    z = np.linalg.solve(low, r)
    return float(z @ z), 2.0 * float(np.sum(np.log(np.diag(low))))


def nll(s, k_hat, sigma_q2: float, mu_q: float) -> float:
    """Negative log-likelihood of the stacked scores under a dense scaled
    covariance (reference formula)."""
    s = np.asarray(s, dtype=float)
    n = len(s)
    if sigma_q2 <= 0:
        raise DegenerateModelError("sigma_q^2 must be positive")
    quad, logdet = _dense_quad_logdet(k_hat, s - mu_q)
    return 0.5 * n * np.log(2.0 * np.pi * sigma_q2) + 0.5 * logdet + quad / (2.0 * sigma_q2)


def fit_sigma_q(s, k_hat, mu_q: float) -> float:
    """Closed-form maximizer of the likelihood in sigma_q^2 given a dense
    scaled covariance: the K-whitened mean square of the centered scores
    (reference formula)."""
    s = np.asarray(s, dtype=float)
    quad, _ = _dense_quad_logdet(k_hat, s - mu_q)
    sigma_q2 = quad / len(s)
    if sigma_q2 <= 0:
        raise DegenerateModelError("zero centered score vector: sigma_q^2 degenerate")
    return sigma_q2


# rows one step of the blocked Cholesky factors: a matrix of this size or
# less is one LAPACK call.  Of 256, 512 and 1,024, 256 ran fastest at the
# paper's scale (5,527 rows).
CHOLESKY_BLOCK = 256


class _Bordered:
    """Lower Cholesky factor L of a bordered matrix [[A, v], [v^T, t]],
    A being m x m, computed in place by blocks, with ``logdet`` = log|A|,
    ``quad`` = t - v^T A^-1 v and ``border`` = L_A^-1 v.

    For the panel updates and the triangular solves, each diagonal block
    of ``low`` is replaced by its inverse: at once, but for the last block,
    which waits for the first solve.  Outside the diagonal blocks the upper
    triangle keeps the input.
    """

    def __init__(self, mat: np.ndarray):
        size = len(mat)
        self.low, self.m, self.logdet = mat, size - 1, 0.0
        self.starts = range(0, size, CHOLESKY_BLOCK)
        for j in self.starts:
            e = min(j + CHOLESKY_BLOCK, size)
            try:
                block = np.linalg.cholesky(mat[j:e, j:e])
            except np.linalg.LinAlgError as exc:
                raise DegenerateModelError(f"covariance not positive definite: {exc}") from exc
            self.logdet += 2.0 * float(np.sum(np.log(np.diagonal(block)[:self.m - j])))
            if e == size:
                mat[j:e, j:e] = block
                break
            mat[j:e, j:e] = np.linalg.inv(block)
            panel = mat[e:, j:e]
            panel[...] = panel @ mat[j:e, j:e].T
            for k in range(e, size, CHOLESKY_BLOCK):
                cols = panel[k - e:k - e + CHOLESKY_BLOCK]
                mat[k:, k:k + CHOLESKY_BLOCK] -= panel[k - e:] @ cols.T
        self.quad = float(mat[self.m, self.m]) ** 2
        self.border = mat[self.m, :self.m].copy()
        self.last_inverted = False

    def solve_t(self, rows: np.ndarray) -> np.ndarray:
        """rows L_A^-1, that is L_A^-T applied to each row, by block back
        substitution (the border column enters as zero)."""
        size = self.m + 1
        last = self.starts[-1]
        if not self.last_inverted:
            self.low[last:, last:] = np.linalg.inv(self.low[last:, last:])
            self.last_inverted = True
        x = np.zeros((len(rows), size))
        x[:, :self.m] = rows
        for j in reversed(self.starts):
            e = min(j + CHOLESKY_BLOCK, size)
            if e < size:
                x[:, j:e] -= x[:, e:] @ self.low[e:, j:e]
            x[:, j:e] = x[:, j:e] @ self.low[j:e, j:e]
        return x[:, :self.m]


class _Model:
    """K reduced onto the smaller of the two groups, for one set of inputs:
    the reviewers when R <= P, else the papers.  Called at (a, c), it gives
    the profile NLL with sigma_q^2 at its closed-form optimum and mu_q the
    mean score.  Each distinct point is evaluated once; the non-degenerate
    ones are kept as rows, in evaluation order."""

    def __init__(self, inputs: CalibrationInputs):
        n_rev = len(inputs.reviewer_ids)
        self.on_reviewers = n_rev <= inputs.n_papers
        if self.on_reviewers:
            self.group, self.other, self.m = inputs.reviewer_idx, inputs.paper_idx, n_rev
            n_other = inputs.n_papers
        else:
            self.group, self.other, self.m = inputs.paper_idx, inputs.reviewer_idx, inputs.n_papers
            n_other = n_rev
        self.count = np.bincount(self.group, minlength=self.m)
        self.block = np.bincount(self.other, minlength=n_other)
        # every ordered pair of entries in one other-group block, each entry
        # with itself included, as a flat index into the bordered matrix
        order = np.argsort(self.other, kind="stable")
        left, right = paper_pairs(self.other[order], self.block)
        group = self.group[order]
        self.pair_key = group[left] * (self.m + 1) + group[right]
        self.pair_block = self.other[order][left]
        self.mu_q = float(np.mean(inputs.s))
        self.r = inputs.s - self.mu_q
        self.values: dict[tuple[float, float], float] = {}
        self.rows: list[dict] = []

    def ratios(self, a: float, c: float) -> tuple[float, float, np.ndarray]:
        """g, the factored group's variance ratio, g_o, the other group's,
        and per other-group block h of n_h entries w_h = g_o / (c + g_o n_h),
        so that O^-1 is (I - w_h 1 1^T) / c there."""
        g, g_other = (a, 1.0) if self.on_reviewers else (1.0, a)
        return g, g_other, g_other / (c + g_other * self.block)

    def o_inv(self, x: np.ndarray, w: np.ndarray, c: float) -> np.ndarray:
        """O^-1 x for a vector over the entries."""
        block_sum = np.bincount(self.other, weights=x, minlength=len(w))
        return (x - w[self.other] * block_sum[self.other]) / c

    def factor(self, a: float, c: float, r: np.ndarray) -> tuple[_Bordered, float]:
        """The bordered matrix at (a, c) for centered scores r, factored,
        and log|O|."""
        g, g_other, w = self.ratios(a, c)
        m = self.m
        mat = np.bincount(
            self.pair_key, weights=w[self.pair_block], minlength=(m + 1) ** 2
        ).reshape(m + 1, m + 1)
        mat *= -g / c
        mat[np.diag_indices(m)] += 1.0 + (g / c) * self.count
        o_inv_r = self.o_inv(r, w, c)
        mat[m, :m] = mat[:m, m] = np.sqrt(g) * np.bincount(self.group, weights=o_inv_r, minlength=m)
        mat[m, m] = r @ o_inv_r
        logdet_o = len(r) * np.log(c) + float(np.sum(np.log1p(g_other * self.block / c)))
        return _Bordered(mat), logdet_o

    def __call__(self, a: float, c: float) -> float:
        if (a, c) not in self.values:
            n = len(self.r)
            self.values[(a, c)] = np.inf
            try:
                fac, logdet_o = self.factor(a, c, self.r)
            except DegenerateModelError:
                return np.inf
            sigma_q2 = fac.quad / n
            if sigma_q2 > 0:
                logdet = logdet_o + fac.logdet
                val = float(0.5 * n * np.log(2.0 * np.pi * sigma_q2) + 0.5 * (logdet + n))
                self.rows.append({"sb2_hat": a, "se2_hat": c, "sigma_q2": sigma_q2, "nll": val})
                self.values[(a, c)] = val
        return self.values[(a, c)]

    def best(self) -> Hyperparams:
        """The row of least NLL, the earliest among equals."""
        if not self.rows:
            raise DegenerateModelError("all grid points degenerate")
        row = min(self.rows, key=lambda row: row["nll"])
        return Hyperparams(
            sigma_q2=row["sigma_q2"], sb2_hat=row["sb2_hat"], se2_hat=row["se2_hat"],
            mu_q=self.mu_q, grid=tuple(self.rows),
        )


def fit_hyperparams(inputs: CalibrationInputs, grid: GridSpec | None = None) -> Hyperparams:
    """Grid search over the two variance ratios with profiled sigma_q^2.

    mu_q is the sample mean of the stacked scores.  Each grid point gets
    its closed-form sigma_q^2 and profile NLL; the argmin wins, and every
    non-degenerate point is kept in its ``grid`` rows.  Ties are
    broken toward the earlier grid point (bias ratio outer, noise ratio
    inner), so duplicate points are harmless.  Warns with
    :class:`UnidentifiableModelWarning` when no reviewer covers two papers,
    and raises :class:`DegenerateModelError` when every score is equal.
    """
    grid = grid or GridSpec()
    if np.all(inputs.s == inputs.s[0]):
        raise DegenerateModelError(
            f"every score equals {float(inputs.s[0])!r}: no variance to split "
            "between papers, reviewer bias and noise"
        )
    if not bias_identifiable(inputs.reviewer_idx):
        warnings.warn(
            "every reviewer covers a single paper: sigma_b^2 and sigma_e^2 are "
            "not separately identified",
            UnidentifiableModelWarning,
            stacklevel=2,
        )
    fit = _Model(inputs)
    values = [float(v) for v in grid.values()]
    for a in values:
        for c in values:
            fit(a, c)
    return fit.best()


def _moment_estimate(inputs: CalibrationInputs) -> np.ndarray:
    """Method-of-moments (sigma_q^2, sigma_b^2, sigma_e^2) of Gao & Owen
    (2017).  Half the mean squared difference of the score pairs on one
    paper estimates sigma_b^2 + sigma_e^2 (m_p), of one reviewer
    sigma_q^2 + sigma_e^2 (m_r), and of all pairs T - p sigma_q^2 -
    r sigma_b^2 (m_a), with T the sum of the three variances and p and r
    the shares of the pairs that are on one paper and of one reviewer.
    Needs a reviewer with two entries, so that m_r exists.  Solved exactly
    when some pair shares a paper (then some pair shares neither, and
    p + r < 1).  Else the system is singular and gets its min-norm
    solution: q and the noise enter only as their sum, which is split
    evenly, and if one reviewer has every entry, sigma_b^2 is 0."""
    s = inputs.s

    def pairs(idx) -> tuple[float, float]:
        count = np.bincount(idx)
        mean = np.bincount(idx, weights=s) / np.maximum(count, 1)
        n_pairs = float(np.sum(count * (count - 1.0)) / 2.0)
        half_sq = 0.5 * float(np.sum(count[idx] * (s - mean[idx]) ** 2))
        return half_sq / max(n_pairs, 1.0), n_pairs

    m_p, n_p = pairs(inputs.paper_idx)
    m_r, n_r = pairs(inputs.reviewer_idx)
    m_a, n_a = pairs(np.zeros(inputs.n, dtype=int))
    if n_p == 0:
        bias = (m_a - m_r) * n_a / (n_a - n_r) if n_r < n_a else 0.0
        return np.array([m_r / 2.0, bias, m_r / 2.0])
    total = (n_a * m_a - n_p * m_p - n_r * m_r) / (n_a - n_p - n_r)
    return np.array([total - m_p, total - m_r, m_p + m_r - total])


# at most this many likelihood evaluations per calibrate call
SEARCH_BUDGET = 60
# The quadratic-model search in (log a, log c): the radius of its first
# design; its stop, at a trust radius of at most XATOL where the model
# predicts a decrease of at most FATOL nats and no point is more than
# SPREAD x XATOL from the best; the size a point's Lagrange value at a new
# point must exceed for the new point to take its place; and the lattice
# all points lie on, so that rounding in the likelihood, which depends on
# the BLAS thread count, cannot move them.  On the benchmark's corpora
# (200 and 1,000 papers), FATOL = 1e-6 stopped a meta-review fit 1.6e-6
# nats short on the likelihood's flat tail toward a = 0, and 1e-7 none by
# more than 2e-7.  Of SPREAD = 8, 10, 12, 14 and 16, 12 and 14 left the
# fewest fits above 20 evaluations (5 of 198) and 16 stopped a meta-review
# fit 2.7e-6 nats short; 12 keeps a margin from 16.
SEARCH_STEP = 0.3
XATOL = 1e-2
FATOL = 1e-7
SPREAD = 12.0
POISED = 1e-3
LATTICE = 2.0**-12


class _BudgetSpent(Exception):
    pass


def _terms(u1: float, u2: float) -> list[float]:
    """The terms of a quadratic in two variables at (u1, u2)."""
    return [1.0, u1, u2, u1 * u1 / 2.0, u2 * u2 / 2.0, u1 * u2]


def _box_min(coef: np.ndarray, lower, upper) -> tuple[float, float]:
    """The least point over the box [lower, upper], which holds 0, of the
    quadratic with coefficients ``coef`` on :func:`_terms`.  Exact: the
    least of 0, the corners, each edge's stationary point and the interior
    one, the earliest among equals."""
    _, g1, g2, h11, h22, h12 = coef.tolist()
    (l1, l2), (r1, r2) = lower, upper
    points = [(0.0, 0.0), (l1, l2), (l1, r2), (r1, l2), (r1, r2)]
    if h22 > 0:
        points += [(v, min(max(-(g2 + h12 * v) / h22, l2), r2)) for v in (l1, r1)]
    if h11 > 0:
        points += [(min(max(-(g1 + h12 * v) / h11, l1), r1), v) for v in (l2, r2)]
    det = h11 * h22 - h12 * h12
    if h11 > 0 and det > 0:
        v1, v2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
        points.append((min(max(v1, l1), r1), min(max(v2, l2), r2)))
    values = [g1 * v1 + g2 * v2 + (h11 * v1 * v1 + h22 * v2 * v2) / 2.0 + h12 * v1 * v2
              for v1, v2 in points]
    return points[values.index(min(values))]


def _search(fit: _Model, start: tuple[float, float], grid: GridSpec) -> bool:
    """Minimize the profile NLL over x = (log a, log c) in the grid's box
    by a quadratic-model trust-region search in the manner of Powell's
    BOBYQA, from ``start`` clipped into the box.  Deterministic; returns
    whether the search stopped on its budget.

    Six points fix an interpolating quadratic: the start, two more on each
    axis SEARCH_STEP away (one each side, or both ahead at an edge), and
    the corner between the better of each pair.  A step goes to the
    model's least point in the box within the trust radius, a square of
    half-width first SEARCH_STEP, and takes the place of the point
    farthest from the best that keeps the six well posed.  The ratio of
    the actual to the predicted decrease resizes the radius: halved below
    0.1, else at least the step, and twice the step above 0.7.  After a
    step that failed, ratio below 0.1, the farthest point, if further than
    SPREAD radii, moves to where its Lagrange function is largest in size
    within the radius (at least XATOL).

    The first step that gains, if it lowers a and raises c, is followed by
    one try of the box's corner (lo, hi), where the bias variance is least
    and the noise most; it joins the points only if it is better than the
    best, and the radius grows to reach it.  Where no reviewer bias shows,
    the likelihood falls toward that corner as a / (1 + c) shrinks, ever
    more slowly in log space, and a quadratic model follows it there only
    in many short steps.

    A model that predicts at most FATOL sets the radius to XATOL; at that
    radius the search stops if every point is within SPREAD x XATOL of the
    best or the best is a corner of the box that the model's slope points
    out of on both sides, else the farthest point moves.  It also stops
    where no point within reach would keep the six well posed, and at a
    point where the likelihood is degenerate.
    """
    bounds = sorted((grid.lo, grid.hi))
    lo, hi = np.log(bounds).tolist()

    def f(x: tuple[float, float]) -> float:
        point = tuple(
            bounds[0] if v <= lo else bounds[1] if v >= hi else float(np.exp(v)) for v in x
        )
        if point not in fit.values and len(fit.values) >= SEARCH_BUDGET:
            raise _BudgetSpent
        return fit(*point)

    def gap(x, y) -> float:
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def snap(x) -> tuple[float, float]:
        """The nearest lattice point, or bound within half a spacing."""
        half = LATTICE / 2.0
        return tuple(
            lo if v < lo + half else hi if v > hi - half else round(v / LATTICE) * LATTICE
            for v in x
        )

    x0 = snap(np.log(start).tolist())
    radius = min(SEARCH_STEP, (hi - lo) / 2.0)
    try:
        ys, fs = [x0], [f(x0)]
        if radius == 0.0:  # the box is one point
            return False
        corner = list(x0)
        for i in range(2):
            ahead = radius if x0[i] + radius <= hi else -radius
            for step in (ahead, -ahead if lo <= x0[i] - ahead <= hi else 2.0 * ahead):
                x = list(x0)
                x[i] += step
                ys.append(snap(x))
                fs.append(f(ys[-1]))
            corner[i] = ys[-2][i] if fs[-2] <= fs[-1] else ys[-1][i]
        ys.append(tuple(corner))
        fs.append(f(ys[-1]))
        improve = due = False
        probe = True
        while np.isfinite(fs).all():
            fb = min(fs)
            b = fs.index(fb)
            xb = ys[b]
            dist = [gap(y, xb) for y in ys]
            scale = max(dist)

            def terms(x) -> list[float]:
                return _terms((x[0] - xb[0]) / scale, (x[1] - xb[1]) / scale)

            def least(coef: np.ndarray, reach: float) -> tuple[float, float]:
                u = _box_min(
                    coef,
                    [max(lo - v, -reach) / scale for v in xb],
                    [min(hi - v, reach) / scale for v in xb],
                )
                return snap((xb[0] + scale * u[0], xb[1] + scale * u[1]))

            inverse = np.linalg.inv(np.array([terms(y) for y in ys]))
            reach = max(radius, XATOL)
            move_far, improve = improve and scale > SPREAD * reach, False
            if move_far:
                far = dist.index(scale)
                ell = inverse[:, far]
                options = [least(ell, reach), least(-ell, reach)]
                sizes = [abs(float(np.dot(terms(x), ell))) for x in options]
                if max(sizes) <= POISED:
                    return False
                ys[far] = options[sizes.index(max(sizes))]
                fs[far] = f(ys[far])
                continue
            probing, due = due and (lo, hi) not in ys, False
            if probing:
                x = (lo, hi)
                t = np.array(terms(x))
                fx = f(x)
                if fx >= fb:
                    continue
                radius = max(radius, gap(x, xb))
            else:
                coef = inverse @ (np.array(fs) - fb)
                x = least(coef, radius)
                t = np.array(terms(x))
                pred = float(coef[0] - t @ coef)
                if pred <= FATOL:
                    # at a corner of the box whose every side the model's
                    # slope points out of, the points need not gather
                    cornered = all(v in (lo, hi) for v in xb) and all(
                        g >= 0.0 if v == lo else g <= 0.0 for v, g in zip(xb, coef[1:3].tolist())
                    )
                    if radius > XATOL:
                        radius = XATOL
                    elif scale <= SPREAD * XATOL or cornered:
                        return False
                    else:
                        improve = True
                    continue
                fx = f(x)
                ratio = (fb - fx) / pred
                step = gap(x, xb)
                if ratio < 0.1:
                    radius /= 2.0
                else:
                    radius = max(radius / 2.0, step if ratio < 0.7 else 2.0 * step)
                improve = ratio < 0.1
                if probe and fx < fb:
                    probe, due = False, x[0] < xb[0] and x[1] > xb[1]
            # x takes the place of the point farthest from the best whose
            # Lagrange value at x, the factor by which the interpolation
            # system's determinant changes, is large enough; of the best
            # point only if x is better
            keep = np.abs(t @ inverse) > POISED
            keep[b] &= fx < fb
            if keep.any():
                ref = x if fx < fb else xb
                dist = [gap(y, ref) for y in ys]
                j = int(np.argmax(np.where(keep, dist, -1.0)))
                ys[j], fs[j] = x, fx
        return False
    except _BudgetSpent:
        return True


@dataclass(frozen=True, eq=False)
class PosteriorCovariance:
    """Posterior covariance of the bias-removed scores, Cov(y | s) =
    Zr Cov(b | s) Zr^T, kept as a recipe for draws of b - E[b | s]:

        sd * z0 + coef * T L^-T z1,   z0, z1 standard normal,

    with L the factor of the fit's reduced matrix (``factor``; None for a
    zero-width part) and T the identity when reviewers were factored, or
    the sum over each reviewer's papers when papers were (``paper_idx``
    then holds the entries' papers).  ``sd`` None means no independent
    part.

    ``np.asarray`` gives the dense n x n matrix, for small n only.
    """

    reviewer_idx: np.ndarray
    coef: np.ndarray
    factor: _Bordered | None = None
    sd: np.ndarray | None = None
    paper_idx: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.reviewer_idx), len(self.reviewer_idx))

    def _spread(self, x: np.ndarray) -> np.ndarray:
        """coef * T x for rows x over the factored group: (rows, R)."""
        if self.paper_idx is None:
            return x * self.coef
        rows, n_rev = len(x), len(self.coef)
        keys = (np.arange(rows)[:, None] * n_rev + self.reviewer_idx).ravel()
        sums = np.bincount(keys, weights=x[:, self.paper_idx].ravel(), minlength=rows * n_rev)
        return sums.reshape(rows, n_rev) * self.coef

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of b - E[b | s], one row each.  A row's standard
        normals are drawn together, so rows do not depend on how the draws
        are batched."""
        n_rev = len(self.coef)
        width = 0 if self.sd is None else n_rev
        m = 0 if self.factor is None else self.factor.m
        z = rng.standard_normal((size, width + m))
        bias = np.zeros((size, n_rev)) if self.sd is None else z[:, :width] * self.sd
        if self.factor is not None:
            bias += self._spread(self.factor.solve_t(z[:, width:]))
        return bias

    @property
    def bias_cov(self) -> np.ndarray:
        """Cov(b | s), R x R."""
        cov = np.diag(np.zeros(len(self.coef)) if self.sd is None else self.sd**2)
        if self.factor is not None:
            w = self._spread(self.factor.solve_t(np.eye(self.factor.m)))
            cov += w.T @ w
        return cov

    def __array__(self, dtype=None, copy=None):
        dense = self.bias_cov[np.ix_(self.reviewer_idx, self.reviewer_idx)]
        return dense if dtype is None else dense.astype(dtype)


def posterior(inputs: CalibrationInputs, hp: Hyperparams) -> tuple[np.ndarray, PosteriorCovariance]:
    """Conditional Gaussian over the bias-removed scores y = s - b(reviewer).

    With a = sb2_hat, c = se2_hat and the bordered factor at (a, c),
    v = L^-T L[m, :m] is sqrt(g) (I + g Z^T O^-1 Z)^-1 u, so

        K^-1 r   = O^-1 (r - sqrt(g) Z v),   mu_y = s - Zr a Zr^T K^-1 r.

    Cov(b | s) / sigma_q^2 is a (L L^T)^-1 when reviewers are factored, and
    diag(a c / (c + a m_r)) + a^2 Q (L L^T)^-1 Q^T when papers are, with
    m_r the reviewer's entries and Q = Zr^T O^-1 Zp, 1 / (c + a m_r) where
    reviewer r scored paper p.  Exact at a = 0.
    """
    a, c, r = hp.sb2_hat, hp.se2_hat, inputs.s - hp.mu_q
    model = _Model(inputs)
    g, _, w = model.ratios(a, c)
    fac, _ = model.factor(a, c, r)
    v = fac.solve_t(fac.border[None])[0]
    k_inv_r = model.o_inv(r - np.sqrt(g) * v[model.group], w, c)
    n_rev = len(inputs.reviewer_ids)
    bias = a * np.bincount(inputs.reviewer_idx, weights=k_inv_r, minlength=n_rev)
    mu_y = inputs.s - bias[inputs.reviewer_idx]
    sq = np.sqrt(hp.sigma_q2)
    if model.on_reviewers:
        sigma_y = PosteriorCovariance(inputs.reviewer_idx, np.full(n_rev, sq * np.sqrt(a)), fac)
    else:
        load = np.bincount(inputs.reviewer_idx, minlength=n_rev)
        sigma_y = PosteriorCovariance(
            inputs.reviewer_idx, sq * a / (c + a * load), fac,
            sd=sq * np.sqrt(a * c / (c + a * load)), paper_idx=inputs.paper_idx,
        )
    return mu_y, sigma_y


@dataclass(frozen=True, eq=False)
class Calibration:
    """Per-paper scores on [0, 100], the posterior of the bias-removed
    entries, and the model checks of ``calibration_fit.json``."""

    scores: np.ndarray
    mu_y: np.ndarray
    sigma_y: PosteriorCovariance
    summary: dict


def calibrate(
    inputs: CalibrationInputs, grid: GridSpec = GridSpec(), role: str = "reviewer"
) -> Calibration:
    """Fit in the box of ``grid``, remove each reviewer's posterior mean
    bias, and average per paper with the confidence weights, normalized.

    The fit starts at the moment estimate, clipped into the box, and runs
    the quadratic-model search on the exact profile NLL.  The summary gives
    the fitted variances, the moment estimate, every evaluated point in
    evaluation order (``grid``), their number, whether the search stopped
    on its budget, and whether the optimum lies on the box's edge.

    When no reviewer covers two papers, or every score is equal, nothing
    is fitted: the scores pass through (mu_y = s, a zero-width posterior)
    with one :class:`UnidentifiableModelWarning` naming the cause, and the
    summary's ``hyperparams``, ``moment_estimate`` and
    ``argmin_on_grid_edge`` are None.  ``role`` names the reviewers in
    that warning.
    """
    identifiable = bias_identifiable(inputs.reviewer_idx)
    causes = []
    if np.all(inputs.s == inputs.s[0]):
        causes.append(f"every score equals {float(inputs.s[0])!r}")
    if not identifiable:
        causes.append(f"every {role} covers a single paper")
    summary = {
        "identifiable": identifiable, "argmin_on_grid_edge": None, "hyperparams": None,
        "moment_estimate": None, "evaluations": 0, "stopped_on_budget": False, "grid": [],
    }
    if causes:
        warnings.warn(
            f"{' and '.join(causes)}: the data cannot pin down {role} bias, "
            "so the scores pass through uncalibrated",
            UnidentifiableModelWarning,
            stacklevel=2,
        )
        mu_y = inputs.s
        sigma_y = PosteriorCovariance(inputs.reviewer_idx, np.zeros(len(inputs.reviewer_ids)))
    else:
        moments = _moment_estimate(inputs)
        # a moment variance can come out negative; the start takes at least
        # 5% of the score variance for each (of 1e-9 to 10%, the fewest
        # evaluations on planted instances)
        q2, b2, e2 = np.maximum(moments, 0.05 * float(np.var(inputs.s)))
        fit = _Model(inputs)
        on_budget = _search(fit, (b2 / q2, e2 / q2), grid)
        hp = fit.best()
        mu_y, sigma_y = posterior(inputs, hp)
        edges = (grid.lo, grid.hi)
        summary.update(
            argmin_on_grid_edge=hp.sb2_hat in edges or hp.se2_hat in edges,
            hyperparams={k: getattr(hp, k) for k in ("mu_q", "sigma_q2", "sigma_b2", "sigma_e2")},
            moment_estimate=dict(zip(("sigma_q2", "sigma_b2", "sigma_e2"), map(float, moments))),
            evaluations=len(fit.values),
            stopped_on_budget=on_budget,
            grid=list(hp.grid),
        )
    scores = weighted_paper_mean(mu_y, inputs.paper_idx, inputs.confidences, inputs.n_papers)
    return Calibration(normalize(scores), mu_y, sigma_y, summary)


# samples that acceptance_probability draws, aggregates and ranks together.
# It bounds the sampler's memory and leaves the counts unchanged; of 32 to
# 512, 128 ran fastest on 200 and on 5,526 papers.
SAMPLE_BLOCK = 128


@dataclass
class AcceptanceEstimate:
    """Monte-Carlo acceptance probabilities; counts/n_samples per paper,
    in the order of the inputs' ``paper_ids``."""

    counts: np.ndarray
    n_samples: int
    n_accept: int

    @property
    def probability(self) -> np.ndarray:
        return self.counts / self.n_samples


def acceptance_probability(
    mu_y: np.ndarray,
    sigma_y: PosteriorCovariance,
    inputs: CalibrationInputs,
    cfg: DecisionConfig,
    n_samples: int = 1000,
    seed: int = 0,
) -> AcceptanceEstimate:
    """Sample posterior score vectors, rank each sampled conference, and
    count how often each paper lands in the accepted top slice.

    Samples are taken SAMPLE_BLOCK at a time, each one row of
    ``sigma_y.draw``, so the draws do not depend on the block size.  The
    per-paper aggregates follow directly; no array grows with n_samples,
    and none exceeds SAMPLE_BLOCK x max(n, R + P).  Each sample accepts
    exactly k = floor(a% of P) papers: every paper above its k-th best
    aggregate, then the papers tied with that value in lexicographic id
    order.  So the probability column sums to k exactly.  Deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(mu_y) != inputs.n:
        raise ValueError("posterior dimensions do not match the inputs")
    if len(sigma_y.coef) != len(inputs.reviewer_ids) or not np.array_equal(
        sigma_y.reviewer_idx, inputs.reviewer_idx
    ):
        raise ValueError("sigma_y is not the posterior of these inputs: its reviewers differ")
    p = inputs.n_papers
    den = np.bincount(inputs.paper_idx, weights=inputs.confidences, minlength=p)
    if np.any(den == 0):
        missing = [inputs.paper_ids[i] for i in np.flatnonzero(den == 0)]
        raise ValueError(f"every paper needs at least one review entry; none for {missing}")
    weights = inputs.confidences / den[inputs.paper_idx]
    # columns are papers in id order, so that tied papers are taken left
    # to right.  The sums are taken with the columns in ``place``: by entry
    # count, most first (ties in id order), so that slot j, the j-th entry
    # of each column with more than j entries, spans the first ``width``
    # of them.  A column's sum is its first entry plus the sum of the rest,
    # taken slot by slot.
    col_of = id_rank(inputs.paper_ids)
    col = col_of[inputs.paper_idx]
    mean = np.bincount(col, weights=weights * mu_y, minlength=p)
    per_col = np.bincount(col, minlength=p)
    by_count = np.argsort(-per_col, kind="stable")
    place = np.empty(p, dtype=np.intp)
    place[by_count] = np.arange(p)
    order = np.argsort(place[col], kind="stable")
    entry_reviewer, entry_weight = inputs.reviewer_idx[order], weights[order]
    per_place = per_col[by_count]
    starts = np.cumsum(per_place) - per_place
    slots = []
    for j in range(per_place[0]):
        width = int(np.count_nonzero(per_place > j))
        entries = starts[:width] + j
        slots.append((width, entry_reviewer[entries], entry_weight[entries]))

    k = cfg.n_accept(p)
    counts = np.zeros(p, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # with k = 0 nothing is accepted and no sample needs drawing
    for first in range(0, n_samples if k else 0, SAMPLE_BLOCK):
        bias = sigma_y.draw(rng, min(SAMPLE_BLOCK, n_samples - first))
        agg = np.zeros((len(bias), p))
        for width, reviewer, weight in slots[1:]:
            agg[:, :width] += bias[:, reviewer] * weight
        _, reviewer, weight = slots[0]
        agg += bias[:, reviewer] * weight
        agg = mean + agg[:, place]
        kth = np.partition(agg, p - k, axis=1)[:, p - k, None]
        above = agg > kth
        tied = agg == kth
        room = k - above.sum(axis=1, keepdims=True)
        counts += (above | (tied & (np.cumsum(tied, axis=1) <= room))).sum(axis=0)
    return AcceptanceEstimate(counts=counts[col_of], n_samples=n_samples, n_accept=k)
