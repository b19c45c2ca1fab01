"""Reviewer bias calibration with a three-variance Gaussian model.

Each stacked review score decomposes as

    s = q(paper) + b(reviewer) + noise,
    q ~ N(mu_q, sigma_q^2),  b ~ N(0, sigma_b^2),  noise ~ N(0, sigma_e^2)

With unique (paper, reviewer) pairs the covariance of s, divided by
sigma_q^2, is

    K = Zp Zp^T + a Zr Zr^T + c I,   a = sigma_b^2 / sigma_q^2,  c = sigma_e^2 / sigma_q^2

where Zp and Zr map score entries to papers and reviewers.  The two
ratios are explored on a grid; sigma_q^2 has a closed-form maximum-
likelihood value per grid point.

No n x n matrix is formed.  D = Zp Zp^T + c I is block diagonal by paper,
so Woodbury's identity and the matrix determinant lemma reduce everything
to the R x R reviewer matrix M = Zr^T D^-1 Zr, built from the reviewer
pairs that share a paper (Henderson's mixed-model equations).  One
eigendecomposition M = V diag(lam) V^T per noise ratio c serves every
bias ratio a, elementwise, with h = V^T Zr^T D^-1 (s - mu_q):

    quad   = r^T D^-1 r - sum(a h^2 / (1 + a lam))
    logdet = log|D| + sum(log1p(a lam))

The bias term is removed by Gaussian conditioning in reviewer space,

    E[b | s]   = a V diag(1 / (1 + a lam)) h
    Cov(b | s) = sigma_q^2 a V diag(1 / (1 + a lam)) V^T,

and Monte-Carlo draws of b turn ranked samples into per-paper acceptance
probabilities.  Each noise ratio costs O(sum of n_p^2) to build M and one
O(R^3) eigh; memory is O(R^2 + n).  The sampler works SAMPLE_BLOCK samples
at a time, so its memory is O(SAMPLE_BLOCK x (n + R)) whatever the number
of samples.

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

from .scoring import DecisionConfig, normalize, paper_pairs, weighted_paper_mean

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
        if self.confidences is None:
            self.confidences = np.ones(n)
        else:
            self.confidences = np.asarray(self.confidences, dtype=float)

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def n_papers(self) -> int:
        return len(self.paper_ids)


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic grid over the two variance ratios, from ``lo`` to ``hi``
    (either may be the larger); both bounds positive and finite."""

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


class _ReviewerSpace:
    """The Woodbury reduction of K onto reviewers for one set of inputs."""

    def __init__(self, inputs: CalibrationInputs):
        self.inputs = inputs
        self.n_per_paper = np.bincount(inputs.paper_idx, minlength=inputs.n_papers)
        self.load = np.bincount(inputs.reviewer_idx, minlength=len(inputs.reviewer_ids))
        # every ordered pair of entries on one paper, each entry with itself
        # included, as a flat (reviewer, reviewer) index and the paper
        order = np.argsort(inputs.paper_idx, kind="stable")
        pi, ri = inputs.paper_idx[order], inputs.reviewer_idx[order]
        left, right = paper_pairs(pi, self.n_per_paper)
        self.pair_key = ri[left] * len(self.load) + ri[right]
        self.pair_paper = pi[left]

    def reduce(self, c: float, r: np.ndarray):
        """For noise ratio c and centered scores r: the eigenvalues lam and
        vectors V of M = Zr^T D^-1 Zr, h = V^T Zr^T D^-1 r, r^T D^-1 r and
        log|D|."""
        inp = self.inputs
        n_rev = len(self.load)
        w = 1.0 / (c + self.n_per_paper)
        m = -np.bincount(
            self.pair_key, weights=w[self.pair_paper], minlength=n_rev * n_rev
        ).reshape(n_rev, n_rev)
        m[np.diag_indices(n_rev)] += self.load
        m /= c
        lam, vecs = np.linalg.eigh(m)
        lam = np.maximum(lam, 0.0)  # M is PSD; drop round-off below zero
        paper_sum = np.bincount(inp.paper_idx, weights=r, minlength=inp.n_papers)
        d_inv_r = (r - w[inp.paper_idx] * paper_sum[inp.paper_idx]) / c
        h = vecs.T @ np.bincount(inp.reviewer_idx, weights=d_inv_r, minlength=n_rev)
        logdet_d = inp.n * np.log(c) + float(np.sum(np.log1p(self.n_per_paper / c)))
        return lam, vecs, h, float(r @ d_inv_r), logdet_d


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
    mu_q = float(np.mean(inputs.s))
    r = inputs.s - mu_q
    n = inputs.n
    values = np.asarray(grid.values(), dtype=float)
    a = values[:, None]
    space = _ReviewerSpace(inputs)
    # rows: bias ratio, columns: noise ratio
    quad = np.empty((len(values), len(values)))
    logdet = np.empty_like(quad)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, c in enumerate(values):
            lam, _, h, quad_d, logdet_d = space.reduce(c, r)
            quad[:, j] = quad_d - np.sum(a * h**2 / (1.0 + a * lam), axis=1)
            logdet[:, j] = logdet_d + np.sum(np.log1p(a * lam), axis=1)
        sigma_q2 = quad / n
        nll_grid = 0.5 * n * np.log(2.0 * np.pi * sigma_q2) + 0.5 * logdet + 0.5 * n
    ok = (sigma_q2 > 0) & np.isfinite(nll_grid)
    if not ok.any():
        raise DegenerateModelError("all grid points degenerate")
    rows = tuple(
        {
            "sb2_hat": float(values[i]),
            "se2_hat": float(values[j]),
            "sigma_q2": float(sigma_q2[i, j]),
            "nll": float(nll_grid[i, j]),
        }
        for i, j in zip(*np.nonzero(ok))
    )
    i, j = np.unravel_index(np.argmin(np.where(ok, nll_grid, np.inf)), ok.shape)
    return Hyperparams(
        sigma_q2=float(sigma_q2[i, j]), sb2_hat=float(values[i]), se2_hat=float(values[j]),
        mu_q=mu_q, grid=rows,
    )


@dataclass(frozen=True, eq=False)
class PosteriorCovariance:
    """Posterior covariance of the bias-removed scores, kept in reviewer
    space: Cov(y | s) = Zr Cov(b | s) Zr^T with the R x R
    Cov(b | s) = vecs diag(vals) vecs^T.

    ``np.asarray`` gives the dense n x n matrix, for small n only.
    """

    vecs: np.ndarray
    vals: np.ndarray
    reviewer_idx: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.reviewer_idx), len(self.reviewer_idx))

    @property
    def bias_cov(self) -> np.ndarray:
        """Cov(b | s), R x R."""
        return (self.vecs * self.vals) @ self.vecs.T

    def __array__(self, dtype=None, copy=None):
        dense = self.bias_cov[np.ix_(self.reviewer_idx, self.reviewer_idx)]
        return dense if dtype is None else dense.astype(dtype)


def posterior(inputs: CalibrationInputs, hp: Hyperparams) -> tuple[np.ndarray, PosteriorCovariance]:
    """Conditional Gaussian over the bias-removed scores y = s - b(reviewer).

    With a = sb2_hat, M = V diag(lam) V^T and h from the reviewer-space
    reduction,

        mu_y       = s - (a V diag(1 / (1 + a lam)) h)[reviewer]
        Cov(b | s) = sigma_q^2 a V diag(1 / (1 + a lam)) V^T

    which is exact at a = 0 and positive semidefinite by construction.
    """
    a = hp.sb2_hat
    lam, vecs, h, _, _ = _ReviewerSpace(inputs).reduce(hp.se2_hat, inputs.s - hp.mu_q)
    shrink = a / (1.0 + a * lam)
    mu_y = inputs.s - (vecs @ (shrink * h))[inputs.reviewer_idx]
    return mu_y, PosteriorCovariance(vecs, hp.sigma_q2 * shrink, inputs.reviewer_idx)


@dataclass(frozen=True, eq=False)
class Calibration:
    """Per-paper scores on [0, 100], the posterior of the bias-removed
    entries, and the model checks of ``calibration_fit.json``."""

    scores: np.ndarray
    mu_y: np.ndarray
    sigma_y: PosteriorCovariance
    summary: dict


def calibrate(inputs: CalibrationInputs, grid: GridSpec = GridSpec()) -> Calibration:
    """Fit on ``grid``, remove each reviewer's posterior mean bias, and
    average per paper with the confidence weights, normalized.

    When no reviewer covers two papers, or every score is equal, nothing
    is fitted: the scores pass through (mu_y = s, a zero-width posterior)
    with one :class:`UnidentifiableModelWarning` naming the cause, and the
    summary's ``hyperparams`` and ``argmin_on_grid_edge`` are None.
    """
    identifiable = bias_identifiable(inputs.reviewer_idx)
    causes = []
    if np.all(inputs.s == inputs.s[0]):
        causes.append(f"every score equals {float(inputs.s[0])!r}")
    if not identifiable:
        causes.append("every reviewer covers a single paper")
    summary = {
        "identifiable": identifiable, "argmin_on_grid_edge": None, "hyperparams": None, "grid": [],
    }
    if causes:
        warnings.warn(
            f"{' and '.join(causes)}: the data cannot pin down reviewer bias, "
            "so the scores pass through uncalibrated",
            UnidentifiableModelWarning,
            stacklevel=2,
        )
        mu_y = inputs.s
        no_bias = np.zeros((len(inputs.reviewer_ids), 0))
        sigma_y = PosteriorCovariance(no_bias, np.zeros(0), inputs.reviewer_idx)
    else:
        hp = fit_hyperparams(inputs, grid)
        mu_y, sigma_y = posterior(inputs, hp)
        edges = (grid.lo, grid.hi)
        summary.update(
            argmin_on_grid_edge=hp.sb2_hat in edges or hp.se2_hat in edges,
            hyperparams={k: getattr(hp, k) for k in ("mu_q", "sigma_q2", "sigma_b2", "sigma_e2")},
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
    """Monte-Carlo acceptance probabilities; counts/n_samples per paper."""

    papers: list[str]
    counts: np.ndarray
    n_samples: int
    seed: int
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

    Samples are taken SAMPLE_BLOCK at a time.  A sample's bias draw is one
    row of R' standard normals, scaled by sqrt(vals) and mapped to the R
    reviewers by vecs^T, so the draws do not depend on the block size.
    The per-paper aggregates follow directly; no array grows with
    n_samples, and none exceeds SAMPLE_BLOCK x max(n, R).  Each sample
    accepts exactly k = floor(a% of P) papers: every paper above its k-th
    best aggregate, then the papers tied with that value in lexicographic
    id order.  So the probability column sums to k exactly.  Deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(mu_y) != inputs.n:
        raise ValueError("posterior dimensions do not match the inputs")
    if len(sigma_y.vecs) != len(inputs.reviewer_ids) or not np.array_equal(
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
    # to right; entries are grouped by column for the per-paper sums
    by_id = np.argsort(inputs.paper_ids, kind="stable")
    col_of = np.empty(p, dtype=int)
    col_of[by_id] = np.arange(p)
    col = col_of[inputs.paper_idx]
    mean = np.bincount(col, weights=weights * mu_y, minlength=p)
    order = np.argsort(col, kind="stable")
    entry_reviewer, entry_weight = inputs.reviewer_idx[order], weights[order]
    per_col = np.bincount(col, minlength=p)
    starts = np.cumsum(per_col) - per_col
    scale = np.sqrt(sigma_y.vals)

    k = cfg.n_accept(p)
    counts = np.zeros(p, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # with k = 0 nothing is accepted and no sample needs drawing
    for first in range(0, n_samples if k else 0, SAMPLE_BLOCK):
        b = min(SAMPLE_BLOCK, n_samples - first)
        bias = (rng.standard_normal((b, len(scale))) * scale) @ sigma_y.vecs.T
        agg = mean + np.add.reduceat(bias[:, entry_reviewer] * entry_weight, starts, axis=1)
        kth = np.partition(agg, p - k, axis=1)[:, p - k, None]
        above = agg > kth
        tied = agg == kth
        room = k - above.sum(axis=1, keepdims=True)
        counts += (above | (tied & (np.cumsum(tied, axis=1) <= room))).sum(axis=0)
    return AcceptanceEstimate(
        papers=list(inputs.paper_ids), counts=counts[col_of], n_samples=n_samples, seed=seed,
        n_accept=k,
    )
