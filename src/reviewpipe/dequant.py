"""Score dequantization: replace half-point-quantized review scores with
values that reduce within-paper disagreement, each within a band fixed at
+/-0.25 (half the 0.5 lattice step) of its raw score.

Per paper the problem is the box-constrained quadratic

    minimize  sum_r (x_r - mean(x))^2 + lambda * sum_r (x_r - s_r)^2
    subject   |x_r - s_r| <= band

It is convex, so the KKT conditions characterize its optimum: with
m = mean(x),

    x_r(m) = clip((m + lambda s_r) / (1 + lambda), s_r - band, s_r + band)

and m is a root of g(m) = mean(x(m)) - m.  g is piecewise linear and
nonincreasing, with breakpoints at s_r +/- band (1 + lambda), so the root
lies between the last breakpoint where g > 0 and the first where g <= 0,
and is solved for in closed form there.  At lambda = 0 the root can be an
interval (when the paper's scores span at most 2 band); the point nearest
mean(s) is taken, so identical scores come back unchanged.

All papers are solved at once on flat arrays: evaluating g at every
breakpoint costs O(sum of n_p^2) time and memory, n_p being the number of
reviews of paper p.  Papers are independent throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import paper_pairs

__all__ = ["DequantConfig", "DequantResult", "dequantize", "dequantize_rows"]

BAND = 0.25


@dataclass(frozen=True)
class DequantConfig:
    """Regularization weight, finite and nonnegative; larger values keep
    scores closer to the raw ones (the limit lambda -> inf reproduces
    them).  lambda = 0 is the documented limit where only within-paper
    spread matters."""

    lam: float = 2.0

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam!r}")


@dataclass
class DequantResult:
    """Dequantized scores per (reviewer, paper) pair and their objective value."""

    scores: dict[tuple[str, str], float]
    cost: float


def dequantize_rows(paper, s, cfg: DequantConfig) -> np.ndarray:
    """Dequantize flat score rows.  ``paper`` holds nonnegative codes in
    nondecreasing order, each paper's rows together; a code with no rows is
    skipped.  Returns the optimum, aligned with ``s``, within +/-0.25 of it."""
    paper = np.asarray(paper, dtype=int)
    s = np.asarray(s, dtype=float)
    if len(paper) != len(s):
        raise ValueError("paper codes must align with the scores")
    if len(s) == 0:
        return s.copy()
    n = np.bincount(paper)
    if (paper[1:] < paper[:-1]).any():
        raise ValueError("paper codes must be nondecreasing, each paper's rows together")
    lam, band = cfg.lam, BAND
    first = n.cumsum() - n
    # offsets from each paper's lowest score: exact on the lattice, and all
    # 0 for a paper whose scores are equal
    t = s - np.minimum.reduceat(s, first)[paper]
    lo, hi = t - band * (1 + lam), t + band * (1 + lam)  # breakpoints of g

    # g at both breakpoints of every row j: at m = lo_j each row i of the
    # paper sits at t_i + clip((t_j - t_i) / (1 + lam), 0, 2 band) - band,
    # and at m = hi_j at t_i + clip(same, -2 band, 0) + band
    j, i = paper_pairs(paper, n)
    t_i = t[i]
    shift = (t[j] - t_i) / (1 + lam)
    n_row = n[paper]
    g_lo = np.bincount(j, weights=t_i + np.minimum(np.maximum(shift, 0), 2 * band)) / n_row
    g_hi = np.bincount(j, weights=t_i + np.minimum(np.maximum(shift, -2 * band), 0)) / n_row
    g_lo -= band + lo
    g_hi += band - hi
    # g is nonincreasing, so the root lies below lo where g(lo) <= 0 (the
    # row is clipped low) and above hi where g(hi) > 0 (clipped high); with
    # the rows so split, g(m) = 0 is linear in m
    low = g_lo <= 0
    high = (g_hi > 0) & ~low
    inside = ~(low | high)
    num = lam * np.bincount(paper, weights=np.where(inside, t, 0.0)) + (1 + lam) * np.bincount(
        paper, weights=np.where(inside, 0.0, t) + band * (high.astype(float) - low)
    )
    den = (n - np.bincount(paper, weights=inside)) + n * lam
    m = np.divide(num, den, out=np.zeros(len(n)), where=den > 0)
    if lam == 0:
        # every m in [max t - band, band] is a root: take the one nearest mean(t)
        span = np.maximum.reduceat(t, first)
        mean_t = np.bincount(paper, weights=t) / np.maximum(n, 1)  # 0 for a code with no rows
        m = np.where(span <= 2 * band, np.clip(mean_t, span - band, band), m)
    return s + np.minimum(np.maximum((m[paper] - t) / (1 + lam), -band), band)


def dequantize(groups: dict[str, list[tuple[str, float]]], cfg: DequantConfig) -> DequantResult:
    """Dequantize scores grouped by paper.

    ``groups`` maps paper id -> list of (reviewer id, raw score).  Returns
    per-pair dequantized scores with |s_hat - s| <= 0.25 guaranteed.
    """
    empty = [paper for paper, entries in groups.items() if not entries]
    if empty:
        raise ValueError(f"paper {empty[0]} has no reviews")
    sizes = np.array([len(entries) for entries in groups.values()], dtype=int)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    s = np.array([v for entries in groups.values() for _, v in entries], dtype=float)
    x = dequantize_rows(codes, s, cfg)
    means = np.bincount(codes, weights=x, minlength=len(sizes)) / sizes
    keys = [(r, p) for p, entries in groups.items() for r, _ in entries]
    return DequantResult(
        scores=dict(zip(keys, x.tolist())),
        cost=float(((x - means[codes]) ** 2).sum() + cfg.lam * ((x - s) ** 2).sum()),
    )

