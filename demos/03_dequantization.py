"""Softening quantized review scores inside a trust band.

Review scores live on a coarse 0.5 lattice, so ties and near-ties are
everywhere.  Dequantization replaces each paper's scores with values at most
0.25 away from the originals that minimize within-paper disagreement plus a
movement penalty lambda * ||s_hat - s||^2.  Larger lambda means "trust the
original numbers more"; lambda -> infinity reproduces them exactly.
"""

import numpy as np

from reviewpipe import DequantConfig, dequantize

groups = {
    "castle": [("ana", 4.0), ("bo", 0.0)],
    "dune": [("ana", 2.0), ("cy", 2.0), ("dee", 3.5)],
    "echo": [("bo", 0.0), ("cy", 2.0), ("dee", 2.0)],
}

for lam in (0.0, 0.5, 2.0, 100.0):
    result = dequantize(groups, DequantConfig(lam=lam))
    print(f"lambda = {lam}")
    for paper, entries in groups.items():
        orig = np.array([v for _, v in entries])
        new = np.array([result.scores[(r, paper)] for r, _ in entries])
        moved = np.abs(new - orig).max()
        print(f"  {paper:<7} {orig} -> {np.round(new, 3)}   max move {moved:.3f}")
    print(f"  total objective cost: {result.cost:.4f}\n")

print("Properties on display:")
print(" - every score stays within 0.25 of its original (hard band)")
print(" - unanimous papers never move (disagreement already zero)")
print(" - movement shrinks monotonically as lambda grows")
print(" - papers are independent subproblems, each solved exactly: the paper")
print("   mean is the root of a piecewise-linear equation, found in closed form")
print("   between the breakpoints where scores start to clip")
