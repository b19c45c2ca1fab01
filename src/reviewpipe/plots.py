"""Deterministic plot artifacts: every figure is written twice, as a
two-column CSV (re-renderable by any tool) and as a self-contained SVG.

The SVG is generated directly as text so identical inputs produce
byte-identical files; axes and bin definitions are documented in the CSV
header comments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import _csv_fields, _csv_lines, _float_texts

__all__ = ["histogram_artifact", "scatter_artifact", "PlotArtifact"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50  # margins


@dataclass(frozen=True)
class PlotArtifact:
    csv_text: str
    svg_text: str


def _axis(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _x_px(x, lo, hi):
    return _ML + (x - lo) / (hi - lo) * (_W - _ML - _MR)


def _y_px(y, lo, hi):
    return _H - _MB - (y - lo) / (hi - lo) * (_H - _MT - _MB)


def _svg_frame(title: str, xlabel: str, ylabel: str, body: list[str]) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W // 2}" y="16" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_artifact(
    values,
    bins: int = 30,
    title: str = "Histogram",
    xlabel: str = "value",
) -> PlotArtifact:
    """Histogram as CSV bin table plus SVG bars."""
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    bounds = _float_texts(edges)
    csv_text = (
        f"# {title}\n# x axis: {xlabel}; bins: {bins} equal-width over "
        f"[{bounds[0]}, {bounds[-1]}]\n"
    ) + _csv_lines(
        [["bin_left", "bin_right", "count"], *zip(bounds, bounds[1:], map(str, counts.tolist()))]
    )

    xlo, xhi = _axis(float(edges[0]), float(edges[-1]))
    ylo, yhi = 0.0, max(float(counts.max()), 1.0)
    x = _x_px(edges, xlo, xhi)
    y = _y_px(counts.astype(float), ylo, yhi)
    bars = zip(x[:-1].tolist(), y.tolist(), (x[1:] - x[:-1]).tolist(), ((_H - _MB) - y).tolist())
    body = [
        f'<rect x="{x0:.2f}" y="{top:.2f}" width="{w:.2f}" height="{h:.2f}" '
        f'fill="steelblue" stroke="white" stroke-width="0.5"/>'
        for x0, top, w, h in bars
    ]
    svg = _svg_frame(title, xlabel, "count", body)
    return PlotArtifact(csv_text=csv_text, svg_text=svg)


def scatter_artifact(
    x,
    y,
    title: str = "Scatter",
    xlabel: str = "x",
    ylabel: str = "y",
) -> PlotArtifact:
    """Scatter as two-column CSV plus SVG points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must align")
    header = _csv_fields([_slug(xlabel), _slug(ylabel)])
    csv_text = f"# {title}\n# x axis: {xlabel}; y axis: {ylabel}\n" + _csv_lines(
        [header, *zip(_float_texts(x), _float_texts(y))]
    )

    xlo, xhi = _axis(float(x.min()), float(x.max()))
    ylo, yhi = _axis(float(y.min()), float(y.max()))
    body = [
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="steelblue" fill-opacity="0.6"/>'
        for cx, cy in zip(_x_px(x, xlo, xhi).tolist(), _y_px(y, ylo, yhi).tolist())
    ]
    svg = _svg_frame(title, xlabel, ylabel, body)
    return PlotArtifact(csv_text=csv_text, svg_text=svg)


def _slug(label: str) -> str:
    return label.lower().replace(" ", "_").replace(",", "")
