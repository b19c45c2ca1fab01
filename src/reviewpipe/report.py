"""How every file the package writes looks: the CSV and JSON text rules,
the score table and decision lists, the figures, ``dequantized.csv`` and
the assignment files.

:func:`csv_fields` quotes a field holding , " CR or LF by RFC 4180's rule,
so every CSV the package writes, the exports included, reads back as
written; it refuses a lone surrogate and a field longer than csv reads.
:func:`report_texts` formats the score table and the decision lists,
:func:`figure_texts` the figures, :func:`dequantized_csv` the per-review
dequantized scores and :func:`assignment_texts` the assignment and its
audit; the callers write the texts and format nothing.  Each figure is a
two-column CSV (re-renderable by any tool) and a self-contained SVG,
written directly as text so identical inputs give byte-identical files;
axes and bin definitions are in the CSV header comments.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

# the argument types only: ``records`` imports this module at run time
if TYPE_CHECKING:
    from .assignment import AssignmentResult
    from .calibration import AcceptanceEstimate
    from .records import ReviewTable
    from .scoring import DecisionList, ScoreTable

__all__ = ["CSV_QUOTABLE", "BLOCK", "lone_surrogate", "csv_fields", "float_texts", "csv_lines",
           "json_text", "report_texts", "figure_texts", "dequantized_csv", "assignment_texts",
           "histogram_artifact", "scatter_artifact"]

# The artifact writers make each column's CSV fields once, the exports each
# row's fields as its line is joined; ",".join joins a row in about a sixth
# of the time csv.writer takes.  RFC 4180 (section 2, rules 6 and 7) quotes
# a field holding one of these; a field holding none is written as it is.
CSV_QUOTABLE = ',"\r\n'


def lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate, which no UTF-8 file can
    encode; an ASCII text is answered without encoding it."""
    return not text.isascii() and text.encode(errors="replace").decode() != text


def csv_fields(texts: Sequence[str]) -> list[str]:
    """Each text as its CSV field, by RFC 4180's rule: a text holding , "
    CR or LF, a lone CR included, is quoted and its quotes doubled; any
    other is its own field.  That is what csv.writer writes in the dialect
    whose rows end in CR LF, on every Python version.  A text that no read
    could take back, one holding a lone surrogate or one longer than
    ``csv.field_size_limit()``, raises ``ValueError`` naming it."""
    joined = "".join(texts)
    if len(joined) > (limit := csv.field_size_limit()):
        for text in texts:
            if len(text) > limit:
                raise ValueError(
                    f"a field of {len(text)} characters, {text[:20]!r}..., is longer than "
                    f"csv's field size limit of {limit}"
                )
    if lone_surrogate(joined):
        text = next(filter(lone_surrogate, texts))
        raise ValueError(f"{text!r} holds a lone surrogate, which no UTF-8 file can hold")
    if not any(c in joined for c in CSV_QUOTABLE):
        return list(texts)
    return [
        '"' + t.replace('"', '""') + '"' if any(c in t for c in CSV_QUOTABLE) else t
        for t in texts
    ]


def float_texts(values) -> list[str]:
    """Each float's ``repr``, as csv.writer writes it, made once per
    distinct bit pattern: -0.0 and NaN keep their own texts."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.uint64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(float).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


# rows that the CSV writers join, and the score table formats, at a time, so
# the text of one block is all that exists beside the finished part of the
# output
BLOCK = 512


def csv_lines(rows) -> str:
    """Rows of finished CSV fields as text, each row ended by ``\\n``,
    joined ``BLOCK`` rows at a time."""
    lines, blocks = map(",".join, rows), []
    while block := list(itertools.islice(lines, BLOCK)):
        blocks.append("\n".join([*block, ""]))
    return "".join(blocks)


def json_text(obj) -> str:
    """The artifact form of JSON: indented, keys sorted, newline-ended."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# how json spells the non-finite floats that repr() and csv spell nan, inf
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _join(pieces: list[str]) -> str:
    """The pieces joined, the list emptied: a text yielded from it is the
    only copy left, so the caller can let it go once it is written."""
    text = "".join(pieces)
    pieces.clear()
    return text


def report_texts(
    table: ScoreTable, decisions: DecisionList, decisions_cal: DecisionList | None = None
) -> Iterator[tuple[str, str]]:
    """The name and text of ``score_table.csv``, ``score_table.json``,
    ``decisions.csv`` and, with ``decisions_cal``, ``decisions_calibrated.csv``,
    in that order.

    The score table is formatted block by block.  Each float is formatted
    once per distinct bit pattern in its block, by ``repr`` as csv formats
    it, and each paper's id field once; the JSON text is that of
    ``json.dumps({"papers": rows}, indent=2, sort_keys=True)`` plus a
    newline, NaN and Infinity spelled as json spells them and the ids
    passed through json's ASCII string escaper.  The decision lists take
    the id fields and the ``SI`` and ``SI_cal`` texts in rank order.  A
    caller that drops each text once it is written holds one text at a
    time: none is kept here past the next step."""
    names = ["s_p", "xi_p", "sR_norm", "sM_norm", "SI"]
    if table.calibrated:
        names += ["sR_cal", "sM_cal", "SI_cal"]
    columns = {name: np.asarray(getattr(table, name), dtype=float) for name in names}
    keys = sorted(["paper_id", *names])
    # a JSON row is these parts with the values of ``keys`` between them
    row = "    {\n" + ",\n".join(f'      "{key}": %s' for key in keys) + "\n    },\n"
    parts = row.split("%s")
    fields = csv_fields(table.papers)
    lists = {"decisions.csv": (decisions, "SI")}
    if decisions_cal is not None:
        lists["decisions_calibrated.csv"] = (decisions_cal, "SI_cal")
    kept = {column: [] for _, column in lists.values()}
    csv_pieces, json_pieces = [csv_lines([["paper_id", *names]])], []
    for lo in range(0, len(fields), BLOCK):
        blocks = {name: col[lo : lo + BLOCK] for name, col in columns.items()}
        text = {name: float_texts(block) for name, block in blocks.items()}
        csv_pieces.append(csv_lines(zip(fields[lo : lo + BLOCK], *text.values())))
        for name, texts in kept.items():
            texts += text[name]
        for name, block in blocks.items():
            if not np.isfinite(block).all():
                text[name] = [_JSON_FLOAT.get(x, x) for x in text[name]]
        text["paper_id"] = map(json.encoder.encode_basestring_ascii, table.papers[lo : lo + BLOCK])
        cells = [itertools.repeat(parts[0])]
        for key, part in zip(keys, parts[1:]):
            cells += (text[key], itertools.repeat(part))
        json_pieces.append("".join(itertools.chain.from_iterable(zip(*cells))))
    yield "score_table.csv", _join(csv_pieces)
    if json_pieces:
        json_pieces[-1] = json_pieces[-1][:-2]  # no comma after the last row
        json_pieces.insert(0, '{\n  "papers": [\n')
        json_pieces.append("\n  ]\n}\n")
        yield "score_table.json", _join(json_pieces)
    else:
        yield "score_table.json", '{\n  "papers": []\n}\n'
    index = dict(zip(table.papers, range(len(fields))))
    header = [["rank", "paper_id", "SI", "decision"]]
    for name, (listed, column) in lists.items():
        si, order = kept[column], [index[d.paper] for d in listed.decisions]
        rows = (
            (str(d.rank), fields[i], si[i], "accept" if d.accept else "reject")
            for d, i in zip(listed.decisions, order)
        )
        yield name, csv_lines(itertools.chain(header, rows))


def dequantized_csv(rows: ReviewTable, s_dq) -> str:
    """``dequantized.csv``: each review's paper and reviewer id, its score
    and its dequantized score ``s_dq``, in the table's row order."""
    papers, reviewers = csv_fields(rows.paper_ids), csv_fields(rows.reviewer_ids)
    columns = [
        map(papers.__getitem__, rows.paper.tolist()),
        map(reviewers.__getitem__, rows.reviewer.tolist()),
        float_texts(rows.s),
        float_texts(s_dq),
    ]
    return csv_lines(itertools.chain([["paper_id", "reviewer_id", "s", "s_dq"]], zip(*columns)))


def assignment_texts(result: AssignmentResult) -> Iterator[tuple[str, str]]:
    """The name and text of ``assignment.csv``, the assigned (reviewer,
    paper) pairs in sorted order, then of ``assignment_audit.json``."""
    pairs = map(csv_fields, sorted(result.pairs))
    yield "assignment.csv", csv_lines(itertools.chain([["reviewer_id", "paper_id"]], pairs))
    audit = {
        "total_similarity": result.total_similarity,
        "feasible": result.feasible,
        "shortfalls": result.shortfalls,
        "constraints": result.report.to_dict(),
    }
    yield "assignment_audit.json", json_text(audit)


def figure_texts(table: ScoreTable, mu_y, estimate: AcceptanceEstimate) -> Iterator[tuple[str, str]]:
    """The name and text of each figure's CSV and SVG, one figure rendered
    at a time: the histogram of the calibrated review scores ``mu_y``,
    acceptance probability against the calibrated paper score, and the
    original against the calibrated meta score.  A table without the
    calibrated columns raises ``ValueError`` before any text is made."""
    if table.sR_cal is None or table.sM_cal is None:
        raise ValueError("plots need the calibrated score columns")
    figures = {
        "calibrated_score_histogram": lambda: histogram_artifact(
            mu_y, 30, "Calibrated review scores", "calibrated score"
        ),
        "acceptance_probability": lambda: scatter_artifact(
            table.sR_cal, estimate.probability, "Acceptance probability vs calibrated score",
            "calibrated reviewer score", "acceptance probability",
        ),
        "meta_calibration_scatter": lambda: scatter_artifact(
            table.sM_norm, table.sM_cal, "Original vs calibrated meta-reviewer scores",
            "normalized meta score", "calibrated meta score",
        ),
    }
    for name, render in figures.items():
        yield from zip((f"{name}.csv", f"{name}.svg"), render())


_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50  # margins


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
) -> tuple[str, str]:
    """Histogram as ``(csv_text, svg_text)``: a CSV bin table and SVG bars."""
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    bounds = float_texts(edges)
    csv_text = (
        f"# {title}\n# x axis: {xlabel}; bins: {bins} equal-width over "
        f"[{bounds[0]}, {bounds[-1]}]\n"
    ) + csv_lines(
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
    return csv_text, _svg_frame(title, xlabel, "count", body)


def scatter_artifact(
    x,
    y,
    title: str = "Scatter",
    xlabel: str = "x",
    ylabel: str = "y",
) -> tuple[str, str]:
    """Scatter as ``(csv_text, svg_text)``: a two-column CSV and SVG points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must align")
    header = csv_fields([_slug(xlabel), _slug(ylabel)])
    csv_text = f"# {title}\n# x axis: {xlabel}; y axis: {ylabel}\n" + csv_lines(
        [header, *zip(float_texts(x), float_texts(y))]
    )

    xlo, xhi = _axis(float(x.min()), float(x.max()))
    ylo, yhi = _axis(float(y.min()), float(y.max()))
    body = [
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="steelblue" fill-opacity="0.6"/>'
        for cx, cy in zip(_x_px(x, xlo, xhi).tolist(), _y_px(y, ylo, yhi).tolist())
    ]
    return csv_text, _svg_frame(title, xlabel, ylabel, body)


def _slug(label: str) -> str:
    return label.lower().replace(" ", "_").replace(",", "")
