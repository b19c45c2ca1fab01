"""End-to-end orchestration: load -> score -> [dequantize] -> [calibrate]
-> fuse -> rank -> report, plus the gray-area agreement policy.

The gray-area report compares the raw and calibrated decision lists:
papers accepted (or rejected) by both are decided automatically, papers
where the two rankings disagree are flagged for human adjudication and
never auto-decided.

All artifacts are written atomically (temp file + rename) and are
byte-identical across runs with the same config and seed.  ``report``
renders every file's text; this module only writes it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import CalibrationInputs, GridSpec, acceptance_probability, calibrate
from .dequant import DequantConfig, dequantize_rows
from .records import read_exports
from .report import figure_texts, json_text, report_texts
from .scoring import (
    DecisionConfig,
    DecisionList,
    ScoreTable,
    rank_and_cut,
    score_index,
    score_table,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "GrayAreaReport",
    "PipelineStageError",
    "run_pipeline",
    "gray_area",
    "emit_plots",
    "write_atomic",
]


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage and context."""


@dataclass(frozen=True)
class PipelineConfig:
    reviews_path: str
    meta_path: str | None = None
    format: str = "csv"
    out_dir: str = "out"
    dequantize: bool = False
    calibrate: bool = False
    dequant: DequantConfig = field(default_factory=DequantConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    decision: DecisionConfig = field(default_factory=DecisionConfig)
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GrayAreaReport:
    """Agreement classes between the raw and calibrated decisions."""

    agree_accept: list[str] = field(default_factory=list)
    agree_reject: list[str] = field(default_factory=list)
    disagree: list[str] = field(default_factory=list)
    notice: str | None = None

    @property
    def counts(self) -> dict[str, int]:
        return {
            "agree-accept": len(self.agree_accept),
            "agree-reject": len(self.agree_reject),
            "disagree": len(self.disagree),
        }

    def to_dict(self) -> dict:
        out = {
            "counts": self.counts,
            "agree_accept": self.agree_accept,
            "agree_reject": self.agree_reject,
            "disagree": self.disagree,
        }
        if self.notice:
            out["notice"] = self.notice
        return out


@dataclass
class PipelineResult:
    table: ScoreTable
    decisions: DecisionList
    gray: GrayAreaReport
    fit_summary: dict | None
    artifacts: list[str]


def write_atomic(path, text: str) -> str:
    """Write text to ``path`` via a temp file in the same directory, with
    the mode ``open`` gives (0666 less the umask); returns str(path)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return str(path)


def gray_area(raw: DecisionList, calibrated: DecisionList) -> GrayAreaReport:
    """Partition papers by agreement between the two decision lists:
    accepted by both, rejected by both, accepted by one only."""
    papers = {d.paper for d in raw.decisions}
    if papers != {d.paper for d in calibrated.decisions}:
        raise ValueError("decision lists cover different paper sets")
    a, c = raw.accepted, calibrated.accepted
    return GrayAreaReport(sorted(a & c), sorted(papers - a - c), sorted(a ^ c))


def emit_plots(table: ScoreTable, mu_y, estimate, out_dir) -> list[str]:
    """Write the figure files of :func:`report.figure_texts` (CSV + SVG
    each) into ``out_dir``, one at a time; returns their paths."""
    figures = figure_texts(table, mu_y, estimate)
    return [write_atomic(Path(out_dir) / name, text) for name, text in figures]


@contextmanager
def _stage(name: str):
    """Re-raise an exception from the stage's body with the stage named."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(f"stage {name!r} failed: {exc}") from exc


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the full decision pipeline and write all artifacts.

    Deterministic: the same config and seed produce byte-identical
    outputs.  Calibration off leaves the calibrated columns absent and
    the gray-area report empty-by-construction with a notice.
    ``artifacts`` lists the written files in write order.
    """
    out_dir = Path(cfg.out_dir)
    artifacts: list[str] = []

    def write(name: str, text: str):
        artifacts.append(write_atomic(out_dir / name, text))

    with _stage("load"):
        rows = read_exports(cfg.reviews_path, cfg.format, cfg.meta_path)
        write("validation.json", json_text(rows.report.to_dict()))

    with _stage("score"):
        values = dequantize_rows(rows.paper, rows.s, cfg.dequant) if cfg.dequantize else rows.s
        table = score_table(rows, values)

    fit_summary = None
    if cfg.calibrate:
        with _stage("calibrate"):
            inputs = CalibrationInputs(
                s=values,
                paper_idx=rows.paper,
                reviewer_idx=rows.reviewer,
                paper_ids=rows.paper_ids,
                reviewer_ids=rows.reviewer_ids,
                confidences=rows.confidence,
            )
            review = calibrate(inputs, cfg.grid)
            metas = CalibrationInputs(
                rows.xi, rows.meta_paper, rows.metareviewer, rows.paper_ids, rows.metareviewer_ids
            )
            meta = calibrate(metas, cfg.grid, role="meta-reviewer")
            table.sR_cal, table.sM_cal = review.scores, meta.scores
            table.SI_cal = np.asarray(score_index(table.sR_cal, table.sM_cal))
            estimate = acceptance_probability(
                review.mu_y, review.sigma_y, inputs, cfg.decision, cfg.n_samples, cfg.seed
            )
            fit_summary = dict(
                review.summary, meta=meta.summary, n_samples=cfg.n_samples, seed=cfg.seed
            )
            write("calibration_fit.json", json_text(fit_summary))

    with _stage("rank"):
        decisions = rank_and_cut(table, cfg.decision)
        decisions_cal = rank_and_cut(table, cfg.decision, use_calibrated=True) if cfg.calibrate else None

    with _stage("report"):
        if cfg.calibrate:
            gray = gray_area(decisions, decisions_cal)
        else:
            gray = GrayAreaReport(notice="calibration disabled: no gray-area comparison")
        for name, text in report_texts(table, decisions, decisions_cal):
            write(name, text)
            del text  # the next text is built without this one
        write("gray_area.json", json_text(gray.to_dict()))
        if cfg.calibrate:
            artifacts += emit_plots(table, review.mu_y, estimate, out_dir)

    return PipelineResult(table, decisions, gray, fit_summary, artifacts)
