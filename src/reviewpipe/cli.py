"""Command-line entry points for the review decision pipeline.

Subcommands: validate, assign, dequantize, pipeline; each one's parser is
its one table of options.  ``--config`` names a file of ``key = value``
lines, a ``#`` at the start of a line or after whitespace starting a
comment, that the parser reads after the command line, as ``--key=value``
(``_`` in the key read as ``-``) or, for a boolean key, as ``--key`` or
``--no-key`` from 1/0, true/false, yes/no or on/off.  So the file wins,
and a value of the wrong type or choice is a usage error, as a flag's is.
A key that is not an option of the subcommand, spelled in full, or another
boolean word is an error naming the file and line.  ``assign`` reads its
CSV files under the review exports' header rules, each field stripped: an
unknown, missing or repeated column, a row with non-empty fields beyond
the header, an empty required field, a repeated key, a similarity that
is not a number in [0, 1], a tag other than Rev1 and Rev2, or a tag or
conflict row naming a reviewer or paper absent from the similarities is
bad input.  Bad input, a missing or unreadable file included, ends the
command with a one-line message on stderr and exit status 2.  Every
``ValueError`` and ``OSError`` is reported that way, one raised by an
internal consistency check included, so such a message can also point at
a bug.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .assignment import TAGS, AssignmentConstraints, SimilaritySources, assign
from .calibration import GridSpec
from .dequant import DequantConfig, dequantize_rows
from .pipeline import PipelineConfig, PipelineStageError, run_pipeline, write_atomic
from .records import CONFLICT_SCHEMA, SIMILARITY_SCHEMA, TAG_SCHEMA, read_exports, read_keyed_csv
from .records import _csv_text, _json_text, _show_key
from .scoring import DecisionConfig, exports_table


def _config_argv(args) -> list[str]:
    """The ``key = value`` lines of ``args.config`` as flags; a '#' at the
    start of a line or after whitespace starts a comment."""
    path, out = args.config, []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("command", "config") or key not in vars(args):
            raise ValueError(f"{path}:{lineno}: {args.command} has no option {key!r}")
        flag = key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            out.append(f"--{flag}={value}")
            continue
        on = value.lower() in ("1", "true", "yes", "on")
        if not on and value.lower() not in ("0", "false", "no", "off"):
            raise ValueError(
                f"{path}:{lineno}: {key} must be 1/0, true/false, yes/no or on/off, got {value!r}"
            )
        out.append(f"--{flag}" if on else f"--no-{flag}")
    return out


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="reviews CSV/JSON export")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="key = value config file overriding flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewpipe",
        description="Conference review scoring, calibration, and decision pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="ingest exports and report findings")
    _add_common(p)
    p.add_argument("--meta", help="meta-reviews CSV (CSV format only)")

    p = sub.add_parser("assign", help="build a reviewer-paper assignment")
    p.add_argument("--similarities", required=True,
                   help="CSV: reviewer_id,paper_id,bid,subject_relevance,tpms")
    p.add_argument("--tags", help="CSV: reviewer_id,tag")
    p.add_argument("--conflicts", help="CSV: reviewer_id,paper_id")
    caps = AssignmentConstraints()
    p.add_argument("--min-reviewers", type=int, default=caps.min_reviewers_per_paper)
    p.add_argument("--max-papers", type=int, default=caps.max_papers_per_reviewer)
    p.add_argument("--out", default="out")

    p = sub.add_parser("dequantize", help="emit per-review dequantized scores")
    _add_common(p)
    p.add_argument("--lambda", type=float, default=DequantConfig.lam)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_common(p)
    p.add_argument("--meta", help="meta-reviews CSV (CSV format only)")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--acceptance-rate", type=float, default=DecisionConfig.acceptance_rate)
    p.add_argument("--dequantize", action=argparse.BooleanOptionalAction,
                   default=PipelineConfig.dequantize)
    p.add_argument("--lambda", type=float, default=DequantConfig.lam)
    p.add_argument("--calibrate", action=argparse.BooleanOptionalAction, default=True,
                   help="fit the bias model (--no-calibrate skips it)")
    p.add_argument("--grid-min", type=float, default=GridSpec.lo,
                   help="one bound of the box the variance ratios are searched in")
    p.add_argument("--grid-max", type=float, default=GridSpec.hi,
                   help="the other bound of that box")
    p.add_argument("--samples", type=int, default=PipelineConfig.n_samples)

    return parser


def cmd_validate(args) -> int:
    report = read_exports(args.input, args.format, args.meta).report
    text = _json_text(report.to_dict())
    write_atomic(Path(args.out) / "validation.json", text)
    sys.stdout.write(text)
    return 0 if not report.rejected else 1


def _number(path, key, column, text) -> float | None:
    """A similarity field as a float; an empty or absent one (tpms) is None."""
    try:
        return float(text) if text else None
    except ValueError:
        raise ValueError(f"{path}: {column} {text!r} of {_show_key(key)} is not a number") from None


def cmd_assign(args) -> int:
    path, columns = args.similarities, SIMILARITY_SCHEMA.columns[SIMILARITY_SCHEMA.key :]
    sources = {}
    for key, values in read_keyed_csv(path, SIMILARITY_SCHEMA).items():
        numbers = [_number(path, key, c, v) for c, v in zip(columns, values)]
        try:
            sources[key] = SimilaritySources(*numbers)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} in row {_show_key(key)}") from None
    papers, reviewers = {p for _, p in sources}, {r for r, _ in sources}
    tags = {}
    if args.tags:
        tags = {r: tag for (r,), (tag,) in read_keyed_csv(args.tags, TAG_SCHEMA).items()}
        other = ", ".join(f"{r} ({tag!r})" for r, tag in tags.items() if tag not in TAGS)
        if other:
            raise ValueError(f"{args.tags}: tag other than {' or '.join(TAGS)} for {other}")
        absent = ", ".join(r for r in tags if r not in reviewers)
        if absent:
            raise ValueError(f"{args.tags}: tag for a reviewer absent from {path}: {absent}")
    conflicts = read_keyed_csv(args.conflicts, CONFLICT_SCHEMA) if args.conflicts else {}
    absent = ", ".join(
        _show_key(key) for key in conflicts if key[0] not in reviewers or key[1] not in papers
    )
    if absent:
        raise ValueError(
            f"{args.conflicts}: conflict with a reviewer or paper absent from {path}: {absent}"
        )
    constraints = AssignmentConstraints(
        min_reviewers_per_paper=args.min_reviewers,
        max_papers_per_reviewer=args.max_papers,
        conflicts=frozenset(conflicts),
    )
    result = assign(sorted(papers), sorted(reviewers), sources, constraints, tags)
    write_atomic(
        Path(args.out) / "assignment.csv",
        _csv_text(["reviewer_id", "paper_id"], sorted(result.pairs)),
    )
    audit = {
        "total_similarity": result.total_similarity,
        "feasible": result.feasible,
        "shortfalls": result.shortfalls,
        "constraints": result.report.to_dict(),
    }
    write_atomic(Path(args.out) / "assignment_audit.json", _json_text(audit))
    return 0 if result.feasible and result.report.ok else 1


def cmd_dequantize(args) -> int:
    lam = getattr(args, "lambda")
    rows = exports_table(read_exports(args.input, args.format), metas=False)
    s_dq = dequantize_rows(rows.paper, rows.s, DequantConfig(lam=lam))
    entries = [
        (rows.paper_ids[p], rows.reviewer_ids[r], repr(s), repr(x))
        for p, r, s, x in zip(rows.paper, rows.reviewer, rows.s.tolist(), s_dq.tolist())
    ]
    write_atomic(
        Path(args.out) / "dequantized.csv",
        _csv_text(["paper_id", "reviewer_id", "s", "s_dq"], entries),
    )
    sys.stdout.write(f"dequantized {len(entries)} reviews (lambda={lam}) -> {args.out}\n")
    return 0


def cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        reviews_path=args.input,
        meta_path=args.meta,
        format=args.format,
        out_dir=args.out,
        dequantize=args.dequantize,
        calibrate=args.calibrate,
        dequant=DequantConfig(lam=getattr(args, "lambda")),
        grid=GridSpec(lo=args.grid_min, hi=args.grid_max),
        decision=DecisionConfig(acceptance_rate=args.acceptance_rate),
        n_samples=args.samples,
        seed=args.seed,
    )
    result = run_pipeline(cfg)
    counts = result.gray.counts
    sys.stdout.write(
        f"pipeline complete: {len(result.table.papers)} papers, "
        f"{result.decisions.n_accept} accepted, gray-area {counts}\n"
    )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"validate": cmd_validate, "assign": cmd_assign,
                "dequantize": cmd_dequantize, "pipeline": cmd_pipeline}
    try:
        if getattr(args, "config", None):  # the file's flags come last, so they win
            args = parser.parse_args([*argv, *_config_argv(args)])
        return handlers[args.command](args)
    except (OSError, ValueError, PipelineStageError) as exc:
        sys.stderr.write(f"reviewpipe {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
