"""Digests of every file the package writes on the benchmark's corpora.

Builds the inputs of each workload with ``benchmarks/run.py``'s
``prepare`` (which draws them with ``benchmarks/corpus.py``; the review
exports are written by the package's own export functions): the
decide-raw-5526 and decide-calibrated-200 corpora at seeds 3, 7 and 11,
on which it runs ``run_pipeline`` with the benchmark's settings and
``reviewpipe dequantize`` on the review export, and the assign-1000
instance at seeds 3 and 7, on which it runs ``reviewpipe assign`` with
the benchmark's flags.  Prints one JSON line per written file, the inputs
included: the workload, the seed, the file's name, its sha256 and its
size in bytes.

    PYTHONPATH=src python tools/artifact_digest.py > after.jsonl
    PYTHONPATH=../parent/src python tools/artifact_digest.py > before.jsonl
    python tools/artifact_digest.py --compare before.jsonl after.jsonl

``--compare`` prints one JSON line per artifact that differs between two
such outputs, or is in only one of them, then a line with the number of
artifacts compared and the number that differ, and exits with status 1
when any differs.  Digests made under two hash seeds check that reruns are
byte-identical:

    PYTHONHASHSEED=1 PYTHONPATH=src python tools/artifact_digest.py > seed1.jsonl
    PYTHONHASHSEED=2 PYTHONPATH=src python tools/artifact_digest.py > seed2.jsonl
    python tools/artifact_digest.py --compare seed1.jsonl seed2.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

# each workload's seeds
WORKLOADS = {
    "decide-raw-5526": [3, 7, 11],
    "decide-calibrated-200": [3, 7, 11],
    "assign-1000": [3, 7],
}


def run_cli(argv: list[str], ok=(0,)):
    from reviewpipe.cli import main as cli

    with contextlib.redirect_stdout(io.StringIO()):  # a summary line is not a digest
        code = cli(argv)
    if code not in ok:
        raise SystemExit(f"reviewpipe {argv[0]} exited with {code}")


def written(workload: str, seed: int, work: Path):
    """Build one workload's inputs and run the package on them; yield each
    written file's name and path, in name order."""
    import run
    from reviewpipe import PipelineConfig, run_pipeline

    op, _ = run.prepare(workload, seed, work)
    if op["operation"] == "assign":
        argv = [f"--{flag}={path}" for flag, path in op["inputs"].items()]
        # 1: a paper below the reviewer floor, which the files still record
        run_cli(["assign", *argv, "--out", str(work / "assign")], ok=(0, 1))
        outputs = ("inputs", "assign")
    else:
        config = op["config"]
        run_pipeline(PipelineConfig(**config, out_dir=str(work / "pipeline")))
        argv = ["--input", config["reviews_path"], "--format", config["format"]]
        run_cli(["dequantize", *argv, "--out", str(work / "dequantize")])
        outputs = ("inputs", "pipeline", "dequantize")
    for out in outputs:
        for path in sorted((work / out).iterdir()):
            yield f"{out}/{path.name}", path


def file_digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def digest():
    for workload, seeds in WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                for name, path in written(workload, seed, Path(work)):
                    print(json.dumps({
                        "workload": workload, "seed": seed, "artifact": name, **file_digest(path),
                    }), flush=True)


def report(fields: tuple[str, ...], before: dict, after: dict, detail=lambda key: {}) -> int:
    """Print one JSON line per key of two maps from key tuples, named by
    ``fields``, to :func:`file_digest`s whose sha256 differs or that is in
    only one map, with ``detail(key)`` added to it; then the number of keys
    and of those that differ.  Returns the latter."""
    keys = sorted(before.keys() | after.keys())
    differ = 0
    for key in keys:
        b, a = before.get(key), after.get(key)
        if b is None or a is None or b["sha256"] != a["sha256"]:
            differ += 1
            print(json.dumps({
                **dict(zip(fields, key)), "bytes": [r and r["bytes"] for r in (b, a)], **detail(key),
            }))
    print(json.dumps({"artifacts": len(keys), "differ": differ}))
    return differ


def compare(before_path: str, after_path: str) -> int:
    fields = ("workload", "seed", "artifact")

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {tuple(r[f] for f in fields): r for r in map(json.loads, fh)}

    return report(fields, load(before_path), load(after_path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="list the artifacts that differ between two outputs; "
                             "exit 1 if any does")
    args = parser.parse_args()
    if args.compare:
        if compare(*args.compare):
            raise SystemExit(1)
    else:
        digest()


if __name__ == "__main__":
    main()
