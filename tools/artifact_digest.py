"""Digests of every artifact the pipeline writes on the benchmark's corpora.

Builds the inputs of the decide-raw-5526 and decide-calibrated-200
workloads with ``benchmarks/run.py``'s ``prepare`` (which draws them with
``benchmarks/corpus.py``) at seeds 3, 7 and 11, runs ``run_pipeline`` on
each with the benchmark's settings, and also ``reviewpipe dequantize`` on
its review export.  Prints one JSON line per written file: the workload,
the seed, the file's name, its sha256 and its size in bytes.

    PYTHONPATH=src python tools/artifact_digest.py > after.jsonl
    PYTHONPATH=../parent/src python tools/artifact_digest.py > before.jsonl
    python tools/artifact_digest.py --compare before.jsonl after.jsonl

``--compare`` prints one JSON line per artifact that differs between two
such outputs, or is in only one of them, then a line with the number of
artifacts compared and the number that differ.
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

WORKLOADS = ["decide-raw-5526", "decide-calibrated-200"]
SEEDS = [3, 7, 11]


def written(workload: str, seed: int, work: Path):
    """Run the pipeline and ``reviewpipe dequantize`` on one corpus; yield
    each written file's name and path, in name order."""
    import run
    from reviewpipe import PipelineConfig, run_pipeline
    from reviewpipe.cli import main as cli

    spec, _ = run.prepare(workload, seed, work)
    config = spec["config"]
    run_pipeline(PipelineConfig(**config, out_dir=str(work / "pipeline")))
    argv = ["dequantize", "--input", config["reviews_path"], "--format", config["format"]]
    with contextlib.redirect_stdout(io.StringIO()):  # its summary line is not a digest
        if cli([*argv, "--out", str(work / "dequantize")]):
            raise SystemExit(f"reviewpipe dequantize failed on {workload} seed {seed}")
    for out in ("pipeline", "dequantize"):
        for path in sorted((work / out).iterdir()):
            yield f"{out}/{path.name}", path


def digest():
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for name, path in written(workload, seed, Path(work)):
                    data = path.read_bytes()
                    print(json.dumps({
                        "workload": workload, "seed": seed, "artifact": name,
                        "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                    }), flush=True)


def compare(before_path: str, after_path: str):
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {(r["workload"], r["seed"], r["artifact"]): r for r in map(json.loads, fh)}

    before, after = load(before_path), load(after_path)
    keys = sorted(before.keys() | after.keys())
    differ = 0
    for key in keys:
        b, a = before.get(key), after.get(key)
        if b is None or a is None or b["sha256"] != a["sha256"]:
            differ += 1
            workload, seed, artifact = key
            print(json.dumps({
                "workload": workload, "seed": seed, "artifact": artifact,
                "bytes": [r and r["bytes"] for r in (b, a)],
            }))
    print(json.dumps({"artifacts": len(keys), "differ": differ}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="list the artifacts that differ between two outputs")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        digest()


if __name__ == "__main__":
    main()
