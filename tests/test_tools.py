"""Smoke tests of the scripts under ``tools/``: each runs on one small
input, so a change to what it reads from the library fails here, not on
the script's next use."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run_tool(tool, monkeypatch, capsys, *argv) -> list[dict]:
    monkeypatch.setattr(sys, "argv", [tool.__name__, *argv])
    tool.main()
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_search_audit_fits_one_corpus_and_compares_it_with_itself(tmp_path, monkeypatch, capsys):
    """The audit of one 200-paper corpus, then ``--compare`` of that output
    against itself: every count is the fit's own, and nothing moved."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds benchmarks/ to it
    spec = importlib.util.spec_from_file_location("search_audit", TOOLS / "search_audit.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seed = tool.SEEDS[200][0]
    monkeypatch.setattr(tool, "SEEDS", {200: [seed]})
    fits = run_tool(tool, monkeypatch, capsys)
    assert [(f["papers"], f["seed"], f["side"]) for f in fits] == [
        (200, seed, "review"), (200, seed, "meta")
    ]
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in fits))
    rows = run_tool(tool, monkeypatch, capsys, "--compare", str(path), str(path))
    assert [(r["side"], r["papers"], r["fits"]) for r in rows] == [
        ("review", 200, 1), ("meta", 200, 1)
    ]
    for row, fit in zip(rows, fits):
        assert row["evaluations"] == row["max"] == [fit["evaluations"]] * 2
        assert row["stopped_on_budget"] == [int(fit["stopped_on_budget"])] * 2
        assert row["largest_nll_rise"] == [seed, 0.0]
        assert row["points_moved"] == 0


def test_artifact_digest_digests_one_corpus_and_compares_it_with_itself(
    tmp_path, monkeypatch, capsys
):
    """The digests of one decide-calibrated-200 corpus and one assign-1000
    instance, inputs included, then ``--compare`` of that output against
    itself, which exits normally, and against a copy with one digest
    changed and one without the last artifact: only those artifacts are
    listed, and the exit status is 1."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds benchmarks/ to it
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOLS / "artifact_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seed = tool.WORKLOADS["assign-1000"][0]
    monkeypatch.setattr(tool, "WORKLOADS", {"decide-calibrated-200": [seed], "assign-1000": [seed]})
    rows = run_tool(tool, monkeypatch, capsys)
    written = {(r["workload"], r["artifact"]) for r in rows}
    decide = [
        "inputs/reviews.json", "pipeline/decisions_calibrated.csv", "dequantize/dequantized.csv"
    ]
    assign = ["inputs/similarities.csv", "assign/assignment.csv", "assign/assignment_audit.json"]
    assert {("decide-calibrated-200", name) for name in decide} <= written
    assert {("assign-1000", name) for name in assign} <= written
    assert all(r["bytes"] > 0 and len(r["sha256"]) == 64 for r in rows)
    path = tmp_path / "digest.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run_tool(tool, monkeypatch, capsys, "--compare", str(path), str(path)) == [
        {"artifacts": len(rows), "differ": 0}
    ]
    changed = [dict(rows[0], sha256="0" * 64), *rows[1:-1]]
    other = tmp_path / "changed.jsonl"
    other.write_text("".join(json.dumps(r) + "\n" for r in changed))
    with pytest.raises(SystemExit) as raised:
        run_tool(tool, monkeypatch, capsys, "--compare", str(path), str(other))
    assert raised.value.code == 1
    listed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    differ = sorted([rows[0], rows[-1]], key=lambda r: (r["workload"], r["seed"], r["artifact"]))
    assert [r.get("artifact") for r in listed] == [r["artifact"] for r in differ] + [None]
    assert listed[-1] == {"artifacts": len(rows), "differ": 2}


def test_paper_scale_runs_one_corpus_and_compares_it(tmp_path, monkeypatch, capsys):
    """One small calibrated run with papers factored, then ``--compare`` of
    its directory against itself, which exits normally, and against a copy
    with one float changed and another made NaN: only that file is listed,
    its column with both changes, and the exit status is 1."""
    import shutil

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds tools/ and benchmarks/ to it
    spec = importlib.util.spec_from_file_location("paper_scale", TOOLS / "paper_scale.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "run"
    line = tool.run_once(out, 3, 120, 400, 200)
    assert (line["papers"], line["reviews"], line["reviewers"], line["seed"]) == (120, 400, 200, 3)
    fit = json.loads((out / "pipeline" / "calibration_fit.json").read_text())
    assert line["evaluations"] == {"review": fit["evaluations"], "meta": fit["meta"]["evaluations"]}
    assert line["vm_hwm_mib"][0] <= line["vm_hwm_mib"][1]
    assert set(line["peak_mib"]) == {"draw_mib", "draw_result_mib", "sampler_mib"}
    assert sorted(line["sha256"]) == sorted(p.name for p in (out / "pipeline").iterdir())
    assert run_tool(tool, monkeypatch, capsys, "--compare", str(out), str(out)) == [
        {"artifacts": len(line["sha256"]) + 2, "differ": 0}
    ]
    other = tmp_path / "other"
    shutil.copytree(out, other)
    path = other / "pipeline" / "decisions_calibrated.csv"
    header, first, second, *rest = path.read_text().splitlines(keepends=True)
    rank, paper, si, decision = first.split(",")
    first = ",".join([rank, paper, repr(float(si) + 0.5), decision])
    rank, paper, si, decision = second.split(",")
    path.write_text("".join([header, first, ",".join([rank, paper, "nan", decision]), *rest]))
    with pytest.raises(SystemExit) as raised:
        run_tool(tool, monkeypatch, capsys, "--compare", str(out), str(other))
    assert raised.value.code == 1
    listed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r.get("artifact") for r in listed] == ["pipeline/decisions_calibrated.csv", None]
    columns = listed[0]["columns"]
    assert columns.pop("SI") == {"other_equal": False, "max_float_diff": pytest.approx(0.5)}
    assert all(c["other_equal"] for c in columns.values())
    assert [c["max_float_diff"] for c in columns.values()] == [0.0] * 3
    assert listed[-1]["differ"] == 1
