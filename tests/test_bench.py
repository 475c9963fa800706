"""tools/bench.py: how pairs are counted and what a record holds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import bench  # noqa: E402


def runs(ref: list[float], new: list[float], name="p50_s") -> dict:
    return {"ref": [{name: v, "correct": True} for v in ref],
            "new": [{name: v, "correct": True} for v in new]}


def test_wins_follow_the_metric_direction_and_a_tie_counts_for_neither():
    lower = bench.summarize(runs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]))
    assert lower["wins"] == {"ref": {"p50_s": 1}, "new": {"p50_s": 2}}
    higher = bench.summarize(runs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], "psnr_db"))
    assert higher["wins"] == {"ref": {"psnr_db": 2}, "new": {"psnr_db": 1}}
    assert lower["medians"] == {"ref": {"p50_s": 2.5}, "new": {"p50_s": 2.5}}
    assert lower["ref_iqr"] == {"p50_s": 1.5}  # quartiles 1.75 and 3.25


def test_a_run_without_a_value_drops_its_pair():
    summary = bench.summarize(runs([1.0, None, 3.0], [2.0, 1.0, None]))
    assert summary["medians"] == {"ref": {"p50_s": 1.0}, "new": {"p50_s": 2.0}}
    assert summary["wins"] == {"ref": {"p50_s": 1}, "new": {"p50_s": 0}}


@pytest.mark.skipif(shutil.which("git") is None or subprocess.run(
    ["git", "rev-parse", "HEAD"], cwd=TOOLS, capture_output=True).returncode != 0,
    reason="needs git and a commit")
def test_one_gaptv_pair_is_written_as_one_record(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    path.write_text("[]\n")
    argv = ["--against", "HEAD", "--workload", "gaptv-64", "--pairs", "1",
            "--seed0", "40", "--seconds", "0.2", "--write", str(path)]
    assert bench.main(argv) == 0
    [record] = json.loads(path.read_text())
    assert record["nproc"] >= 1 and len(record["loadavg_before"]) == 3
    assert record["ref"]["commit"] and record["new"]["commit"]
    result = record["workloads"]["gaptv-64"]
    assert result["seeds"] == [41] and result["first"] == ["ref"]
    for side in bench.SIDES:
        [run] = result["runs"][side]
        assert run["correct"] and run["failed_ratio"] == 0.0
        assert set(result["medians"][side]) == {"setup_s", "p50_s", "psnr_db",
                                                "peak_rss_mb", "failed_ratio"}
    printed = capsys.readouterr().out
    assert printed.count("pair 1 seed 41") == 2
