"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_checkout_package()

import workloads  # noqa: E402
from hsifreq import gaptv, network  # noqa: E402
from hsifreq.network import NetConfig  # noqa: E402
from spans import Tracer, installed, layer_times  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_NET = NetConfig(height=32, width=32, bands=8, token=8, heads=4, stages=3,
                      share_params=True)


@pytest.fixture
def workdir():
    out = run.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="test-") as d:
        yield Path(d)


class SmallGapTv(workloads.GapTv64):
    h = w = 16
    bands = 8
    min_ops = 2


def small_infer(workdir, seed=3):
    return workloads.InferPaper(seed, workdir, Tracer(), config=SMALL_NET)


def test_infer_checks_pass_on_the_loaded_checkpoint(workdir):
    result, _ = workloads.run("infer-paper", 3, 0, False, workdir, small_infer(workdir))
    assert result["attempted"] == workloads.InferPaper.min_ops
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected


def test_infer_check_fails_when_the_prior_is_bypassed(workdir):
    identity = [(network.PriorNet, "__call__", lambda fn: lambda prior, x, beta: x)]
    with installed(identity):
        result, _ = workloads.run("infer-paper", 3, 0, False, workdir, small_infer(workdir))
    assert result["failed"] >= 1


def test_gaptv_check_fails_when_iterations_stop_early(workdir):
    def short(fn):
        return lambda y, cfg, gcfg=None: fn(y, cfg, gaptv.GapTvConfig(iterations=50))

    wl = SmallGapTv(5, workdir, Tracer())
    with installed([(gaptv, "gap_tv", short)]):
        result, _ = workloads.run("gaptv-64", 5, 0, False, workdir, wl)
    assert result["failed"] == result["attempted"] == SmallGapTv.min_ops
    assert wl.iters == [50, 50]


def test_traced_run_reports_every_per_layer_metric(workdir):
    wl = SmallGapTv(5, workdir, Tracer())
    result, tracer = workloads.run("gaptv-64", 5, 0, True, workdir, wl)
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    m = result["metrics"]
    assert m["gaptv.iterations"][0] == 100
    assert m["gaptv.tv_denoise_calls"][0] == 100 * SmallGapTv.bands
    assert m["cassi.calls"][0] == 1 + 2 * 100 + 1 + 100
    assert m["tensor.gflop"][0] == 0
    assert {rec[4] for rec in tracer.spans} >= {"setup-0", "op-2", "op-3"}


class SmallTrain(workloads.TrainDesk):
    steps = 2
    units_per_op = steps * workloads.TrainDesk.batch
    setup_repeats = 2


def test_traced_training_counts_match_the_analytic_model(workdir):
    wl = SmallTrain(5, workdir, Tracer())
    result, _ = workloads.run("train-desk", 5, 0, True, workdir, wl)
    assert result["failed"] == 0
    m = result["metrics"]
    assert m["tensor.gflop"][0] == m["tensor.gflop_analytic"][0] > 0
    assert m["tensor.tape_nodes"][0] == int(m["tensor.tape_nodes"][0]) > 0
    assert m["tensor.backward_s"][0] > 0 and m["optim.adam_step_s"][0] > 0


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, "op-0"],
             ["b", 1.0, 4.0, 0, "op-0"],
             ["c", 2.0, 3.0, 1, "op-0"],
             ["b", 5.0, 6.0, 0, "op-0"],
             ["a", 0.0, 99.0, -1, "setup-0"]]
    times = layer_times(spans, {"op-0"})
    assert times == {"a": (10.0, 6.0, 1), "b": (4.0, 3.0, 2), "c": (1.0, 1.0, 1)}


def test_refuses_to_run_without_the_package_source(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaptv-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
