"""Tests of the benchmark itself, at tiny n.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import miclust as mc  # noqa: E402
import miclust.kernels  # noqa: E402
import miclust.optim  # noqa: E402
from miclust import TrainConfig  # noqa: E402

import calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Run  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "wall_s", "epochs_per_s", "peak_rss_mb"}


def test_every_workload_has_a_calibration_kernel_with_a_reference():
    for cls in WORKLOADS.values():
        assert cls.calibration in calibration.KERNELS
        assert calibration.REFERENCE_S[cls.calibration] > 0
    assert calibration.measure("command") > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_runs_clean_at_tiny_n(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = last_json(run_bench("--workload", "all", "--seed", "1", "--seconds", "0.5", "--tiny", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == expected
    # the CLI workload is the only one that reaches the cli layer
    assert result["metrics"]["cli-n1000.cli.fit.wall_s"]["value"] > 0
    assert result["metrics"]["bands-n200.cli.fit.wall_s"]["value"] == 0
    assert result["metrics"]["contrastive-n200.kernels.gram.calls"]["value"] == 0
    assert result["metrics"]["contrastive-n200.contrastive.info_nce_loss.calls"]["value"] > 0


def test_kernel_rim_call_counts_and_byte_identical_report():
    circles = mc.standardize(mc.make_circles(200, 0.05, 0.1, 0))
    cfg = TrainConfig(epochs=1000, seed=0, objective="rim")
    plain = mc.fit(mc.init_model("kernel", {"k": 2}, rng=0, X_ref=circles.values), circles.values, cfg)
    model = mc.init_model("kernel", {"k": 2}, rng=0, X_ref=circles.values)
    with Tracer() as tracer:
        traced = mc.fit(model, circles.values, cfg)
    assert tracer.calls("kernels.gram") == 3001
    assert tracer.calls("models.forward") == 2001
    assert tracer.calls("optim.adam_step") == 1000
    assert tracer.stats["kernels.gram"].out_bytes == 3001 * 200 * 200 * 8
    assert traced.to_json() == plain.to_json()


def test_tracer_self_time_excludes_children_and_restores_library():
    original = miclust.kernels.gram
    with Tracer() as tracer:
        assert miclust.optim.gram is mc.gram is not original
        X = np.random.default_rng(0).normal(size=(50, 2))
        mc.fit(mc.init_model("mlp", {"d": 2, "k": 2}, rng=0), X, TrainConfig(epochs=5, objective="mmd-gemini"))
    assert miclust.optim.gram is miclust.kernels.gram is mc.gram is original
    fit = tracer.stats["optim.fit"]
    assert fit.calls == 1
    assert 0 <= fit.self_s < fit.total_s
    assert tracer.calls("objectives.mmd_gemini_ova") == 5
    assert tracer.calls("kernels.gram") == 1


class FakeWorkload:
    name = "fake"
    cycle = 1

    def __init__(self, outcome):
        self.outcome = outcome

    def ops(self, r):
        return [("op", self.outcome)]


def check_one(make_outcome, reference=None, rounds=1):
    run = Run(FakeWorkload(make_outcome), reference)
    for i in range(rounds):
        run.round(i)
    return run


def test_output_check_passes_a_good_operation():
    run = check_one(lambda: Outcome(digest="a", labels=[0, 1], k=2, history=[0.1, 0.2]), {"r0.op": "a"}, rounds=2)
    assert run.attempted == 2 and run.failures == []


def test_output_check_catches_each_failure():
    def raises():
        raise ValueError("boom")

    assert "ValueError: boom" in check_one(raises).failures[0]
    assert "non-finite" in check_one(lambda: Outcome(digest="a", history=[0.1, float("nan")])).failures[0]
    assert "labels outside" in check_one(lambda: Outcome(digest="a", labels=[0, 2], k=2)).failures[0]
    assert "reference" in check_one(lambda: Outcome(digest="a"), {"r0.op": "b"}).failures[0]
    assert "problem" in check_one(lambda: Outcome(digest="a", problems=["problem"])).failures[0]
    digests = iter(["a", "b"])
    run = check_one(lambda: Outcome(digest=next(digests)), rounds=2)
    assert run.attempted == 2 and len(run.failures) == 1 and "earlier run" in run.failures[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bands-n200", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
