"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py

They run every workload at a tiny size (a few thousand draws per op),
check that each declared metric is printed with its unit, and show that
the output checks can fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc, lines = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("error_rate") and " ratio " in line for line in lines)
    assert any(line.startswith("draws_per_s") and line.endswith(" 1/s") for line in lines)


def test_tiny_traced_run_prints_every_layer_metric():
    proc, lines = _bench("numeric", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    for name in declared:
        assert any(line.split()[:1] == [name] for line in lines)
    assert metrics["bayes_factors.values"]["value"] > 0
    assert metrics["problems.draws"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = _bench("closed", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


GATE_OPS = (
    "calibrate:alpha_one_sided_point_mass",
    "calibrate:alpha_t_test",
    "calibrate:lambda_regression_known_var",
)


def _failures(tmp_path, tag):
    sys.path.insert(0, run.SRC)
    import bfequiv.cli as cli

    ops = [op for w in run.WORKLOADS for op in run.workload_ops(w) if op["id"] in GATE_OPS]
    spec = run.make_spec(ops, 1, False, str(tmp_path / tag))
    return run.count_failures([child.run_pass(spec, cli)])


def test_wrong_reference_lambda_raises_error_rate(tmp_path, monkeypatch):
    attempted, failures = _failures(tmp_path, "right")
    assert attempted == len(GATE_OPS) and failures == {}

    right = checks.reference_bf

    def wrong(cfg, stat):
        value = right(cfg, stat)
        return None if value is None else value * 1.001

    monkeypatch.setattr(checks, "reference_bf", wrong)
    attempted, failures = _failures(tmp_path, "wrong")
    assert sorted(failures) == sorted(GATE_OPS)
    # none of them is a recorded defect, so the run reports correct = false
    assert not set(failures) & set(run.KNOWN_DEFECTS)


def test_self_time_credits_integrands_to_the_caller():
    import layertrace

    tracer = layertrace.Tracer()
    tracer.names = [
        ("cli", "cli.main", "op"),
        ("bayes_factors", "bayes_factors.TTestBf.series", "eval"),
        ("integrate", "integrate.quad", "quad"),
    ]
    # main [0, 100] > series [10, 60] over 5 values > quad [20, 50],
    # of which 20 ns ran inside the integrand
    tracer.spans = [
        [0, 0, 100, -1, 0, 0],
        [1, 10, 60, 0, 5, 0],
        [2, 20, 50, 1, 0, 20],
    ]
    out = tracer.summary()
    assert out["cli.self_s"] == pytest.approx(50e-9)
    assert out["bayes_factors.self_s"] == pytest.approx(40e-9)
    assert out["integrate.self_s"] == pytest.approx(10e-9)
    assert out["bayes_factors.eval_s"] == pytest.approx(50e-9)
    assert out["bayes_factors.values"] == 5
    assert out["bayes_factors.ns_per_value"] == pytest.approx(10.0)
    assert out["integrate.quad_calls"] == 1
