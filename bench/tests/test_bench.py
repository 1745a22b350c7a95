"""The benchmark at toy size: output gate, digest determinism and tracer hygiene.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def keep_yawbench_modules():
    """The benchmark re-imports the package; give other tests back the modules they imported."""
    saved = {k: v for k, v in sys.modules.items() if k == "yawbench" or k.startswith("yawbench.")}
    yield
    for k in [k for k in sys.modules if k == "yawbench" or k.startswith("yawbench.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_passes_gate_with_one_digest(name, tmp_path):
    result = bench.run_benchmark(name, seed=3, seconds=0, trace=True, params=WORKLOADS[name].toy, out_dir=tmp_path)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    # untraced and traced repetitions all hashed to one digest, checked by the gate
    assert result["manifest"]["reps"] >= 2 and result["manifest"]["traced_reps"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json()["per_layer"]}
    assert "trace_targets_missing" not in result["manifest"]
    assert tracing.wrapped_names(bench.import_yawbench()) == []
    assert (tmp_path / f"{name}-seed3.spans.csv.gz").is_file()
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}-seed3.spans.csv.gz"]


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    name = "paper_e2e"
    a = bench.run_benchmark(name, seed=3, seconds=0, trace=False, params=WORKLOADS[name].toy, out_dir=tmp_path)
    assert a["correct"]
    assert set(a["metrics"]) == {m["name"] for m in benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in a["metrics"].values())
    for rate in ("train_env_steps_per_s", "eval_env_steps_per_s", "cyca_sim_s_per_s"):
        assert a["report"][rate]["value"] > 0
    assert a["report"]["failed_ops_frac"]["value"] == 0.0


def test_wrappers_count_calls_and_are_removed():
    yb = bench.import_yawbench()
    original = yb.baseline.yaw_error
    tracer = tracing.Tracer(yb)
    tracer.install()
    try:
        assert yb.baseline.yaw_error is not original
        yb.baseline.yaw_error(10.0, 350.0)
        yb.env.CycleTrace.from_csv  # classmethods stay bound to the class
    finally:
        assert tracer.uninstall() == []
    assert yb.baseline.yaw_error is original
    calls, total, self_s = tracer.totals()
    assert calls["power.yaw_error"] == 1 and total["power.yaw_error"] >= self_s["power.yaw_error"] >= 0


def _tamper_theta(trace):
    theta = trace.theta.copy()
    theta[5] = (theta[5] + 1.0) % 360.0
    return type(trace)(**{**vars(trace), "theta": theta})


def test_gate_fires_on_tampered_trace(tmp_path):
    wl = WORKLOADS["cyca_replay_variable"]
    yb = bench.import_yawbench()
    state = wl.setup(yb, 3, wl.toy, tmp_path)
    rep = wl.run(yb, state)
    wl.check(yb, state, rep)
    assert [msg for _, msg in rep.checks if msg] == []

    rep.checks = []
    rep.outputs["trace_l"] = _tamper_theta(rep.outputs["trace_l"])
    wl.check(yb, state, rep)
    assert [op for op, msg in rep.checks if msg] == ["replay_cyca_l"]


def test_command_exits_nonzero_when_gate_fires(monkeypatch, tmp_path, capsys):
    wl = WORKLOADS["cyca_replay_variable"]
    real_run = wl.run
    calls = []

    def tampered_run(yb, state):
        rep = real_run(yb, state)
        calls.append(1)
        if len(calls) == 2:  # the second repetition's output differs from the first's
            rep.outputs["trace_s"] = _tamper_theta(rep.outputs["trace_s"])
        return rep

    monkeypatch.setattr(wl, "run", staticmethod(tampered_run))
    monkeypatch.setattr(wl, "full", wl.toy)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    code = bench.main(["--workload", wl.name, "--seed", "3", "--seconds", "0", "--trace", "0"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False and final["failed"] >= 1
    assert set(final) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "train_steady", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
