import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import workloads
import worker

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_with_all_checks(name, tmp_path):
    make_inputs, run_pass = workloads.WORKLOADS[name]
    size = workloads.SIZES[name]["tiny"]
    host = workloads.HostSpeed()
    rec = workloads.Recorder(memo={}, host=host)
    passes = []
    for _ in range(2):
        start = perf_counter()
        run_pass(make_inputs(3, size, tmp_path), rec)
        passes.append((start, perf_counter(), perf_counter() - start))
    assert rec.failed == 0, rec.errors
    assert rec.attempted > 0
    assert host.times, "the host kernel never ran between operations"
    metrics, report = workloads.end_to_end(name, rec, passes, host)
    for key, (value, _) in list(metrics.items()) + list(report.items()):
        assert math.isfinite(value) and value > 0 or key == "fail_frac", (key, value)


def test_same_seed_gives_same_inputs():
    make_inputs, _ = workloads.WORKLOADS["sg-psd"]
    size = workloads.SIZES["sg-psd"]["tiny"]
    a, b = make_inputs(5, size, None), make_inputs(5, size, None)
    assert a.cfg.params == b.cfg.params
    assert a.snaps.data.tobytes() == b.snaps.data.tobytes()
    assert make_inputs(6, size, None).cfg.params != a.cfg.params


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_calls_repeat_for_same_seed(name, tmp_path):
    make_inputs, run_pass = workloads.WORKLOADS[name]
    size = workloads.SIZES[name]["tiny"]
    calls = []
    for i in range(2):
        rec = workloads.Recorder(memo={})
        with worker.make_tracer() as tracer:
            run_pass(make_inputs(11, size, tmp_path / str(i)), rec)
        assert rec.failed == 0, rec.errors
        metrics = worker.layer_metrics(tracer, 1.0)
        calls.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0


def test_worker_protocol(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "stiefel-adam", "--seed", "2",
         "--seconds", "0.2", "--tiny", "--mode", "trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["failed"] == 0, res["errors"]
    names = {name for name, _ in worker.layers.per_layer_metrics()}
    assert set(res["metrics"]) == names
    assert res["metrics"]["optimizers.stiefel_psd_update.calls"][0] > 0
    spans = json.loads((tmp_path / "trace-stiefel-adam-seed2.json").read_text())
    assert spans["spans"] and spans["names"]


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sg-psd",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
