"""Smoke test of the benchmark itself, at tiny sizes (``--smoke``).

Run from the repository root:

    python3 -m pytest bench/test_smoke.py

Each workload runs once untraced and once traced; the last output line must
carry every metric that BENCHMARK.json names, with its unit, and every check
must pass. The tracer must restore what it wraps and report, not crash on, a
layer that no longer exists.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_bindings_and_reports_missing_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import numpy as np
    import splidar
    import splidar.solver
    import tracing

    monkeypatch.setattr(tracing, "LAYERS", ("solver.tv_penalty", "solver.no_such_function"))
    original = splidar.solver.tv_penalty
    tracer = tracing.Tracer("test")
    with tracer.installed():
        assert splidar.tv_penalty is not original
        with tracer.span("bench.op"):
            value = splidar.solver.tv_penalty(np.ones((3, 3, 2)))
    assert value == 0.0
    assert splidar.solver.tv_penalty is original and splidar.tv_penalty is original
    assert tracer.missing == ["solver.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["bench.op", "solver.tv_penalty"]
    assert tracer.spans[1][3] == 0
    assert sum(tracer.self_times()) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])
