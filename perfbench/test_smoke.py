"""Reduced-size smoke check of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at the ``smoke`` size (short records, few oracle
points) and checks the result line against ``BENCHMARK.json``: every
declared metric is printed with its unit, a forced output-check miss is
counted in ``failed`` and ``fail_frac``, the traced run's spans account for
its wall time, and the harness refuses to run without the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig4", "lock", "oracle")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def _smoke(workload: str, trace: int, *extra: str) -> dict:
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                "--size", "smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    result = _smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values()), metrics
    assert metrics["fail_frac"]["value"] == 0

    spans = json.loads((ROOT / ".bench_build" / "perfbench" / "traces" / f"{workload}-seed5.json").read_text())
    assert spans["spans"] and all(
        set(s) == {"id", "name", "parent", "start", "end", "run_id"} for s in spans["spans"]
    )
    assert sum(spans["layer_self_s"].values()) == pytest.approx(spans["wall_s"], rel=1e-6)
    if workload != "oracle":
        assert spans["spans"][1]["name"] == "cli.main"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forced_miss_is_counted(workload):
    result = _smoke(workload, 1, "--force-miss")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4
    assert result["metrics"]["fail_frac"]["value"] == 1.0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_binding_reports_null(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer
    import worker

    kernels = types.ModuleType("stub.kernels")

    def cavity_rk4(*args):
        return args

    cavity_rk4.__module__ = kernels.__name__
    kernels.cavity_rk4 = cavity_rk4
    trace = tracer.Tracer("stub")
    trace.install(types.SimpleNamespace(kernels=kernels))
    metrics = worker.layer_metrics(trace, {}, 0)
    assert metrics["kernels.servo_loop_s"][0] is None
    assert metrics["kernels.servo_ns_per_sample"][0] is None
    assert metrics["cli.self_s"][0] is None
    assert metrics["kernels.cavity_rk4_s"][0] == 0
