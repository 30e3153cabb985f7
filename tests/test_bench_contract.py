"""The benchmark's traced runs still work against the package.

A traced benchmark run wraps every public function of the package's layer
modules and reads the argument and result types of a few of them
(``perfbench/tracer.py``). A renamed function, a changed signature or a new
return type on such a path makes the run fail, or report a null layer,
while an untraced run still passes. Each test runs one traced workload in
a fresh interpreter, as ``perfbench/run.py --trace 1`` does, and reads its
report; nothing under ``perfbench/`` is edited.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fig4", "lock", "oracle"])
def test_traced_workload_reports_every_layer(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload, "--seed", "1",
        "--outdir", str(tmp_path / "run"), "--trace-file", str(tmp_path / "trace.json"),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["ok"] is True, report["misses"]
    nulls = sorted(name for name, (value, _unit) in report["layers"].items() if value is None)
    assert not nulls, nulls
