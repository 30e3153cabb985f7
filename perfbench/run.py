"""eprlock benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload {fig4,lock,oracle} --seed N --seconds S --trace {0,1}

Each run of a workload is a fresh interpreter (``worker.py``) that imports
the package from ``src/``, runs the workload once and checks its outputs.
Runs are closed loop with one caller: the next starts only when the
previous one has ended. Runs repeat until ``--seconds`` is used up (at
least three). The last line of stdout is one JSON object with the
verdict and the metrics:

* ``--trace 0``: end-to-end medians over the runs (``wall_cal``,
  ``setup_s``, ``peak_rss_mb``);
* ``--trace 1``: the same untraced runs, then one traced run whose spans
  give the per-layer metrics, plus ``python -X importtime`` probes for the
  set-up split. The spans are written to ``.bench_build/perfbench/traces``.

The parent process imports only the standard library and starts one
child at a time; the children are told to use one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "eprlock"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("fig4", "lock", "oracle")
MIN_RUNS = 3
IMPORT_PROBES = 3
# Everything, children included, must end within this many seconds.
BUDGET_S = 165.0

# End-to-end metrics, each the median over the untraced runs. wall_cal is
# one run's workload wall time over the mean time of the calibration
# slices the worker timed during it (see worker.SpeedSampler): on a shared
# host the raw wall time swings with the other tenants' load, and the ratio
# cancels most of that swing. The raw wall time is printed beside it and
# reported as the per-layer wall_s.
END_TO_END = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Harness:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.start = time.monotonic()
        self.reports: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.start)

    def child(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        """Run one child interpreter to completion; None if it timed out."""
        try:
            return subprocess.run(
                [sys.executable] + argv, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return None

    def run_once(self, seed: int, trace_file: Path | None = None) -> dict | None:
        """One workload run; counts it as attempted and, unless it passed, failed."""
        a = self.args
        index = self.attempted
        argv = [
            str(BENCH_DIR / "worker.py"), "--workload", a.workload, "--seed", str(seed),
            "--size", a.size, "--outdir", str(WORK_DIR / "runs" / f"{a.workload}-{index}"),
        ]
        if trace_file is not None:
            argv += ["--trace-file", str(trace_file)]
        if a.force_miss:
            argv.append("--force-miss")
        self.attempted += 1
        proc = self.child(argv)
        report = None
        if proc is None:
            reason = "timed out"
        elif proc.returncode != 0:
            reason = f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        else:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            report["seed"] = seed
            reason = "; ".join(report["misses"])
        if report is None or not report["ok"]:
            self.failed += 1
            print(f"run {index} failed: {reason}", file=sys.stderr)
        return report

    def measure(self) -> None:
        """Untraced runs until --seconds is used up, at least MIN_RUNS.

        Each run draws its own input seed from --seed, so the median is
        taken over inputs as well as over repeats; fig4's fit cost varies
        with the data it fits.
        """
        seeds = random.Random(self.args.seed)
        self.child(["-c", "import eprlock.cli"])  # compiles bytecode; not timed
        t0 = time.monotonic()
        while True:
            t_run = time.monotonic()
            report = self.run_once(seeds.randrange(2**31))
            if report is not None:
                self.reports.append(report)
            now = time.monotonic()
            expected_end = now + (now - t_run)
            if self.attempted >= MIN_RUNS and expected_end - t0 > self.args.seconds:
                break
            if self.remaining() < 2.0 * (now - t_run) + 20.0:
                break

    def import_probe(self) -> tuple[float, float] | None:
        """(scipy.signal, eprlock self) import seconds from ``-X importtime``.

        scipy.signal is loaded lazily and may print no line of its own, so
        its cost is the cumulative time of every ``scipy.signal*`` module
        not nested inside another one.
        """
        proc = self.child(["-X", "importtime", "-c", "import eprlock.cli"])
        if proc is None or proc.returncode != 0:
            return None
        rows = []
        for line in proc.stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
                name = fields[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[0]), int(fields[1])))
        scipy_signal = eprlock_self = 0
        stack: list[tuple[int, bool]] = []  # (depth, inside scipy.signal); parents come last
        for depth, name, own, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_signal = name == "scipy.signal" or name.startswith("scipy.signal.")
            if is_signal and not inside:
                scipy_signal += cumulative
            stack.append((depth, inside or is_signal))
            if name == "eprlock" or name.startswith("eprlock."):
                eprlock_self += own
        return scipy_signal * 1e-6, eprlock_self * 1e-6


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def env_facts(harness: Harness) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        )
        commit = proc.stdout.strip() or None
    # A checkout without .git still identifies the program by its source.
    source = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        source.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    enabled = {r.get("numba_enabled") for r in harness.reports}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "EPRLOCK_NO_NUMBA": os.environ.get("EPRLOCK_NO_NUMBA"),
        "backend_numba_enabled": enabled.pop() if len(enabled) == 1 else None,
    }


def per_layer_metrics(harness: Harness, traced: dict | None, base: dict | None) -> dict:
    metrics = {}
    for name, (value, unit) in (traced or {}).get("layers", {}).items():
        metrics[name] = {"value": value, "unit": unit}
    probes = [p for p in (harness.import_probe() for _ in range(IMPORT_PROBES)) if p is not None]
    metrics["setup.scipy_signal_s"] = {"value": _median(p[0] for p in probes), "unit": "s"}
    metrics["setup.eprlock_self_s"] = {"value": _median(p[1] for p in probes), "unit": "s"}
    overhead = None
    if traced is not None and base is not None:
        overhead = traced["wall_cal"] / base["wall_cal"] - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["wall_s"] = {"value": _median(r["wall_s"] for r in harness.reports), "unit": "s"}
    metrics["fail_frac"] = {"value": harness.failed / harness.attempted, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eprlock benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: reduced inputs")
    parser.add_argument("--force-miss", action="store_true", help="make every output check fail")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    (WORK_DIR / "traces").mkdir(parents=True, exist_ok=True)

    harness = Harness(args)
    harness.measure()
    walls = [r["wall_s"] for r in harness.reports]
    summary = {name: _median(r[name] for r in harness.reports) for name in END_TO_END}

    if args.trace:
        # Trace the inputs of the median untraced run, so the overhead
        # compares the same work.
        trace_file = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        median_run = statistics.median_low(walls) if walls else None
        base = next((r for r in harness.reports if r["wall_s"] == median_run), None)
        traced = harness.run_once(base["seed"] if base else args.seed, trace_file=trace_file)
        metrics = per_layer_metrics(harness, traced, base)
        if traced is not None:
            harness.reports.append(traced)
            print(f"spans: {trace_file.relative_to(ROOT)}")
            print("layer self seconds: " + json.dumps(traced["layer_self_s"], sort_keys=True))
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}

    print("env: " + json.dumps(env_facts(harness), sort_keys=True))
    print(
        f"{args.workload}: {len(walls)} untraced runs, wall_s "
        + " ".join(f"{w:.4f}" for w in walls)
        + f"; attempted {harness.attempted}, failed {harness.failed}"
    )
    for name in ("calibration_s", "wall_cal"):
        print(f"{name} " + " ".join(f"{r[name]:.4f}" for r in harness.reports))
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    shutil.rmtree(WORK_DIR / "runs", ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
