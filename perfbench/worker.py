"""One benchmark run in a fresh interpreter.

Started by ``run.py``, never by hand. It times the cold ``import
eprlock.cli``, runs one workload once (optionally under the tracer) while
sampling the process's speed with a fixed calibration loop, checks the
workload's outputs, and prints one JSON line on stdout with the timings,
the peak resident memory, the check verdict and, when traced, the
per-layer numbers.

Only the standard library is imported before the timed import, so the
import time includes numpy and scipy as every CLI invocation pays them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

# Output-check thresholds: acceptance criteria 1 (oracle), 8 (fig4) and
# 9 (lock) of the package's acceptance gate.
LIMITS = {
    "fig4.eta_gap": 0.02,
    "fig4.sigma_gap_rad": 3e-3,
    "lock.sigma_theta_rms_rad": 12e-3,
    "oracle.max_rel_dev": 1e-6,
}

# Run sizes. ``full`` is the benchmark; ``smoke`` is a reduced size for
# the harness smoke check.
SIZES = {
    "full": {
        "fig4": [],
        "lock": [],
        "oracle_points": 150,
    },
    "smoke": {
        "fig4": ["--set", "reproduce_fig4.duration=1.0", "--set", "reproduce_fig4.n_bootstrap=5"],
        "lock": ["--set", "lock_sim.duration=0.25"],
        "oracle_points": 5,
    },
}

# Speed sampling. On a shared host the speed a process gets swings by up
# to 2x over seconds, with the other tenants' load. While a workload runs,
# a SIGALRM handler times one slice of a fixed pure-Python loop every
# SAMPLE_PERIOD_S of real time; the workload's time over the mean slice
# time cancels most of that swing.
SLICE_ITERS = 20_000
SAMPLE_PERIOD_S = 0.05

# Criterion 1's integration settings, in units where gamma = 1.
ORACLE_T_END = 50.0
ORACLE_DT = 0.02


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _check_manifest(outdir: Path, misses: list[str]) -> None:
    """Every emitted JSON parses strictly; the manifest lists the files written."""
    for path in sorted(outdir.glob("*.json")):
        try:
            _strict_json(path)
        except ValueError as exc:
            misses.append(f"{path.name}: {exc}")
    manifest = _strict_json(outdir / "manifest.json")
    written = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    if set(manifest["outputs"]) != written:
        misses.append(f"manifest outputs {sorted(manifest['outputs'])} != files {sorted(written)}")


class SpeedSampler:
    """Times calibration slices before, during and after a workload.

    ``clock()`` is ``perf_counter`` minus the time spent in slices, so an
    interval read from it excludes the sampling.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0

    def _slice(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(SLICE_ITERS):
            acc += i * i % 7
        elapsed = time.perf_counter() - t0
        self.slices.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def slice_s(self) -> float:
        return sum(self.slices) / len(self.slices)

    def __enter__(self):
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()


def _bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


# --- workloads -------------------------------------------------------------
#
# Each workload has an input generator (runs before the timed region and
# draws everything from the seed), a timed body, and an output check.


def fig4_inputs(seed: int, size: dict, outdir: Path) -> list[str]:
    run_seed = random.Random(seed).randrange(2**31)
    return ["reproduce", "fig4", "--seed", str(run_seed), "--out", str(outdir)] + size["fig4"]


def lock_inputs(seed: int, size: dict, outdir: Path) -> list[str]:
    rng = random.Random(seed)
    argv = ["lock-sim", "--out", str(outdir)]
    for arm in ("s", "i", "pump"):
        argv += ["--set", f"lock_sim.disturbance_{arm}.rng_seed={rng.randrange(2**31)}"]
    return argv + size["lock"]


def cli_body(package, argv):
    return package.cli.main(argv)


def fig4_check(code, outdir: Path, limits: dict, facts: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    misses: list[str] = []
    fit = _strict_json(outdir / "fig4_fit.json")
    eta_gap = abs(fit["eta_hat"] - fit["injected_eta"])
    sigma_gap = abs(fit["sigma_hat"] - fit["injected_sigma_theta"])
    facts["estimation.eta_gap"] = eta_gap
    facts["estimation.sigma_gap_mrad"] = 1e3 * sigma_gap
    if not eta_gap <= limits["fig4.eta_gap"]:
        misses.append(f"eta gap {eta_gap:.4g} > {limits['fig4.eta_gap']}")
    if not sigma_gap <= limits["fig4.sigma_gap_rad"]:
        misses.append(f"sigma gap {sigma_gap:.4g} rad > {limits['fig4.sigma_gap_rad']}")
    if fit["converged"] is not True:
        misses.append("fit did not converge")
    _check_manifest(outdir, misses)
    return misses


def lock_check(code, outdir: Path, limits: dict, facts: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    misses: list[str] = []
    summary = _strict_json(outdir / "lock_summary.json")
    sigma = summary["sigma_theta_rms"]
    facts["locksim.lock_sigma_mrad"] = 1e3 * sigma
    facts["locksim.in_lock_fraction"] = summary["in_lock_fraction"]
    if not sigma <= limits["lock.sigma_theta_rms_rad"]:
        misses.append(f"sigma_theta_rms {sigma:.4g} rad > {limits['lock.sigma_theta_rms_rad']}")
    if summary["in_lock_fraction"] != 1:
        misses.append(f"in_lock_fraction {summary['in_lock_fraction']} != 1")
    if summary["unstable"] is not False:
        misses.append("loop flagged unstable")
    _check_manifest(outdir, misses)
    return misses


def oracle_inputs(seed: int, size: dict, outdir: Path) -> list[tuple[float, float, float]]:
    rng = random.Random(seed)
    return [
        (rng.uniform(0.0, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-3.141592653589793, 3.141592653589793))
        for _ in range(size["oracle_points"])
    ]


def oracle_body(package, points):
    """Three-way steady-state cross-check, as in acceptance criterion 1."""
    from eprlock.model import CavityParams, PumpParams, SeedParams

    nopo = package.nopo
    seed = SeedParams(alpha_cl=1.0, seed_phase=0.2)
    out = math.sqrt(2.0 * 0.5)  # sqrt(2 * gamma_out)
    worst = 0.0
    for epsilon, delta, phi_p in points:
        cavity = CavityParams(gamma_in=0.5, gamma_out=0.5, delta=delta)
        pump = PumpParams(epsilon=epsilon, phi_p=phi_p)
        lin = nopo.steady_state_linear_solve(cavity, pump, seed)
        closed = nopo.steady_state_closed_form(cavity, pump, seed, variant="corrected")
        traj = nopo.integrate_dynamics(
            cavity, pump, seed, t_end=ORACLE_T_END, dt=ORACLE_DT,
            initial=(closed.a_cls / out, closed.a_cli / out),
        )
        rk4 = nopo.output_fields(cavity, traj)
        scale = max(abs(lin.a_cls), abs(lin.a_cli))
        for a, b in ((lin, closed), (lin, rk4), (closed, rk4)):
            worst = max(worst, abs(a.a_cls - b.a_cls) / scale, abs(a.a_cli - b.a_cli) / scale)
    return worst


def oracle_check(worst, outdir: Path, limits: dict, facts: dict) -> list[str]:
    facts["nopo.oracle_max_rel_dev"] = worst
    if not worst < limits["oracle.max_rel_dev"]:
        return [f"worst relative deviation {worst:.3g} >= {limits['oracle.max_rel_dev']}"]
    return []


WORKLOADS = {
    "fig4": (fig4_inputs, cli_body, fig4_check),
    "lock": (lock_inputs, cli_body, lock_check),
    "oracle": (oracle_inputs, oracle_body, oracle_check),
}


# --- per-layer metrics from a traced run ------------------------------------

# metric -> (unit, kind, span names). Kinds: "incl" sums inclusive span
# time, "self" sums self time, "calls" counts calls; "work" reads a work
# counter fed by the named spans.
SPAN_METRICS = {
    "kernels.servo_loop_s": ("s", "incl", ["kernels.servo_loop"]),
    "kernels.cavity_rk4_s": ("s", "incl", ["kernels.cavity_rk4"]),
    "nopo.integrate_dynamics_self_s": ("s", "self", ["nopo.integrate_dynamics"]),
    "nopo.steady_state_s": ("s", "incl", ["nopo.steady_state_linear_solve", "nopo.steady_state_closed_form"]),
    "locksim.synth_epr_s": ("s", "incl", ["locksim.synth_epr_photocurrents"]),
    "locksim.synth_theta_s": ("s", "incl", ["locksim.synth_theta_process"]),
    "locksim.shot_reference_s": ("s", "incl", ["locksim.shot_noise_reference"]),
    "locksim.band_rms_self_s": ("s", "self", ["locksim.band_rms"]),
    "locksim.run_closed_loop_self_s": ("s", "self", ["locksim.run_closed_loop"]),
    "locksim.synth_disturbance_s": ("s", "incl", ["locksim.synth_disturbance"]),
    "estimation.welch_s": ("s", "incl", ["estimation.welch_psd"]),
    "estimation.fit_s": ("s", "incl", ["estimation.fit_phase_noise_model"]),
    "estimation.welch_calls": ("count", "calls", ["estimation.welch_psd"]),
    "spectra.two_mode_variance_calls": ("count", "calls", ["spectra.two_mode_variance"]),
    "spectra.phase_noise_variance_calls": ("count", "calls", ["spectra.phase_noise_variance"]),
    "kernels.servo_samples": ("count", "work", ["kernels.servo_loop"]),
    "kernels.rk4_steps": ("count", "work", ["kernels.cavity_rk4"]),
    "estimation.welch_samples": ("count", "work", ["estimation.welch_psd"]),
    "locksim.samples_synthesized": (
        "count", "work",
        ["locksim.synth_epr_photocurrents", "locksim.synth_theta_process", "locksim.shot_noise_reference"],
    ),
}

# Accuracy numbers reported by the output checks, not timed.
ACCURACY_METRICS = {
    "estimation.eta_gap": "ratio",
    "estimation.sigma_gap_mrad": "mrad",
    "locksim.lock_sigma_mrad": "mrad",
    "locksim.in_lock_fraction": "ratio",
    "nopo.oracle_max_rel_dev": "ratio",
}


def layer_metrics(tracer, facts: dict, bytes_written: int) -> dict:
    """Per-layer values; None where a named binding no longer exists."""
    from tracer import WORK

    inclusive, own, layer_self = tracer.totals()
    out = {}
    for metric, (unit, kind, names) in SPAN_METRICS.items():
        if not all(n in tracer.bound for n in names):
            value = None
        elif kind == "incl":
            value = sum(inclusive[n] for n in names)
        elif kind == "self":
            value = sum(own[n] for n in names)
        elif kind == "calls":
            value = sum(tracer.calls[n] for n in names)
        else:
            value = tracer.work[WORK[names[0]][0]]
        out[metric] = (value, unit)
    for metric, time_key, count_key in (
        ("kernels.servo_ns_per_sample", "kernels.servo_loop_s", "kernels.servo_samples"),
        ("kernels.rk4_ns_per_step", "kernels.cavity_rk4_s", "kernels.rk4_steps"),
    ):
        seconds, count = out[time_key][0], out[count_key][0]
        value = None if seconds is None or count is None else (1e9 * seconds / count if count else 0.0)
        out[metric] = (value, "ns")
    out["cli.self_s"] = (layer_self["cli"] if "cli.main" in tracer.bound else None, "s")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    for metric, unit in ACCURACY_METRICS.items():
        out[metric] = (facts.get(metric, 0.0), unit)
    return out


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace-file", default=None, help="trace this run and write its spans here")
    parser.add_argument("--force-miss", action="store_true", help="make every output check impossible to pass")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import eprlock.cli  # noqa: F401  (the cold import is the measured set-up)

    setup_s = time.perf_counter() - t0
    import eprlock as package

    make_inputs, body, check = WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    inputs = make_inputs(args.seed, SIZES[args.size], outdir)

    tracer = None
    with SpeedSampler() as sampler:
        if args.trace_file:
            from tracer import HARNESS, Tracer

            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}", clock=sampler.clock)
            tracer.install(package)
            t1 = sampler.clock()
            result = tracer.span(HARNESS, body)(package, inputs)
        else:
            t1 = sampler.clock()
            result = body(package, inputs)
        wall_s = sampler.clock() - t1

    limits = {key: -1.0 for key in LIMITS} if args.force_miss else LIMITS
    facts: dict = {}
    misses = check(result, outdir, limits, facts)
    bytes_written = _bytes_written(outdir) if outdir.exists() else 0
    report = {
        "ok": not misses,
        "misses": misses,
        "wall_s": wall_s,
        "calibration_s": sampler.slice_s(),
        "wall_cal": wall_s / sampler.slice_s(),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numba_enabled": getattr(sys.modules.get("eprlock.backend"), "NUMBA_ENABLED", None),
    }
    if tracer is not None:
        layer_self = tracer.totals()[2]
        traced_wall = tracer.wall()
        accounted = sum(layer_self.values())
        if abs(accounted - traced_wall) > 1e-6 * traced_wall:
            misses.append(f"layer self times sum to {accounted} s, traced wall is {traced_wall} s")
            report["ok"] = False
        report["layers"] = layer_metrics(tracer, facts, bytes_written)
        report["layer_self_s"] = dict(layer_self)
        tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed, "wall_s": traced_wall})
    shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
