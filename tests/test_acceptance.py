"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL line.

Each test computes its result, emits a single human-readable verdict line
(shown in the terminal summary via the conftest hook, and inline under -s),
and then asserts.
"""

import json
import math
import time

import numpy as np

from eprlock import cli, estimation, locksim, nopo, spectra
from eprlock.model import CavityParams, PumpParams, SeedParams, db, wrap_phase
from eprlock.locksim import TimeSeries

from conftest import record_verdict


def _verdict(number: int, description: str, ok: bool) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line, flush=True)
    record_verdict(line)
    assert ok, line


def test_criterion_01_steady_state_three_way_agreement():
    cavity0 = CavityParams(gamma_in=0.5, gamma_out=0.5)
    seed = SeedParams(alpha_cl=1.0, seed_phase=0.2)
    start = time.perf_counter()
    worst = 0.0
    for epsilon in np.arange(0.0, 0.91, 0.1):
        for delta_norm in (-2.0, -1.0, 0.0, 1.0, 2.0):
            cavity = CavityParams(gamma_in=0.5, gamma_out=0.5, delta=delta_norm)
            pump = PumpParams(epsilon=float(epsilon), phi_p=0.4)
            lin = nopo.steady_state_linear_solve(cavity, pump, seed)
            closed = nopo.steady_state_closed_form(cavity, pump, seed, variant="corrected")
            out = math.sqrt(2.0 * cavity.gamma_out)
            traj = nopo.integrate_dynamics(
                cavity, pump, seed, t_end=50.0, dt=0.02,
                initial=(closed.a_cls / out, closed.a_cli / out),
            )
            rk4 = nopo.output_fields(cavity, traj)
            scale = max(abs(lin.a_cls), abs(lin.a_cli))
            for a, b in ((lin, closed), (lin, rk4), (closed, rk4)):
                worst = max(
                    worst,
                    abs(a.a_cls - b.a_cls) / scale,
                    abs(a.a_cli - b.a_cli) / scale,
                )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        f"linear solve / closed form / RK4 agree over 45-point grid "
        f"(worst relative deviation {worst:.2e} < 1e-6, {elapsed:.2f} s < 1 s)",
        worst < 1e-6 and elapsed < 1.0,
    )


def test_criterion_02_phase_condition():
    rng = np.random.default_rng(2024)
    cavity = CavityParams(gamma_in=0.5, gamma_out=0.5, delta=0.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pump = PumpParams(
            epsilon=float(rng.uniform(0.01, 0.99)),
            phi_p=float(rng.uniform(-math.pi, math.pi)),
        )
        seed = SeedParams(alpha_cl=1.0, seed_phase=float(rng.uniform(-math.pi, math.pi)))
        state = nopo.steady_state_linear_solve(cavity, pump, seed)
        worst = max(worst, abs(wrap_phase(state.phi_cls + state.phi_cli - pump.phi_p)))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        f"lock-field phase sum equals pump phase on resonance for 100 random draws "
        f"(worst |mismatch| {worst:.2e} rad < 1e-9, {elapsed:.2f} s < 1 s)",
        worst < 1e-9 and elapsed < 1.0,
    )


def test_criterion_03_headline_squeezing_level():
    vm_db = float(db(spectra.two_mode_variance(0.8, 0.89, 0.0, "minus")))
    ok = abs(vm_db - (-9.2)) < 0.05 and abs(vm_db - (-9.0)) <= 0.3
    _verdict(
        3,
        f"squeezed variance at epsilon=0.8, eta=0.89, DC is {vm_db:.2f} dB "
        f"(-9.2 dB expected, within 0.3 dB of -9 dB)",
        ok,
    )


def test_criterion_04_duan_simon_sum():
    vm = spectra.two_mode_variance(0.8, 0.89, 0.0, "minus")
    vp = spectra.two_mode_variance(0.8, 0.89, 0.0, "plus")
    vp_orth = spectra.orthogonal_variance(vp, vm, "plus")
    result = spectra.duan_simon(vm, vp_orth)
    # The 0.018 gap to the measured 0.26 reflects the known anti-squeezing
    # model deviation (17 dB observed vs 18.6 dB modeled); it is accepted,
    # not tuned away.
    ok = abs(result.total - 0.242) < 1e-3 and abs(result.total - 0.26) <= 0.05 and result.entangled
    _verdict(
        4,
        f"inseparability sum {result.total:.4f} (0.242 expected, within 0.05 of 0.26) "
        f"and entangled={result.entangled}",
        ok,
    )


def test_criterion_05_minimum_uncertainty_product():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    eps = rng.uniform(0.0, 0.99, 10000)
    omega = rng.uniform(0.0, 10.0, 10000)
    worst = 0.0
    for e, w in zip(eps, omega):
        vm = spectra.two_mode_variance(e, 1.0, w, "minus")
        vp = spectra.two_mode_variance(e, 1.0, w, "plus")
        worst = max(worst, abs(vm * vp - 1.0))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        f"lossless variance product equals 1 over 10^4 random points "
        f"(worst |product-1| {worst:.2e} < 1e-12, {elapsed:.2f} s < 1 s)",
        worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_06_phase_noise_model_agreement():
    vm = spectra.two_mode_variance(0.8, 0.89, 0.0, "minus")
    vp = spectra.two_mode_variance(0.8, 0.89, 0.0, "plus")
    small = spectra.phase_noise_variance(vm, vp, 0.01, "small-angle")
    exact = spectra.phase_noise_variance(vm, vp, 0.01, "exact-gaussian")
    gap = abs(small - exact)
    _verdict(
        6,
        f"small-angle vs exact-Gaussian phase-noise mixing at sigma=10 mrad "
        f"differ by {gap:.2e} < 1e-5",
        gap < 1e-5,
    )


def test_criterion_07_optimal_pump_amplitude():
    """Two golden-section searches in numpy: optimal_epsilon imports no
    optimizer, so a fresh interpreter pays no import inside the bound."""
    start = time.perf_counter()
    eps_nominal, _ = spectra.optimal_epsilon(0.89, 0.01)
    eps_noisy, _ = spectra.optimal_epsilon(0.89, 0.1)
    elapsed = time.perf_counter() - start
    ok = 0.7 <= eps_nominal <= 0.9 and eps_noisy < 0.6 and elapsed < 1.0
    _verdict(
        7,
        f"optimal pump {eps_nominal:.3f} in [0.7, 0.9] at sigma=10 mrad; "
        f"drops to {eps_noisy:.3f} < 0.6 at sigma=100 mrad "
        f"({elapsed:.3f} s < 1 s, golden-section search)",
        ok,
    )


def test_criterion_08_end_to_end_fig4_pipeline(tmp_path):
    start = time.perf_counter()
    code = cli.main(["reproduce", "fig4", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    with open(tmp_path / "fig4_fit.json") as fh:
        fit = json.load(fh)
    eta_gap = abs(fit["eta_hat"] - fit["injected_eta"])
    sigma_gap = abs(fit["sigma_hat"] - fit["injected_sigma_theta"])
    ok = code == 0 and eta_gap <= 0.02 and sigma_gap <= 0.003 and elapsed < 120.0
    _verdict(
        8,
        f"synthetic squeezing-vs-pump pipeline recovers eta within {eta_gap:.4f} <= 0.02 "
        f"and sigma_theta within {sigma_gap * 1e3:.2f} mrad <= 3 mrad ({elapsed:.1f} s < 120 s)",
        ok,
    )


def test_criterion_09_lock_loop_regulation():
    cfg = cli.load_config(None, [])
    sys_cfg = cli._system_config(cfg)
    start = time.perf_counter()
    result = cli._run_lock(cfg, sys_cfg)
    sigma = float(np.std(result.common_mode_theta.samples))

    ramp_cfg = cli.load_config(
        None,
        [
            "lock_sim.disturbance_s.random_walk_diffusion=0",
            "lock_sim.disturbance_s.white_noise_density=0",
            "lock_sim.disturbance_s.sinusoids=[]",
            "lock_sim.disturbance_s.ramp_rate=15.0",
        ],
    )
    ramp_result = cli._run_lock(ramp_cfg, sys_cfg)
    elapsed = time.perf_counter() - start
    ok = (
        sigma <= 0.012
        and result.in_lock_fraction == 1.0
        and ramp_result.saturation_events.size >= 1
        and elapsed < 30.0
    )
    _verdict(
        9,
        f"default scenario residual sigma_theta {sigma * 1e3:.1f} mrad <= 12 mrad with "
        f"in_lock_fraction {result.in_lock_fraction:.3f}; actuator-range ramp logs "
        f"{ramp_result.saturation_events.size} saturation events ({elapsed:.1f} s < 30 s)",
        ok,
    )


def test_criterion_10_estimator_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    series = TimeSeries(1e5, 1.3 * rng.standard_normal(500000))
    psd = estimation.welch_psd(series)
    rms = estimation.integrate_psd(psd, psd.frequencies[0], psd.frequencies[-1])
    parseval_gap = abs(rms**2 / np.var(series.samples) - 1.0)

    theta = np.linspace(0.0, 2.0 * math.pi, 4097)
    amp = 0.7
    fringe = TimeSeries(1e3, locksim.error_signal(theta, 1.0, amp, 0.0, 1))
    _, beta = locksim.calibrate_error_signal(fringe, 2.0 * math.pi)
    round_trip = abs(beta * amp - 1.0)
    elapsed = time.perf_counter() - start
    ok = parseval_gap < 0.02 and round_trip < 1e-12 and elapsed < 5.0
    _verdict(
        10,
        f"Welch band power matches white-noise variance within {parseval_gap * 100:.2f}% < 2%; "
        f"fringe calibration round trip error {round_trip:.1e} < 1e-12 ({elapsed:.1f} s < 5 s)",
        ok,
    )
