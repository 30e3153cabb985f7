"""Time-domain simulation of the dual homodyne phase locks.

Beat notes are represented at complex baseband (the analytic envelope
around the +-3 MHz offset), so sample rates stay in the 100 kHz-1 MHz
range. Quantum noise enters as classical correlated Gaussian processes
with the correct second moments, which is exact for the Gaussian
quantities measured here.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import kernels
from .estimation import integrate_psd, welch_psd
from .model import PhysicsDomainError, TimeSeries, fork_join, sample_budget
from .nopo import LockFieldState
from .spectra import two_mode_variance

# Residual larger than this counts as out of lock.
IN_LOCK_THRESHOLD = 0.1  # rad

# Homodyne dark-noise clearance over shot noise, modeled as additive white
# noise when enabled.
DARK_NOISE_CLEARANCE_DB = 24.0


@dataclass(frozen=True)
class DisturbanceSpec:
    """Synthetic phase disturbance: random walk + white noise + lines + ramp."""

    random_walk_diffusion: float = 0.0  # rad^2/s
    white_noise_density: float = 0.0  # rad^2/Hz, one-sided
    sinusoids: tuple = ()  # (frequency Hz, amplitude rad, phase rad)
    ramp_rate: float = 0.0  # rad/s, deterministic drift
    rng_seed: int = 0

    def __post_init__(self):
        if self.random_walk_diffusion < 0 or self.white_noise_density < 0:
            raise ValueError("noise densities must be non-negative")
        for s in self.sinusoids:
            if not (
                isinstance(s, (list, tuple))
                and len(s) == 3
                and all(isinstance(x, (int, float)) and math.isfinite(x) for x in s)
            ):
                raise ValueError(f"each sinusoid must be three finite numbers (Hz, rad, rad), got {s!r}")
        object.__setattr__(
            self, "sinusoids", tuple(tuple(float(x) for x in s) for s in self.sinusoids)
        )


@dataclass(frozen=True)
class LoopConfig:
    """PI servo with demodulation low-pass and a resonant PZT actuator."""

    kp: float
    ki: float  # 1/s
    lpf_cutoff: float  # Hz
    actuator_range: float  # rad
    actuator_resonance: float  # Hz
    actuator_q: float

    def __post_init__(self):
        if self.lpf_cutoff <= 0 or self.actuator_range <= 0:
            raise ValueError("lpf_cutoff and actuator_range must be positive")
        if self.actuator_resonance <= 0 or self.actuator_q <= 0:
            raise ValueError("actuator parameters must be positive")


@dataclass(frozen=True)
class LockRunResult:
    """Residual phases of both loops plus lock-quality bookkeeping."""

    residual_theta_s: TimeSeries
    residual_theta_i: TimeSeries
    saturation_events: np.ndarray  # times (s)
    in_lock_fraction: float
    unstable: bool = False

    @property
    def common_mode_theta(self) -> TimeSeries:
        """Pointwise average of the two arm residuals."""
        common = 0.5 * (self.residual_theta_s.samples + self.residual_theta_i.samples)
        return TimeSeries(self.residual_theta_s.sample_rate, common, "rad")


def _sample_count(duration: float, rate: float) -> int:
    n = sample_budget(duration * rate, "duration*rate")
    if n < 2:
        raise ValueError("duration*rate must be at least 2 samples")
    return n


def synth_disturbance(spec: DisturbanceSpec, duration: float, rate: float) -> TimeSeries:
    """Seeded disturbance record; bit-reproducible for a fixed seed."""
    n = _sample_count(duration, rate)
    dt = 1.0 / rate
    rng = np.random.default_rng(spec.rng_seed)
    out = np.zeros(n)
    if spec.random_walk_diffusion > 0:
        steps = rng.normal(0.0, math.sqrt(spec.random_walk_diffusion * dt), n)
        out += np.cumsum(steps)
    if spec.white_noise_density > 0:
        # one-sided density W over [0, Nyquist] -> sample variance W*rate/2
        out += rng.normal(0.0, math.sqrt(spec.white_noise_density * rate / 2.0), n)
    t = np.arange(n) * dt
    for freq, amp, phase in spec.sinusoids:
        out += amp * np.sin(2.0 * np.pi * freq * t + phase)
    if spec.ramp_rate != 0.0:
        out += spec.ramp_rate * t
    return TimeSeries(sample_rate=rate, samples=out, label="rad")


def error_signal(theta, amp_lo, amp_cl, theta_ref, beat_sign):
    """Demodulated beat-note error signal |LO||CL| sin(theta + beat_sign*theta_ref).

    beat_sign is +1 for the signal arm and -1 for the idler arm, matching
    the opposite beat-note frequencies.
    """
    if amp_lo < 0 or amp_cl < 0:
        raise ValueError("amplitudes must be non-negative")
    if beat_sign not in (1, -1):
        raise ValueError("beat_sign must be +1 or -1")
    return amp_lo * amp_cl * np.sin(np.asarray(theta) + beat_sign * theta_ref)


def _run_arm(loop: LoopConfig, dist: np.ndarray, rate: float, amp: float):
    dt = 1.0 / rate
    lpf_alpha = 1.0 - math.exp(-2.0 * math.pi * loop.lpf_cutoff * dt)
    w_res = 2.0 * math.pi * loop.actuator_resonance
    return kernels.servo_loop(
        dist, dt, amp, loop.kp, loop.ki, lpf_alpha, w_res, w_res / loop.actuator_q, loop.actuator_range
    )


def run_closed_loop(
    loop_s: LoopConfig,
    loop_i: LoopConfig,
    disturbances: tuple[DisturbanceSpec, DisturbanceSpec, DisturbanceSpec],
    lock_fields: LockFieldState,
    duration: float,
    rate: float,
) -> LockRunResult:
    """Simulate both phase locks sample by sample.

    ``disturbances`` is (signal arm, idler arm, pump phase); pump-phase
    fluctuations enter the idler loop because the idler lock field phase
    tracks phi_p - phi_CLs. An unstable loop is reported through the
    ``unstable`` flag rather than an exception.
    """
    if rate < 20.0 * max(loop_s.lpf_cutoff, loop_i.lpf_cutoff):
        raise ValueError("rate must be at least 20x the demodulation cutoff")
    spec_s, spec_i, spec_pump = disturbances
    d_s = synth_disturbance(spec_s, duration, rate).samples
    d_i = synth_disturbance(spec_i, duration, rate).samples
    d_p = synth_disturbance(spec_pump, duration, rate).samples
    d_i_total = d_i + d_p

    amp_s = abs(lock_fields.a_cls)
    amp_i = abs(lock_fields.a_cli)
    # The arms are independent, so the idler's runs in a forked worker
    # (model.fork_join), which writes its residual into this shared buffer.
    res_i = np.frombuffer(mmap.mmap(-1, d_i_total.nbytes), dtype=float)

    def idler_arm():
        res, sat = _run_arm(loop_i, d_i_total, rate, amp_i)
        res_i[:] = res
        return np.flatnonzero(sat)

    sat_i, (res_s, sat_s) = fork_join(idler_arm, lambda: _run_arm(loop_s, d_s, rate, amp_s))

    t = np.arange(res_s.size) / rate
    sat_times = np.sort(np.concatenate([t[sat_s], t[sat_i]]))
    in_lock = float(
        np.mean((np.abs(res_s) < IN_LOCK_THRESHOLD) & (np.abs(res_i) < IN_LOCK_THRESHOLD))
    )

    # Diverging residual variance marks an unstable loop: compare the last
    # quarter of the record against the second quarter (first quarter is
    # acquisition transient).
    n = res_s.size
    unstable = False
    if n >= 8:
        for r in (res_s, res_i):
            early = float(np.std(r[n // 4 : n // 2]))
            late = float(np.std(r[3 * n // 4 :]))
            if late > 10.0 * max(early, 1e-12) and late > 1.0:
                unstable = True
    return LockRunResult(
        residual_theta_s=TimeSeries(rate, res_s, "rad"),
        residual_theta_i=TimeSeries(rate, res_i, "rad"),
        saturation_events=sat_times,
        in_lock_fraction=in_lock,
        unstable=unstable,
    )


def calibrate_error_signal(scan: TimeSeries, phase_span: float | None = None):
    """Peak-to-peak fringe amplitude and calibration factor beta = 2/S_pp.

    ``phase_span`` is the LO phase range swept during the scan; when given
    it must cover at least one full fringe.
    """
    if phase_span is not None and phase_span < 2.0 * math.pi:
        raise PhysicsDomainError(
            f"scan covers {phase_span:.3f} rad < 2*pi: incomplete fringe"
        )
    s_pp = float(np.max(scan.samples) - np.min(scan.samples))
    if s_pp <= 0:
        raise PhysicsDomainError("flat scan: cannot calibrate")
    return s_pp, 2.0 / s_pp


def synth_theta_process(
    sigma: float, cutoff: float, duration: float, rate: float, rng_seed: int
) -> TimeSeries:
    """Stationary low-pass Gaussian phase process with exact RMS ``sigma``."""
    if not cutoff > 0:
        raise ValueError(f"theta cutoff must be positive, got {cutoff}")
    n = _sample_count(duration, rate)
    rng = np.random.default_rng(rng_seed)
    white = rng.standard_normal(n)
    alpha = 1.0 - math.exp(-2.0 * math.pi * cutoff / rate)
    x = kernels.one_pole_lowpass(white, alpha)
    std = float(np.std(x))
    if sigma > 0 and std > 0:
        x *= sigma / std
    else:
        x = np.zeros(n)
    return TimeSeries(sample_rate=rate, samples=x, label="rad")


def synth_epr_photocurrents(
    epsilon: float,
    eta_s: float,
    eta_i: float,
    gamma: float,
    theta: TimeSeries | None,
    duration: float,
    rate: float,
    rng_seed: int,
    dark_noise: bool = False,
) -> tuple[TimeSeries, TimeSeries]:
    """Correlated homodyne photocurrent records with EPR statistics.

    Construction: the joint quadratures (and, given a common-mode phase record
    ``theta``, their orthogonal counterparts) are independent Gaussian records
    drawn as rfft spectra shaped by the corrected squeezing/anti-squeezing
    Lorentzians, rotated per sample by ``theta``, transformed to the per-arm
    currents, and mixed with vacuum for the 1-eta loss of each arm.
    """
    if not 0.0 <= epsilon < 1.0:
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    n = _sample_count(duration, rate)
    if theta is not None and (theta.sample_rate != rate or theta.samples.size != n):
        raise ValueError(f"theta record must hold {n} samples at {rate} Hz, like the photocurrents")
    rng = np.random.default_rng(rng_seed)
    # rfft of unit white noise: E|X_k|^2 = n, half real and half imaginary but at DC and (n even) Nyquist.
    m = n // 2 + 1
    real_bins = [0, m - 1] if n % 2 == 0 else [0]

    def gain_for(sign: str) -> np.ndarray:
        omega = np.fft.rfftfreq(n, d=1.0 / rate) / gamma
        return np.sqrt(two_mode_variance(epsilon, 1.0, omega, sign) * (n / 2.0))

    def record(gain: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        spectrum = rng.standard_normal(2 * m).view(complex)
        spectrum[real_bins] = math.sqrt(2.0) * spectrum.real[real_bins]
        spectrum *= gain
        return np.fft.irfft(spectrum, n, out=out)

    # In place, in the order of the plain expressions (q_minus*cos + orth*sin,
    # (q_plus +- q_minus)/sqrt(2), sqrt(eta)*q + sqrt(1 - eta)*vacuum): the bits
    # are theirs, with at most four records alive. Records are drawn minus,
    # plus, then (given theta) plus, minus. A gain lives only across its own
    # records: both held for the whole call fragment a worker thread's heap,
    # which cost a two-thread fig4 16 MB of peak RSS.
    q_minus = record(gain_for("minus"))
    plus_gain = gain_for("plus")
    q_plus = record(plus_gain)
    if theta is not None:
        cos = np.cos(theta.samples)
        q_minus *= cos
        q_plus *= cos
        del cos
        # The two orthogonal records share one buffer, each drawn where it is mixed in.
        orth = record(plus_gain)
        del plus_gain
        orth *= np.sin(theta.samples)
        q_minus += orth
        record(gain_for("minus"), out=orth)
        orth *= np.sin(theta.samples)
        q_plus += orth
        del orth

    q_s = np.add(q_plus, q_minus)
    q_i = np.subtract(q_plus, q_minus, out=q_minus)
    spare = q_plus  # spent: the vacuum and dark-noise draws reuse it
    q_s /= math.sqrt(2.0)
    q_i /= math.sqrt(2.0)

    def add_noise(q: np.ndarray, scale: float) -> None:
        noise = rng.standard_normal(n, out=spare)
        noise *= scale
        q += noise

    q_s *= math.sqrt(eta_s)
    add_noise(q_s, math.sqrt(1.0 - eta_s))
    q_i *= math.sqrt(eta_i)
    add_noise(q_i, math.sqrt(1.0 - eta_i))
    if dark_noise:
        dark = 10.0 ** (-DARK_NOISE_CLEARANCE_DB / 20.0)
        add_noise(q_s, dark)
        add_noise(q_i, dark)
    return (
        TimeSeries(sample_rate=rate, samples=q_s, label="shot-noise units"),
        TimeSeries(sample_rate=rate, samples=q_i, label="shot-noise units"),
    )


def shot_noise_reference(duration: float, rate: float, rng_seed: int) -> TimeSeries:
    """Unit-variance white record used as the shot-noise normalization."""
    n = _sample_count(duration, rate)
    rng = np.random.default_rng(rng_seed)
    return TimeSeries(sample_rate=rate, samples=rng.standard_normal(n), label="shot-noise units")


def band_power(series: TimeSeries, f_lo: float, f_hi: float) -> float:
    """RMS of ``series`` in [f_lo, f_hi] from its Welch PSD."""
    nyquist = series.sample_rate / 2.0
    if not 0.0 <= f_lo < f_hi <= nyquist:
        raise ValueError(f"band [{f_lo}, {f_hi}] outside [0, Nyquist={nyquist}]")
    return integrate_psd(welch_psd(series), f_lo, f_hi)


def band_rms(
    series: TimeSeries, f_lo: float, f_hi: float, shot_reference: TimeSeries | float
) -> float:
    """Band-integrated PSD of ``series`` normalized to the shot reference.

    ``shot_reference`` is the shot-noise record, or its ``band_power`` over
    the same band when several series share one reference. Returns a
    variance in shot-noise units (the squared normalized RMS).
    """
    if isinstance(shot_reference, TimeSeries):
        if shot_reference.sample_rate != series.sample_rate:
            raise ValueError("shot reference must share the series sample rate")
        shot_reference = band_power(shot_reference, f_lo, f_hi)
    num = band_power(series, f_lo, f_hi)
    return (num / shot_reference) ** 2
