"""Time-domain simulation of the dual homodyne phase locks.

Beat notes are represented at complex baseband (the analytic envelope
around the +-3 MHz offset), so sample rates stay in the 100 kHz-1 MHz
range. Quantum noise enters as classical correlated Gaussian processes
with the correct second moments, which is exact for the Gaussian
quantities measured here.
"""

from __future__ import annotations

import contextvars
import functools
import math
import mmap
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .estimation import (
    MIN_FIT_POINTS, PsdEstimate, SqueezingDataset, apply_calibration, band_bins, band_power_scatter, integrate_psd,
    welch_frequencies, welch_psd,
)
from .model import (
    DetectionParams, PhaseNoiseSpec, PhysicsDomainError, TimeSeries, _require_finite, _require_finite_fields,
    fork_join, sample_budget, usable_cpus,
)
from .nopo import LockFieldState
from .spectra import two_mode_variance

# Residual larger than this counts as out of lock.
IN_LOCK_THRESHOLD = 0.1  # rad

# Homodyne dark-noise clearance over shot noise, modeled as additive white
# noise when enabled.
DARK_NOISE_CLEARANCE_DB = 24.0

# Random streams of fig4 and synth-epr. A draw of run seed S takes
# np.random.default_rng((S, stream, index)), index the pump point or 0:
# numpy hashes the key through SeedSequence, so distinct keys give
# independent streams and no two seeds share a draw. The streams start at 1
# because SeedSequence pads its key with zeros, so (S, 0, 0) would draw as
# the int seed S.
PHOTOCURRENT_STREAM = 1
THETA_STREAM = 2
SHOT_STREAM = 3


@dataclass(frozen=True)
class DisturbanceSpec:
    """Synthetic phase disturbance: random walk + white noise + lines + ramp."""

    random_walk_diffusion: float = 0.0  # rad^2/s
    white_noise_density: float = 0.0  # rad^2/Hz, one-sided
    sinusoids: tuple = ()  # (frequency Hz, amplitude rad, phase rad)
    ramp_rate: float = 0.0  # rad/s, deterministic drift
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("random_walk_diffusion", "white_noise_density", "ramp_rate"):
            _require_finite(name, getattr(self, name))
        if self.random_walk_diffusion < 0 or self.white_noise_density < 0:
            raise ValueError("noise densities must be non-negative")
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise ValueError(f"rng_seed = {self.rng_seed!r} is not a non-negative integer")
        for s in self.sinusoids:
            three = isinstance(s, (list, tuple)) and len(s) == 3
            if not (three and all(isinstance(x, (int, float)) and math.isfinite(x) for x in s)):
                raise ValueError(f"each sinusoid must be three finite numbers (Hz, rad, rad), got {s!r}")
        object.__setattr__(self, "sinusoids", tuple(tuple(float(x) for x in s) for s in self.sinusoids))


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
        _require_finite_fields(self)
        if self.lpf_cutoff <= 0 or self.actuator_range <= 0:
            raise ValueError("lpf_cutoff and actuator_range must be positive")
        if self.actuator_resonance <= 0 or self.actuator_q <= 0:
            raise ValueError("actuator parameters must be positive")


@dataclass(frozen=True)
class LockSettings:
    """Both locks of a run: the arms' loops, the signal, idler and pump-phase
    disturbances, and the duration (s) and rate (Hz) of the records. A loop or
    disturbance given as its lock_sim config object is built from it."""

    loop_s: LoopConfig
    loop_i: LoopConfig
    disturbance_s: DisturbanceSpec
    disturbance_i: DisturbanceSpec
    disturbance_pump: DisturbanceSpec
    duration: float
    rate: float

    def __post_init__(self):
        for name in ("loop_s", "loop_i", "disturbance_s", "disturbance_i", "disturbance_pump"):
            part = getattr(self, name)
            if isinstance(part, dict):
                object.__setattr__(self, name, (LoopConfig if name.startswith("loop") else DisturbanceSpec)(**part))
        if self.rate < 20.0 * max(self.loop_s.lpf_cutoff, self.loop_i.lpf_cutoff):
            raise ValueError("rate must be at least 20x the demodulation cutoff")
        _sample_count(self.duration, self.rate)

    @property
    def samples(self) -> int:
        return _sample_count(self.duration, self.rate)


@dataclass(frozen=True)
class LockRunResult:
    """Residual phases of both loops plus lock-quality bookkeeping."""

    residual_theta_s: TimeSeries
    residual_theta_i: TimeSeries
    saturation_count: int
    in_lock_fraction: float
    unstable: bool = False

    @property
    def common_mode_theta(self) -> TimeSeries:
        """Pointwise average of the two arm residuals."""
        common = 0.5 * (self.residual_theta_s.samples + self.residual_theta_i.samples)
        return TimeSeries(self.residual_theta_s.sample_rate, common)


def _sample_count(duration: float, rate: float) -> int:
    n = sample_budget(duration * rate, "duration*rate")
    if n < 2 or not rate > 0:
        raise ValueError("duration*rate must be at least 2 samples, at a positive rate")
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
    return TimeSeries(sample_rate=rate, samples=out)


def error_signal(theta, amp):
    """Demodulated beat-note error signal amp*sin(theta), amp = |LO||CL| >= 0."""
    if amp < 0:
        raise ValueError("amplitude must be non-negative")
    return amp * np.sin(np.asarray(theta))


def _run_arm(loop: LoopConfig, dist: np.ndarray, rate: float, amp: float):
    dt = 1.0 / rate
    lpf_alpha = 1.0 - math.exp(-2.0 * math.pi * loop.lpf_cutoff * dt)
    w_res = 2.0 * math.pi * loop.actuator_resonance
    return kernels.servo_loop(
        dist, dt, amp, loop.kp, loop.ki, lpf_alpha, w_res, w_res / loop.actuator_q, loop.actuator_range
    )


def run_closed_loop(settings: LockSettings, lock_fields: LockFieldState) -> LockRunResult:
    """Simulate both phase locks sample by sample.

    Pump-phase fluctuations enter the idler loop because the idler lock
    field phase tracks phi_p - phi_CLs. An unstable loop is reported through
    the ``unstable`` flag rather than an exception.
    """
    duration, rate, n = settings.duration, settings.rate, settings.samples
    amp_s = abs(lock_fields.a_cls)
    amp_i = abs(lock_fields.a_cli)
    # The arms are independent, so the idler's runs in a forked worker
    # (model.fork_join): it draws its own seeded disturbances and writes its
    # residual into this shared buffer, while this process draws and runs
    # the signal arm's.
    res_i = np.frombuffer(mmap.mmap(-1, 8 * n), dtype=float)

    def idler_arm():
        d_i = synth_disturbance(settings.disturbance_i, duration, rate).samples
        d_i += synth_disturbance(settings.disturbance_pump, duration, rate).samples
        res, saturated = _run_arm(settings.loop_i, d_i, rate, amp_i)
        res_i[:] = res
        return saturated

    def signal_arm():
        return _run_arm(settings.loop_s, synth_disturbance(settings.disturbance_s, duration, rate).samples, rate, amp_s)

    sat_i, (res_s, sat_s) = fork_join(idler_arm, signal_arm)

    in_lock = float(np.mean((np.abs(res_s) < IN_LOCK_THRESHOLD) & (np.abs(res_i) < IN_LOCK_THRESHOLD)))

    # Diverging residual variance marks an unstable loop: compare the last
    # quarter of the record against the second quarter (first quarter is
    # acquisition transient).
    unstable = False
    if n >= 8:
        for r in (res_s, res_i):
            early = float(np.std(r[n // 4 : n // 2]))
            late = float(np.std(r[3 * n // 4 :]))
            if late > 10.0 * max(early, 1e-12) and late > 1.0:
                unstable = True
    return LockRunResult(TimeSeries(rate, res_s), TimeSeries(rate, res_i), sat_s + sat_i, in_lock, unstable)


def calibrate_error_signal(scan: TimeSeries, phase_span: float | None = None):
    """Peak-to-peak fringe amplitude and calibration factor beta = 2/S_pp.

    ``phase_span`` is the LO phase range swept during the scan; when given
    it must cover at least one full fringe.
    """
    if phase_span is not None and not phase_span >= 2.0 * math.pi:
        raise PhysicsDomainError(f"scan covers {phase_span:.3f} rad, not a full 2*pi fringe")
    s_pp = float(np.max(scan.samples) - np.min(scan.samples))
    if not 0.0 < s_pp < math.inf:
        raise PhysicsDomainError(f"peak-to-peak {s_pp}: a flat or non-finite scan cannot calibrate")
    return s_pp, 2.0 / s_pp


@dataclass(frozen=True, eq=False)
class RecordBuffers:
    """Scratch for the records of one pump point, reused from point to point.

    ``synth_theta_process``, ``synth_epr_photocurrents`` and
    ``shot_noise_reference`` draw into a set, whose n fixes the length of
    their records. A record drawn into a set lives until the next draw into
    the same buffer, so one set serves one thread. The buffers, and what
    uses each in turn:

    - ``theta`` (n + ``kernels.LOWPASS_PAD``, for the low-pass scan): the
      theta record, then the photocurrents' orthogonal draws, then fig4's
      joint quadratures;
    - ``minus``: q_minus, returned as q_i;
    - ``plus``: q_plus, then the vacuum and dark-noise draws, then the
      shot-noise reference;
    - ``mix``: theta's deviations from its mean, cos and sin theta, then q_s;
    - ``spectrum``: one record's rfft spectrum, as 2 (n // 2 + 1) floats,
      then fig4's Welch spectra and powers;
    - ``gain``: the n // 2 + 1 bin gains of that spectrum, then fig4's
      windowed Welch segments.
    """

    theta: np.ndarray
    minus: np.ndarray
    plus: np.ndarray
    mix: np.ndarray
    spectrum: np.ndarray
    gain: np.ndarray

    @classmethod
    def empty(cls, n: int) -> RecordBuffers:
        """A set for n-sample records; past the sample budget, a ConfigError
        before anything is allocated."""
        n = sample_budget(n, "record samples")
        m = n // 2 + 1
        records = (np.empty(n) for _ in range(3))
        return cls(np.empty(n + kernels.LOWPASS_PAD), *records, spectrum=np.empty(2 * m), gain=np.empty(m))


def _theta_alpha(cutoff: float, rate: float) -> float:
    """Coefficient of the theta process's one-pole low-pass at ``cutoff`` Hz."""
    if not cutoff > 0:
        raise ValueError(f"theta cutoff must be positive, got {cutoff}")
    return 1.0 - math.exp(-2.0 * math.pi * cutoff / rate)


@dataclass(frozen=True)
class RecordSettings:
    """Duration (s) and rate (Hz) of synthesized records, and the RMS (rad)
    and low-pass cutoff (Hz) of the theta process they carry."""

    duration: float
    rate: float
    sigma_theta: float
    theta_cutoff: float

    def __post_init__(self):
        _sample_count(self.duration, self.rate)
        PhaseNoiseSpec(self.sigma_theta)
        _theta_alpha(self.theta_cutoff, self.rate)

    @property
    def samples(self) -> int:
        return _sample_count(self.duration, self.rate)


@dataclass(frozen=True)
class SynthSettings(RecordSettings):
    """synth-epr's records, and whether they carry homodyne dark noise."""

    dark_noise: bool


def synth_theta_process(
    sigma: float, cutoff: float, rate: float, rng_seed: int | tuple, *, buffers: RecordBuffers
) -> TimeSeries:
    """Stationary low-pass Gaussian phase process with exact RMS ``sigma``,
    drawn into ``buffers.theta``."""
    n = buffers.minus.size
    alpha = _theta_alpha(cutoff, rate)
    rng = np.random.default_rng(rng_seed)
    white = rng.standard_normal(n, out=buffers.theta[:n])
    x = kernels.one_pole_lowpass(white, alpha, out=buffers.theta)
    # np.std(x), operation for operation, with its squared deviations in a buffer.
    dev = np.subtract(x, x.sum() / n, out=buffers.mix)
    std = math.sqrt(np.square(dev, out=dev).sum() / n)
    if sigma > 0 and std > 0:
        x *= sigma / std
    else:
        x.fill(0.0)
    return TimeSeries(sample_rate=rate, samples=x)


@functools.lru_cache(maxsize=2)
def _bin_grid(n: int, rate: float, gamma: float) -> np.ndarray:
    """np.fft.rfftfreq(n, d=1.0 / rate) / gamma, with rfftfreq's arithmetic,
    read-only: the bin frequencies of an n-sample record in units of gamma."""
    grid = np.arange(n // 2 + 1) * (1.0 / (n * (1.0 / rate)))
    grid /= gamma
    grid.flags.writeable = False
    return grid


def synth_epr_photocurrents(
    epsilon: float, eta_s: float, eta_i: float, gamma: float, theta: TimeSeries | None, rate: float,
    rng_seed: int | tuple, dark_noise: bool = False, *, buffers: RecordBuffers,
) -> tuple[TimeSeries, TimeSeries]:
    """Correlated homodyne photocurrent records with EPR statistics.

    Construction: the joint quadratures (and, given a common-mode phase record
    ``theta``, their orthogonal counterparts) are independent Gaussian records
    drawn as rfft spectra shaped by the corrected squeezing/anti-squeezing
    Lorentzians, rotated per sample by ``theta``, transformed to the per-arm
    currents, and mixed with vacuum for the 1-eta loss of each arm.

    The records are drawn into ``buffers`` and returned in ``buffers.mix``
    (q_s) and ``buffers.minus`` (q_i). ``theta`` may be ``buffers.theta``'s
    record, which this spends, but no other record of the set.
    """
    if not 0.0 <= epsilon < 1.0:
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    n = buffers.minus.size
    if theta is not None and (theta.sample_rate != rate or theta.samples.size != n):
        raise ValueError(f"theta record must hold {n} samples at {rate} Hz, like the photocurrents")
    rng = np.random.default_rng(rng_seed)
    # rfft of unit white noise: E|X_k|^2 = n, half real and half imaginary but at DC and (n even) Nyquist.
    m = n // 2 + 1
    real_bins = [0, m - 1] if n % 2 == 0 else [0]
    grid = _bin_grid(n, rate, gamma)

    def gain_for(sign: str) -> np.ndarray:
        gain = two_mode_variance(epsilon, 1.0, grid, sign, out=buffers.gain)
        gain *= n / 2.0
        return np.sqrt(gain, out=gain)

    def record(gain: np.ndarray, out: np.ndarray) -> np.ndarray:
        spectrum = rng.standard_normal(2 * m, out=buffers.spectrum).view(complex)
        spectrum[real_bins] = math.sqrt(2.0) * spectrum.real[real_bins]
        spectrum *= gain
        return np.fft.irfft(spectrum, n, out=out)

    # In place, in the order of the plain expressions (q_minus*cos + orth*sin,
    # (q_plus +- q_minus)/sqrt(2), sqrt(eta)*q + sqrt(1 - eta)*vacuum): the bits
    # are theirs. Records are drawn minus, plus, then (given theta) plus,
    # minus; the one gain buffer is refilled for each new sign.
    q_minus = record(gain_for("minus"), buffers.minus)
    plus_gain = gain_for("plus")
    q_plus = record(plus_gain, buffers.plus)
    if theta is not None:
        trig = np.cos(theta.samples, out=buffers.mix)
        q_minus *= trig
        q_plus *= trig
        np.sin(theta.samples, out=trig)
        # theta is spent: the two orthogonal records share its buffer, each drawn where it is mixed in.
        orth = record(plus_gain, buffers.theta[:n])
        orth *= trig
        q_minus += orth
        record(gain_for("minus"), out=orth)
        orth *= trig
        q_plus += orth

    q_s = np.add(q_plus, q_minus, out=buffers.mix)
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
    return TimeSeries(sample_rate=rate, samples=q_s), TimeSeries(sample_rate=rate, samples=q_i)


def shot_noise_reference(rate: float, rng_seed: int | tuple, *, buffers: RecordBuffers) -> TimeSeries:
    """Unit-variance white record used as the shot-noise normalization, drawn
    into ``buffers.plus``."""
    rng = np.random.default_rng(rng_seed)
    return TimeSeries(sample_rate=rate, samples=rng.standard_normal(buffers.plus.size, out=buffers.plus))


def band_power(
    series: TimeSeries, f_lo: float, f_hi: float, *, scratch: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """RMS of ``series`` in [f_lo, f_hi] from its Welch PSD, estimated in
    ``welch_psd``'s ``scratch``."""
    return integrate_psd(welch_psd(series, scratch), f_lo, f_hi)


def band_rms(
    series: TimeSeries, f_lo: float, f_hi: float, shot_power: float, *,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Band variance of ``series`` over [f_lo, f_hi] in shot-noise units: the squared
    ratio of its ``band_power`` to ``shot_power``, the shot-noise record's over the band."""
    return (band_power(series, f_lo, f_hi, scratch=scratch) / shot_power) ** 2


def calibrated_theta_psd(theta: TimeSeries, amp: float) -> tuple[float, float, PsdEstimate]:
    """fig3's calibration chain applied to a residual-phase record ``theta``.

    A full fringe scan of the error signal at lock-field amplitude ``amp``
    gives its peak-to-peak S_pp and beta = 2/S_pp; the error signal of
    ``theta``, scaled by beta, is then Welch-estimated. Returns
    (S_pp, beta, PSD of the calibrated phase).
    """
    phase_scan = np.linspace(0.0, 2.0 * np.pi, 4096)
    fringe = TimeSeries(theta.sample_rate, error_signal(phase_scan, amp))
    s_pp, beta = calibrate_error_signal(fringe, float(phase_scan[-1] - phase_scan[0]))
    raw = TimeSeries(theta.sample_rate, error_signal(theta.samples, amp))
    return s_pp, beta, welch_psd(apply_calibration(raw, beta))


@dataclass(frozen=True)
class Fig4Settings(RecordSettings):
    """fig4's records, pump ``epsilons``, ``band`` [f_lo, f_hi] (Hz) of two or
    more Welch bins, and the source's ``detection`` and total decay rate
    ``gamma`` (Hz)."""

    epsilons: tuple
    band: tuple
    detection: DetectionParams
    gamma: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "epsilons", tuple(self.epsilons))
        object.__setattr__(self, "band", tuple(self.band))
        if len(self.epsilons) < MIN_FIT_POINTS:
            raise ValueError(f"epsilons holds {len(self.epsilons)} pump points; the fit needs {MIN_FIT_POINTS}")
        f_lo, f_hi = self.band
        band_bins(welch_frequencies(self.samples, self.rate), f_lo, f_hi)


def fig4_point(
    epsilon: float, settings: Fig4Settings, run_seed: int, index: int, *, buffers: RecordBuffers
) -> tuple[float, float, float, float]:
    """Pump point ``index`` of fig4: (epsilon, var_minus, var_plus, relative uncertainty).

    Photocurrents at pump ``epsilon`` carry a low-pass theta record; their
    joint quadratures' band variances are normalized to a shot-noise record.
    Every record it draws goes into ``buffers``, a set for
    ``settings.samples``-sample records, which it leaves free for the next
    point; its three Welch passes run in the set's spent ``gain`` and
    ``spectrum``. Each draw takes the key (``run_seed``, its stream, ``index``),
    so points can run in any order or at once, each thread with its own set.
    """
    rate, (f_lo, f_hi), detection = settings.rate, settings.band, settings.detection
    g = detection.idler_weight
    theta = synth_theta_process(
        settings.sigma_theta, settings.theta_cutoff, rate, (run_seed, THETA_STREAM, index), buffers=buffers
    )
    q_s, q_i = synth_epr_photocurrents(
        epsilon, detection.eta_s, detection.eta_i, settings.gamma, theta, rate,
        (run_seed, PHOTOCURRENT_STREAM, index), buffers=buffers,
    )
    welch = (buffers.gain, buffers.spectrum)  # spent once the photocurrents are drawn
    shot = shot_noise_reference(rate, (run_seed, SHOT_STREAM, index), buffers=buffers)
    shot_power = band_power(shot, f_lo, f_hi, scratch=welch)
    # The joint quadratures (q_s -+ g q_i)/sqrt(1 + g^2) see the loss
    # detection.eta exactly; q_i is weighted in place and each joint
    # quadrature formed in the spent theta buffer.
    q_s, q_i = q_s.samples, q_i.samples
    q_i *= g
    norm = math.hypot(1.0, g)
    joint = buffers.theta[: q_s.size]
    np.subtract(q_s, q_i, out=joint)
    joint /= norm
    vm = band_rms(TimeSeries(rate, joint), f_lo, f_hi, shot_power, scratch=welch)
    np.add(q_s, q_i, out=joint)
    joint /= norm
    vp = band_rms(TimeSeries(rate, joint), f_lo, f_hi, shot_power, scratch=welch)
    return epsilon, vm, vp, band_power_scatter(q_s.size, rate, f_lo, f_hi)


def fig4_dataset(settings: Fig4Settings, seed: int) -> SqueezingDataset:
    """fig4's points, ``fig4_point`` k at run seed ``seed`` and index k,
    computed on up to one thread per usable CPU.

    The points share no data and their time is spent in numpy calls that
    release the GIL. Each thread draws every point it runs into its own one
    set of ``RecordBuffers``, made at its first point and dropped with the
    pool. Results are taken in point order, so the dataset and the first
    failing point's exception are those of a serial loop.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: its import would cost every command

    local = threading.local()

    def point(epsilon, index):
        if not hasattr(local, "buffers"):
            local.buffers = RecordBuffers.empty(settings.samples)
        return fig4_point(epsilon, settings, seed, index, buffers=local.buffers)

    pool = ThreadPoolExecutor(max_workers=max(1, min(len(settings.epsilons), usable_cpus())))
    try:
        # A worker thread starts from a fresh context; the caller's may hold an np.errstate.
        futures = [
            pool.submit(contextvars.copy_context().run, point, eps, k) for k, eps in enumerate(settings.epsilons)
        ]
        points = [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    return SqueezingDataset(points=tuple(points))
