"""Unit tests for disturbance synthesis, the homodyne lock loops and EPR photocurrents."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprlock.model import MAX_SAMPLES, ConfigError, DetectionParams, PhysicsDomainError, config_from_dict
from eprlock.nopo import LockFieldState
from eprlock import cli, estimation, kernels, locksim, model, spectra


class TestTimeSeries:
    def test_times(self):
        ts = locksim.TimeSeries(sample_rate=100.0, samples=np.zeros(50))
        assert ts.times[1] == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            locksim.TimeSeries(sample_rate=0.0, samples=np.zeros(5))
        with pytest.raises(ValueError):
            locksim.TimeSeries(sample_rate=1.0, samples=np.array([]))


class TestSynthDisturbance:
    def test_seeded_reproducibility(self):
        spec = locksim.DisturbanceSpec(random_walk_diffusion=1.0, white_noise_density=1e-8, rng_seed=5)
        a = locksim.synth_disturbance(spec, 0.5, 1e4)
        b = locksim.synth_disturbance(spec, 0.5, 1e4)
        np.testing.assert_array_equal(a.samples, b.samples)
        other = locksim.DisturbanceSpec(random_walk_diffusion=1.0, white_noise_density=1e-8, rng_seed=6)
        assert not np.array_equal(a.samples, locksim.synth_disturbance(other, 0.5, 1e4).samples)

    def test_white_noise_sample_variance(self):
        density, rate = 1e-6, 1e5
        spec = locksim.DisturbanceSpec(white_noise_density=density, rng_seed=1)
        ts = locksim.synth_disturbance(spec, 10.0, rate)
        assert np.var(ts.samples) == pytest.approx(density * rate / 2.0, rel=0.02)

    def test_random_walk_growth(self):
        spec = locksim.DisturbanceSpec(random_walk_diffusion=2.0, rng_seed=3)
        trials = [
            locksim.synth_disturbance(
                locksim.DisturbanceSpec(random_walk_diffusion=2.0, rng_seed=s), 1.0, 1e3
            ).samples[-1]
            for s in range(400)
        ]
        # terminal value variance = diffusion * duration
        assert np.var(trials) == pytest.approx(2.0, rel=0.2)

    def test_ramp_and_sinusoid(self):
        spec = locksim.DisturbanceSpec(ramp_rate=3.0, sinusoids=((10.0, 0.5, 0.0),))
        ts = locksim.synth_disturbance(spec, 1.0, 1e4)
        t = ts.times
        np.testing.assert_allclose(
            ts.samples, 3.0 * t + 0.5 * np.sin(2.0 * np.pi * 10.0 * t), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            locksim.DisturbanceSpec(random_walk_diffusion=-1.0)
        with pytest.raises(ValueError, match="rng_seed"):
            locksim.DisturbanceSpec(rng_seed=-1)
        with pytest.raises(ValueError):
            locksim.synth_disturbance(locksim.DisturbanceSpec(), 1e-9, 10.0)
        with pytest.raises(ValueError, match="positive rate"):
            locksim.synth_disturbance(locksim.DisturbanceSpec(), -1.0, -10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["random_walk_diffusion", "white_noise_density", "ramp_rate", "rng_seed"])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            locksim.DisturbanceSpec(**{name: value})

    @pytest.mark.parametrize("sinusoids", [(5.0,), ((50.0, 0.1),), ((50.0, math.nan, 0.0),), (("a", 1.0, 0.0),)])
    def test_sinusoid_must_be_three_finite_numbers(self, sinusoids):
        with pytest.raises(ValueError, match="sinusoid"):
            locksim.DisturbanceSpec(sinusoids=sinusoids)


class TestErrorSignal:
    def test_sinusoidal_fringe(self):
        theta = np.linspace(-math.pi, math.pi, 101)
        sig = locksim.error_signal(theta, 6.0)
        np.testing.assert_allclose(sig, 6.0 * np.sin(theta), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            locksim.error_signal(0.0, -1.0)


FIELDS = LockFieldState(a_cls=1.0 + 0j, a_cli=0.5 + 0j)


def _quiet_loop(**kw):
    base = dict(kp=0.01, ki=5e3, lpf_cutoff=1e4, actuator_range=20.0,
                actuator_resonance=2e4, actuator_q=10.0)
    base.update(kw)
    return locksim.LoopConfig(**base)


class TestLoopConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["kp", "ki", "lpf_cutoff", "actuator_range", "actuator_resonance", "actuator_q"])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            _quiet_loop(**{name: value})


class TestRunClosedLoop:
    def test_zero_disturbance_stays_locked(self):
        quiet = locksim.DisturbanceSpec()
        result = locksim.run_closed_loop(
            locksim.LockSettings(_quiet_loop(), _quiet_loop(), quiet, quiet, quiet, 0.2, 2e5), FIELDS
        )
        assert np.max(np.abs(result.common_mode_theta.samples)) < 1e-12
        assert result.in_lock_fraction == 1.0
        assert result.saturation_count == 0
        assert not result.unstable

    def test_suppresses_slow_drift(self):
        drift = locksim.DisturbanceSpec(random_walk_diffusion=1.0, rng_seed=11)
        quiet = locksim.DisturbanceSpec()
        result = locksim.run_closed_loop(
            locksim.LockSettings(_quiet_loop(), _quiet_loop(), drift, quiet, quiet, 1.0, 2e5), FIELDS
        )
        open_loop = locksim.synth_disturbance(drift, 1.0, 2e5)
        assert np.std(result.residual_theta_s.samples) < 0.05 * np.std(open_loop.samples)
        assert result.in_lock_fraction > 0.99

    def test_pump_noise_enters_idler_arm_only(self):
        quiet = locksim.DisturbanceSpec()
        pump = locksim.DisturbanceSpec(random_walk_diffusion=1.0, rng_seed=21)
        result = locksim.run_closed_loop(
            locksim.LockSettings(_quiet_loop(), _quiet_loop(), quiet, quiet, pump, 0.5, 2e5), FIELDS
        )
        assert np.max(np.abs(result.residual_theta_s.samples)) < 1e-12
        assert np.std(result.residual_theta_i.samples) > 0

    def test_ramp_beyond_range_saturates(self):
        ramp = locksim.DisturbanceSpec(ramp_rate=15.0)
        quiet = locksim.DisturbanceSpec()
        result = locksim.run_closed_loop(
            locksim.LockSettings(_quiet_loop(actuator_range=20.0), _quiet_loop(), ramp, quiet, quiet, 2.0, 2e5),
            FIELDS,
        )
        assert result.saturation_count >= 1
        assert result.in_lock_fraction < 1.0

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_saturation_count_sums_both_arms(self, cpus, monkeypatch):
        """The idler arm's count, returned from the forked worker or inline,
        adds to the signal arm's: each arm's servo_loop count, run on its own."""
        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        quiet = locksim.DisturbanceSpec()
        ramp_s, ramp_p = locksim.DisturbanceSpec(ramp_rate=15.0), locksim.DisturbanceSpec(ramp_rate=-25.0)
        loop_s, loop_i = _quiet_loop(actuator_range=20.0), _quiet_loop(actuator_range=10.0)
        settings = locksim.LockSettings(loop_s, loop_i, ramp_s, quiet, ramp_p, 2.0, 2e5)
        result = locksim.run_closed_loop(settings, FIELDS)
        arms = [
            kernels.servo_loop(
                locksim.synth_disturbance(spec, 2.0, 2e5).samples, 1.0 / 2e5, amp, loop.kp, loop.ki,
                1.0 - math.exp(-2.0 * math.pi * loop.lpf_cutoff * (1.0 / 2e5)),
                2.0 * math.pi * loop.actuator_resonance,
                2.0 * math.pi * loop.actuator_resonance / loop.actuator_q, loop.actuator_range,
            )
            for spec, loop, amp in ((ramp_s, loop_s, abs(FIELDS.a_cls)), (ramp_p, loop_i, abs(FIELDS.a_cli)))
        ]
        (res_s, sat_s), (res_i, sat_i) = arms
        assert 0 < sat_s != sat_i > 0
        assert type(result.saturation_count) is int
        assert result.saturation_count == sat_s + sat_i
        assert result.residual_theta_s.samples.tobytes() == res_s.tobytes()
        assert result.residual_theta_i.samples.tobytes() == res_i.tobytes()

    def test_sample_rate_guard(self):
        quiet = locksim.DisturbanceSpec()
        with pytest.raises(ValueError, match="rate"):
            locksim.run_closed_loop(
                locksim.LockSettings(_quiet_loop(), _quiet_loop(), quiet, quiet, quiet, 0.1, 1e5), FIELDS
            )


class TestCalibrateErrorSignal:
    def test_sine_fringe(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 4097)
        scan = locksim.TimeSeries(1e3, 0.7 * np.sin(theta))
        s_pp, beta = locksim.calibrate_error_signal(scan, 2.0 * math.pi)
        assert s_pp == pytest.approx(1.4, rel=1e-12)
        assert beta == pytest.approx(1.0 / 0.7, rel=1e-12)

    def test_incomplete_fringe_rejected(self):
        scan = locksim.TimeSeries(1e3, np.sin(np.linspace(0.0, 3.0, 100)))
        with pytest.raises(PhysicsDomainError, match="fringe"):
            locksim.calibrate_error_signal(scan, 3.0)

    def test_flat_scan_rejected(self):
        scan = locksim.TimeSeries(1e3, np.zeros(100))
        with pytest.raises(PhysicsDomainError, match="flat"):
            locksim.calibrate_error_signal(scan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scan_rejected(self, bad):
        samples = np.sin(np.linspace(0.0, 2.0 * math.pi, 100))
        samples[17] = bad
        with pytest.raises(PhysicsDomainError, match="non-finite"):
            locksim.calibrate_error_signal(locksim.TimeSeries(1e3, samples), 2.0 * math.pi)

    def test_nan_phase_span_rejected(self):
        scan = locksim.TimeSeries(1e3, np.sin(np.linspace(0.0, 2.0 * math.pi, 100)))
        with pytest.raises(PhysicsDomainError, match="fringe"):
            locksim.calibrate_error_signal(scan, math.nan)


class TestSynthThetaProcess:
    def test_exact_rms_and_reproducibility(self):
        ts = locksim.synth_theta_process(0.01, 200.0, 1e5, 9, buffers=locksim.RecordBuffers.empty(200000))
        assert np.std(ts.samples) == pytest.approx(0.01, rel=1e-12)
        again = locksim.synth_theta_process(0.01, 200.0, 1e5, 9, buffers=locksim.RecordBuffers.empty(200000))
        np.testing.assert_array_equal(ts.samples, again.samples)

    def test_zero_sigma_is_silent(self):
        ts = locksim.synth_theta_process(0.0, 200.0, 1e4, 9, buffers=locksim.RecordBuffers.empty(1000))
        assert np.all(ts.samples == 0.0)

    @pytest.mark.parametrize("cutoff", [0.0, -200.0])
    def test_cutoff_must_be_positive(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            locksim.synth_theta_process(0.01, cutoff, 1e4, 9, buffers=locksim.RecordBuffers.empty(1000))


def _reference_servo_loop(dist, dt, amp, kp, ki, lpf_alpha, w_res, w_damp, act_range):
    """kernels.servo_loop one named step at a time, storing numpy scalars; the
    kernel must keep these bits."""
    res = np.empty(len(dist))
    saturated = 0
    lpf = 0.0
    integ = 0.0
    y = 0.0
    v = 0.0
    frozen = False
    for k, d in enumerate(memoryview(np.ascontiguousarray(dist, dtype=float))):
        phi = d - y
        res[k] = phi
        err = amp * math.sin(phi)
        lpf += lpf_alpha * (err - lpf)
        if not frozen:
            integ += ki * lpf * dt
        cmd = kp * lpf + integ
        v += dt * (w_res * w_res * (cmd - y) - w_damp * v)
        y += dt * v
        if y > act_range:
            y = act_range
            v = 0.0
            saturated += 1
            frozen = True
        elif y < -act_range:
            y = -act_range
            v = 0.0
            saturated += 1
            frozen = True
        else:
            frozen = False
    return res, saturated


def _ramped_disturbance(n, dt, ramp, line_amp, line_hz, walk, seed):
    """A ramp, one sinusoidal line and a random walk, sampled at dt."""
    t = np.arange(n) * dt
    steps = np.random.default_rng(seed).normal(0.0, walk * math.sqrt(dt), n)
    return ramp * t + line_amp * np.sin(2.0 * math.pi * line_hz * t) + np.cumsum(steps)


# The actuator rails sit at +-act_range down to 1 mrad, below the line and
# ramp amplitudes, so a draw can saturate on one rail, on both, or never.
_SERVO_INPUTS = dict(
    n=st.integers(2, 3000),
    dt=st.floats(1e-6, 1e-5),
    amp=st.floats(0.05, 2.0),
    kp=st.floats(0.0, 0.2),
    ki=st.floats(0.0, 2e4),
    lpf_alpha=st.floats(0.01, 1.0),
    f_res=st.floats(1e3, 3e4),
    q=st.floats(0.5, 20.0),
    act_range=st.floats(1e-3, 2.0),
    ramp=st.floats(-500.0, 500.0),
    line_amp=st.floats(0.0, 2.0),
    line_hz=st.floats(10.0, 2000.0),
    walk=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
_BOTH_RAILS = dict(
    n=3000, dt=5e-6, amp=1.0, kp=0.01, ki=5e3, lpf_alpha=0.27, f_res=2e4, q=10.0,
    act_range=0.05, ramp=0.0, line_amp=1.0, line_hz=200.0, walk=0.0, seed=0,
)


class TestServoLoop:
    @staticmethod
    def _both(n, dt, amp, kp, ki, lpf_alpha, f_res, q, act_range, ramp, line_amp, line_hz, walk, seed):
        dist = _ramped_disturbance(n, dt, ramp, line_amp, line_hz, walk, seed)
        w_res = 2.0 * math.pi * f_res
        args = (dist, dt, amp, kp, ki, lpf_alpha, w_res, w_res / q, act_range)
        return dist, kernels.servo_loop(*args), _reference_servo_loop(*args)

    @settings(max_examples=60, deadline=None)
    @given(**_SERVO_INPUTS)
    @example(**_BOTH_RAILS)
    @example(**{**_BOTH_RAILS, "line_amp": 0.0, "ramp": 400.0, "walk": 1.0})
    @example(**{**_BOTH_RAILS, "line_amp": 0.0, "ramp": -400.0, "act_range": 1e-3})
    def test_bits_match_the_stepwise_form(self, **inputs):
        _, (res, saturated), (ref_res, ref_saturated) = self._both(**inputs)
        assert res.tobytes() == ref_res.tobytes()
        assert type(saturated) is int
        assert saturated == ref_saturated

    def test_the_both_rails_example_saturates_on_both_rails(self):
        """The first explicit example reaches +act_range and -act_range: the
        residual phi = d - y gives the actuator position y of the step before,
        up to the rounding of d - phi, and it sits on each rail."""
        dist, (res, saturated), _ = self._both(**_BOTH_RAILS)
        y = dist - res
        act_range = _BOTH_RAILS["act_range"]
        assert saturated > 0
        assert (y.max(), y.min()) == pytest.approx((act_range, -act_range), rel=0.0, abs=1e-12)


def _one_pole_reference(x, alpha):
    """The low-pass recurrence, one sample at a time."""
    out, y = [], 0.0
    for v in x:
        y = alpha * v + (1.0 - alpha) * y
        out.append(y)
    return np.array(out)


class TestOnePoleLowpass:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 5000),
        alpha=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([1.0, 1e-300, 1.0 - 2**-52])
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # Shorter than one 64-sample block, one block, and past a block edge.
    @example(n=1, alpha=0.01, seed=0)
    @example(n=63, alpha=0.01, seed=1)
    @example(n=64, alpha=0.01, seed=2)
    @example(n=65, alpha=0.01, seed=3)
    @example(n=4999, alpha=0.006, seed=4)
    def test_matches_the_recurrence(self, n, alpha, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        y = kernels.one_pole_lowpass(x, alpha)
        np.testing.assert_allclose(y, _one_pole_reference(x.tolist(), alpha), rtol=0.0, atol=1e-13)
        # Into a stale buffer that begins with x itself: the same bits.
        out = np.full(n + kernels.LOWPASS_PAD, np.nan)
        out[:n] = x
        assert kernels.one_pole_lowpass(out[:n], alpha, out=out).tobytes() == y.tobytes()

    def test_out_shorter_than_the_padded_scan_rejected(self):
        with pytest.raises(ValueError, match="needs 67"):
            kernels.one_pole_lowpass(np.ones(4), 0.5, out=np.empty(66))

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            kernels.one_pole_lowpass(np.ones(4), alpha)


def _reference_synth_epr(epsilon, eta_s, eta_i, gamma, theta, duration, rate, rng_seed, dark_noise=False):
    """synth_epr_photocurrents as plain array expressions, before its buffers
    were reused in place; the records must keep these bits."""
    n = int(round(duration * rate))
    rng = np.random.default_rng(rng_seed)
    m = n // 2 + 1
    real_bins = [0, m - 1] if n % 2 == 0 else [0]
    omega = np.fft.rfftfreq(n, d=1.0 / rate) / gamma
    gain = {sign: np.sqrt(spectra.two_mode_variance(epsilon, 1.0, omega, sign) * (n / 2.0)) for sign in spectra.SIGNS}

    def record(sign):
        spectrum = rng.standard_normal(2 * m).view(complex)
        spectrum[real_bins] = math.sqrt(2.0) * spectrum.real[real_bins]
        spectrum *= gain[sign]
        return np.fft.irfft(spectrum, n)

    q_minus, q_plus = record("minus"), record("plus")
    if theta is not None:
        c, s = np.cos(theta.samples), np.sin(theta.samples)
        q_minus = q_minus * c + record("plus") * s
        q_plus = q_plus * c + record("minus") * s

    q_s = (q_plus + q_minus) / math.sqrt(2.0)
    q_i = (q_plus - q_minus) / math.sqrt(2.0)
    q_s = math.sqrt(eta_s) * q_s + math.sqrt(1.0 - eta_s) * rng.standard_normal(n)
    q_i = math.sqrt(eta_i) * q_i + math.sqrt(1.0 - eta_i) * rng.standard_normal(n)
    if dark_noise:
        dark = 10.0 ** (-locksim.DARK_NOISE_CLEARANCE_DB / 20.0)
        q_s = q_s + dark * rng.standard_normal(n)
        q_i = q_i + dark * rng.standard_normal(n)
    return q_s, q_i


class TestSynthEprPhotocurrents:
    GAMMA = 15e6

    @pytest.mark.parametrize("n", [2, 3, 1000, 1001])
    @pytest.mark.parametrize("with_theta", [False, True])
    @pytest.mark.parametrize("eta_s, eta_i", [(0.89, 0.89), (0.95, 0.7), (1.0, 0.0)])
    @pytest.mark.parametrize("dark_noise", [False, True])
    def test_bits_match_the_expression_form(self, n, with_theta, eta_s, eta_i, dark_noise):
        rate = 1e4
        theta = None
        if with_theta:
            theta = locksim.synth_theta_process(0.05, 200.0, rate, 9, buffers=locksim.RecordBuffers.empty(n))
        args = (0.6, eta_s, eta_i, self.GAMMA, theta)
        got = locksim.synth_epr_photocurrents(
            *args, rate, 21, dark_noise=dark_noise, buffers=locksim.RecordBuffers.empty(n)
        )
        ref = _reference_synth_epr(*args, n / rate, rate, 21, dark_noise=dark_noise)
        for q, r in zip(got, ref):
            np.testing.assert_array_equal(q.samples, r)

    def test_reproducibility(self):
        a = locksim.synth_epr_photocurrents(
            0.5, 0.9, 0.9, self.GAMMA, None, 1e5, 42, buffers=locksim.RecordBuffers.empty(50000)
        )
        b = locksim.synth_epr_photocurrents(
            0.5, 0.9, 0.9, self.GAMMA, None, 1e5, 42, buffers=locksim.RecordBuffers.empty(50000)
        )
        np.testing.assert_array_equal(a[0].samples, b[0].samples)
        np.testing.assert_array_equal(a[1].samples, b[1].samples)

    def test_difference_current_is_squeezed(self):
        buffers = locksim.RecordBuffers.empty(1000000)
        q_s, q_i = locksim.synth_epr_photocurrents(0.8, 1.0, 1.0, self.GAMMA, None, 2e5, 3, buffers=buffers)
        shot = locksim.band_power(locksim.shot_noise_reference(2e5, 4, buffers=buffers), 5e3, 1.5e4)
        minus = locksim.TimeSeries(2e5, (q_s.samples - q_i.samples) / math.sqrt(2.0))
        plus = locksim.TimeSeries(2e5, (q_s.samples + q_i.samples) / math.sqrt(2.0))
        vm = locksim.band_rms(minus, 5e3, 1.5e4, shot)
        vp = locksim.band_rms(plus, 5e3, 1.5e4, shot)
        assert vm == pytest.approx(1.0 / 81.0, rel=0.15)  # (1-eps)^2/(1+eps)^2 near DC
        assert vp == pytest.approx(81.0, rel=0.15)

    @pytest.mark.parametrize("eta_s, eta_i", [(0.95, 0.75), (0.6, 0.99)])
    def test_weighted_records_follow_the_one_loss_model(self, eta_s, eta_i):
        """The synthesizer mixes vacuum into each arm on its own, so it checks
        the analytic identity independently: with the idler weighted by
        idler_weight, the band variance is two_mode_variance at the one eta."""
        eps, duration, rate, f_lo, f_hi = 0.8, 2.0, 2e5, 5e3, 1.5e4
        detection = DetectionParams(eta_s=eta_s, eta_i=eta_i)
        g = detection.idler_weight
        buffers = locksim.RecordBuffers.empty(round(duration * rate))
        q_s, q_i = locksim.synth_epr_photocurrents(eps, eta_s, eta_i, self.GAMMA, None, rate, 11, buffers=buffers)
        shot = locksim.band_power(locksim.shot_noise_reference(rate, 12, buffers=buffers), f_lo, f_hi)
        # Relative scatter of a ratio of two independent band powers.
        scatter = math.sqrt(2.0) * estimation.band_power_scatter(q_s.samples.size, rate, f_lo, f_hi)
        omega = 0.5 * (f_lo + f_hi) / self.GAMMA
        for sign, s in (("minus", -1.0), ("plus", 1.0)):
            joint = locksim.TimeSeries(rate, (q_s.samples + s * g * q_i.samples) / math.sqrt(1.0 + g * g))
            expected = spectra.two_mode_variance(eps, detection.eta, omega, sign)
            assert locksim.band_rms(joint, f_lo, f_hi, shot) == pytest.approx(expected, rel=5.0 * scatter)

    @settings(max_examples=60, deadline=None)
    @given(
        eps=st.floats(0.0, 0.9),
        eta_s=st.floats(0.5, 1.0),
        eta_i=st.floats(0.5, 1.0),
        sigma=st.floats(0.0, 0.05),
        rate=st.floats(1e3, 1e7),
        gamma_over_rate=st.floats(0.1, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(eps=0.9, eta_s=0.5, eta_i=1.0, sigma=0.05, rate=5e4, gamma_over_rate=0.1, seed=0)
    def test_joint_psd_follows_the_phase_noise_model(self, eps, eta_s, eta_i, sigma, rate, gamma_over_rate, seed):
        """The Welch PSD of each idler-weighted joint quadrature, in groups of
        128 adjacent bins (DC and Nyquist left out), is phase_noise_variance
        of the two_mode_variance pair at the one eta. The phase weight is the
        theta record's own mean sin^2; its cutoff, 1e-3 of the rate, is far
        below the Lorentzians' widths, so the weight acts bin by bin.

        A group's scatter is 1.44 times ``band_power_scatter`` in RMS (Hann
        segments overlap and neighbouring bins correlate): over 1,000 drawn
        examples the largest of an example's 62 group gaps read 3.7 of that
        scatter in the median and 6.1 at most, the same as under a constant
        theta. The tolerance is 8 of it.
        """
        n, group = 2**16, 128
        detection = DetectionParams(eta_s, eta_i)
        g = detection.idler_weight
        gamma = gamma_over_rate * rate
        buffers = locksim.RecordBuffers.empty(n)
        theta = locksim.synth_theta_process(sigma, 1e-3 * rate, rate, (seed, 0), buffers=buffers)
        weight = float(np.mean(np.sin(theta.samples) ** 2))
        q_s, q_i = locksim.synth_epr_photocurrents(eps, eta_s, eta_i, gamma, theta, rate, (seed, 1), buffers=buffers)
        for sign, s, other in (("minus", -1.0, "plus"), ("plus", 1.0, "minus")):
            joint = locksim.TimeSeries(rate, (q_s.samples + s * g * q_i.samples) / math.sqrt(1.0 + g * g))
            psd = estimation.welch_psd(joint)
            f = psd.frequencies[1:-1]
            k = f.size // group * group
            # Shot-noise units: unit-variance white noise has the one-sided density 2/rate.
            measured = (psd.densities[1:-1] * rate / 2.0)[:k].reshape(-1, group).mean(axis=1)
            v = spectra.two_mode_variance(eps, detection.eta, f[:k] / gamma, sign)
            v_orth = spectra.two_mode_variance(eps, detection.eta, f[:k] / gamma, other)
            model = spectra.phase_noise_variance(v, v_orth, math.sqrt(weight)).reshape(-1, group).mean(axis=1)
            scatter = estimation.band_power_scatter(n, rate, f[0], f[group - 1])
            np.testing.assert_allclose(measured, model, rtol=8.0 * scatter, atol=0.0)

    def test_dark_noise_raises_floor(self):
        args = (0.8, 1.0, 1.0, self.GAMMA, None, 1e5, 5)
        clean = locksim.synth_epr_photocurrents(*args, buffers=locksim.RecordBuffers.empty(200000))
        dark = locksim.synth_epr_photocurrents(*args, dark_noise=True, buffers=locksim.RecordBuffers.empty(200000))
        v_clean = np.var(clean[0].samples - clean[1].samples)
        v_dark = np.var(dark[0].samples - dark[1].samples)
        assert v_dark > v_clean

    def test_domain_check(self):
        buffers = locksim.RecordBuffers.empty(1000)
        with pytest.raises(PhysicsDomainError):
            locksim.synth_epr_photocurrents(1.0, 0.9, 0.9, self.GAMMA, None, 1e4, 0, buffers=buffers)

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_flat_spectrum_at_zero_pump(self, n):
        """At epsilon = 0 every rfft bin of a record has mean |X_k|^2/n = 1,
        the real DC and (n even) Nyquist bins included."""
        rate, records = 1e5, 4000
        power = np.zeros(n // 2 + 1)
        buffers = locksim.RecordBuffers.empty(n)
        for seed in range(records // 2):
            for q in locksim.synth_epr_photocurrents(0.0, 1.0, 1.0, self.GAMMA, None, rate, seed, buffers=buffers):
                power += np.abs(np.fft.rfft(q.samples)) ** 2 / n
        power /= records
        # Over the records, a real bin averages chi-square(1) draws (variance 2),
        # a complex bin exponential ones (variance 1): 5 standard errors.
        tolerance = 5.0 * np.sqrt(2.0 / records)
        np.testing.assert_allclose(power, 1.0, rtol=0.0, atol=tolerance)

    def test_theta_rotates_the_quadratures(self):
        n, rate = 20000, 1e5
        quarter_turn = locksim.TimeSeries(rate, np.full(n, math.pi / 2))
        buffers = locksim.RecordBuffers.empty(n)
        q_s, q_i = locksim.synth_epr_photocurrents(0.8, 1.0, 1.0, self.GAMMA, quarter_turn, rate, 3, buffers=buffers)
        # Turned by pi/2, the difference current carries the anti-squeezed quadrature.
        assert np.var(q_s.samples - q_i.samples) / 2.0 == pytest.approx(81.0, rel=0.1)

    @pytest.mark.parametrize("rate, n", [(2e4, 1000), (1e4, 999), (1e4, 1001)])
    def test_theta_record_must_match_rate_and_length(self, rate, n):
        theta = locksim.TimeSeries(rate, np.zeros(n))
        buffers = locksim.RecordBuffers.empty(1000)
        with pytest.raises(ValueError, match="theta"):
            locksim.synth_epr_photocurrents(0.5, 0.9, 0.9, self.GAMMA, theta, 1e4, 0, buffers=buffers)


def _reference_synth_theta_process(sigma, cutoff, duration, rate, rng_seed):
    """synth_theta_process before it drew into record buffers."""
    n = locksim._sample_count(duration, rate)
    rng = np.random.default_rng(rng_seed)
    white = rng.standard_normal(n)
    alpha = 1.0 - math.exp(-2.0 * math.pi * cutoff / rate)
    x = kernels.one_pole_lowpass(white, alpha)
    std = float(np.std(x))
    if sigma > 0 and std > 0:
        x *= sigma / std
    else:
        x = np.zeros(n)
    return locksim.TimeSeries(sample_rate=rate, samples=x)


def _reference_shot_noise_reference(duration, rate, rng_seed):
    """shot_noise_reference before it drew into record buffers."""
    n = locksim._sample_count(duration, rate)
    return locksim.TimeSeries(sample_rate=rate, samples=np.random.default_rng(rng_seed).standard_normal(n))


def _reference_fig4_point(
    epsilon, detection, gamma, sigma_theta, theta_cutoff, duration, rate, f_lo, f_hi, run_seed, index
):
    """fig4_point before it drew into record buffers, each draw keyed (run_seed, stream, index)."""
    g = detection.idler_weight
    q_s, q_i = _reference_synth_epr(
        epsilon,
        detection.eta_s,
        detection.eta_i,
        gamma,
        _reference_synth_theta_process(
            sigma_theta, theta_cutoff, duration, rate, (run_seed, locksim.THETA_STREAM, index)
        ),
        duration,
        rate,
        (run_seed, locksim.PHOTOCURRENT_STREAM, index),
    )
    shot = _reference_shot_noise_reference(duration, rate, (run_seed, locksim.SHOT_STREAM, index))
    shot_power = locksim.band_power(shot, f_lo, f_hi)
    q_i *= g
    norm = math.hypot(1.0, g)
    vm = locksim.band_rms(locksim.TimeSeries(rate, (q_s - q_i) / norm), f_lo, f_hi, shot_power)
    vp = locksim.band_rms(locksim.TimeSeries(rate, (q_s + q_i) / norm), f_lo, f_hi, shot_power)
    return epsilon, vm, vp, estimation.band_power_scatter(q_s.size, rate, f_lo, f_hi)


def _fig4_settings(detection, gamma, sigma_theta, theta_cutoff, duration, rate, f_lo, f_hi):
    """Fig4Settings for pump points, in _reference_fig4_point's argument order."""
    return locksim.Fig4Settings(
        duration=duration, rate=rate, sigma_theta=sigma_theta, theta_cutoff=theta_cutoff,
        epsilons=(0.1, 0.2, 0.3, 0.4), band=(f_lo, f_hi), detection=detection, gamma=gamma,
    )


def _stale_buffers(n):
    """A set of record buffers full of NaN, as if a failed draw had left them."""
    buffers = locksim.RecordBuffers.empty(n)
    for array in vars(buffers).values():
        array.fill(np.nan)
    return buffers


def _same_records(got, ref):
    assert len(got) == len(ref)
    for q, r in zip(got, ref):
        assert q.sample_rate == r.sample_rate
        assert q.samples.tobytes() == r.samples.tobytes()


class TestRecordBuffers:
    """Records drawn into a reused set of buffers keep the bits of the bodies
    that allocated every record."""

    RATE = 2e4
    # Lossless, unequal and dead-idler arms.
    ARMS = [(1.0, 1.0), (0.95, 0.75), (0.9, 0.0)]

    @pytest.mark.parametrize("n", [4000, 4001])
    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_theta_and_shot_records(self, n, sigma):
        buffers = _stale_buffers(n)
        for seed in (3, 4):  # the second draw reuses the set
            got = locksim.synth_theta_process(sigma, 200.0, self.RATE, seed, buffers=buffers)
            _same_records([got], [_reference_synth_theta_process(sigma, 200.0, n / self.RATE, self.RATE, seed)])
            got = locksim.shot_noise_reference(self.RATE, seed, buffers=buffers)
            _same_records([got], [_reference_shot_noise_reference(n / self.RATE, self.RATE, seed)])

    @pytest.mark.parametrize("n", [4000, 4001])
    @pytest.mark.parametrize("theta_from", ["none", "set", "caller", "zero"])
    @pytest.mark.parametrize("dark_noise", [False, True])
    def test_photocurrents(self, n, theta_from, dark_noise):
        buffers = _stale_buffers(n)
        duration = n / self.RATE
        for k, (eta_s, eta_i) in enumerate(self.ARMS):  # one set across all three draws
            epsilon, seed = 0.3 + 0.2 * k, 50 + k
            sigma = 0.0 if theta_from == "zero" else 0.05
            theta = None
            if theta_from != "none":
                own = buffers if theta_from != "caller" else locksim.RecordBuffers.empty(n)
                theta = locksim.synth_theta_process(sigma, 200.0, self.RATE, seed + 1, buffers=own)
            ref_theta = None if theta is None else locksim.TimeSeries(self.RATE, theta.samples.copy())
            args = (epsilon, eta_s, eta_i, 15e6)
            got = locksim.synth_epr_photocurrents(*args, theta, self.RATE, seed, dark_noise=dark_noise, buffers=buffers)
            ref = _reference_synth_epr(*args, ref_theta, duration, self.RATE, seed, dark_noise)
            _same_records(got, [locksim.TimeSeries(self.RATE, q) for q in ref])
            if theta_from == "caller":
                np.testing.assert_array_equal(theta.samples, ref_theta.samples)  # a caller's theta is not spent

    # At n = 10 and 13 the gain buffer holds less than one Welch segment of 8.
    @pytest.mark.parametrize("n", [10, 13, 4000, 4001])
    def test_fig4_points_share_one_set(self, n):
        buffers = _stale_buffers(n)
        band = (2e3, 6e3)
        points = [
            (0.4, DetectionParams(0.95, 0.75), 0.01, 1000, 0),
            (0.7, DetectionParams(0.89, 0.89), 0.0, 1000, 1),
            (0.2, DetectionParams(0.6, 0.99), 0.03, 3000, 2),
        ]
        for epsilon, detection, sigma, seed, index in points:
            args = (epsilon, detection, 15e6, sigma, 200.0, n / self.RATE, self.RATE, *band, seed, index)
            settings = _fig4_settings(detection, 15e6, sigma, 200.0, n / self.RATE, self.RATE, *band)
            got = locksim.fig4_point(epsilon, settings, seed, index, buffers=buffers)
            ref = _reference_fig4_point(*args)
            assert got == ref
            assert np.array(got).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("sigma, dark_noise", [(0.0, "false"), (0.01, "false"), (0.01, "true")])
    def test_synth_epr_command_keeps_the_reference_records(self, tmp_path, sigma, dark_noise):
        """synth-epr draws theta, the photocurrents and the shot reference
        into one set, as a fig4 point does, and writes the reference bits."""
        overrides = ["synth_epr.duration=0.05", f"synth_epr.sigma_theta={sigma}", f"synth_epr.dark_noise={dark_noise}"]
        assert cli.main(["synth-epr", *(f"--set={o}" for o in overrides), "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(None, overrides)
        sys_cfg, block, seed = config_from_dict(cfg), cfg["synth_epr"], cfg["run"]["rng_seed"]
        duration, rate = block["duration"], block["rate"]
        theta = None
        if sigma > 0:
            theta = _reference_synth_theta_process(
                sigma, block["theta_cutoff"], duration, rate, (seed, locksim.THETA_STREAM, 0)
            )
        detection = sys_cfg.detection
        q_s, q_i = _reference_synth_epr(
            sys_cfg.pump.epsilon, detection.eta_s, detection.eta_i, sys_cfg.cavity.gamma_total, theta, duration, rate,
            (seed, locksim.PHOTOCURRENT_STREAM, 0), block["dark_noise"],
        )
        shot = _reference_shot_noise_reference(duration, rate, (seed, locksim.SHOT_STREAM, 0))
        currents = np.loadtxt(tmp_path / "photocurrents.csv", delimiter=",", skiprows=1)
        written = np.loadtxt(tmp_path / "shot_reference.csv", delimiter=",", skiprows=1)
        for column, ref in ((currents[:, 1], q_s), (currents[:, 2], q_i), (written[:, 1], shot.samples)):
            assert column.tobytes() == ref.tobytes()

    def test_second_point_allocates_less_than_a_record(self):
        """At fig4's default 10 s x 50 kHz, a point drawn into a set that an
        earlier point already used raises numpy's traced peak by less than
        half a record: its Welch blocks go into the set's spent buffers."""
        block = cli.DEFAULT_CONFIG["reproduce_fig4"]
        duration, rate = block["duration"], block["rate"]
        n = locksim._sample_count(duration, rate)
        buffers = locksim.RecordBuffers.empty(n)
        settings = _fig4_settings(DetectionParams(0.95, 0.75), 15e6, 0.01, 200.0, duration, rate, 5e3, 1.5e4)
        locksim.fig4_point(0.3, settings, 1000, 0, buffers=buffers)
        tracemalloc.start()
        try:
            locksim.fig4_point(0.6, settings, 1000, 1, buffers=buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n


class TestFig4Settings:
    """band_bins over the records' Welch grid is the band's only check: it
    takes [0, Nyquist] and refuses a band reaching past either end."""

    def test_default_records_beat_a_million_samples_at_200_khz(self):
        """10 s at 50 kHz hold half the samples of 5 s at 200 kHz but more
        Welch segments x bins in the band: a band power's scatter is set by
        the band's width times the record's length, not by the rate."""
        block = cli.DEFAULT_CONFIG["reproduce_fig4"]
        settings = locksim.Fig4Settings(**block, detection=DetectionParams(0.89, 0.89), gamma=15e6)
        f_lo, f_hi = settings.band
        scatter = estimation.band_power_scatter(settings.samples, settings.rate, f_lo, f_hi)
        assert scatter <= 0.75 * estimation.band_power_scatter(1_000_000, 2e5, f_lo, f_hi)
        assert settings.rate / 2.0 >= 1.5 * f_hi

    def test_band_from_zero_to_nyquist_is_accepted(self):
        settings = _fig4_settings(DetectionParams(0.89, 0.89), 15e6, 0.0, 200.0, 0.05, 2e5, 0.0, 1e5)
        assert settings.band == (0.0, 1e5)

    @pytest.mark.parametrize("band", [(-1.0, 1.5e4), (5e3, 1e5 + 1.0)], ids=["below-zero", "past-nyquist"])
    def test_band_outside_zero_to_nyquist_is_refused(self, band):
        with pytest.raises(ValueError, match="outside estimate range"):
            _fig4_settings(DetectionParams(0.89, 0.89), 15e6, 0.0, 200.0, 0.05, 2e5, *band)


class TestSampleBudget:
    @pytest.mark.parametrize("duration, rate", [(MAX_SAMPLES / 1e4 + 1.0, 1e4), (1e300, 1e300)])
    def test_records_past_the_budget_are_refused(self, duration, rate):
        with pytest.raises(ConfigError, match="sample budget"):
            locksim.RecordSettings(duration, rate, 0.01, 200.0)
        with pytest.raises(ConfigError, match="sample budget"):
            locksim.RecordBuffers.empty(duration * rate)

    def test_budget_is_inclusive(self):
        assert locksim._sample_count(MAX_SAMPLES / 1e4, 1e4) == MAX_SAMPLES


class TestCalibratedThetaPsd:
    def test_recovers_the_rms_of_a_small_tone(self):
        """The fringe scan's beta undoes the lock-field amplitude, so the
        calibrated PSD integrates to the RMS of a small-angle theta."""
        rate, n, amp = 1e4, 40000, 0.7
        theta = locksim.TimeSeries(rate, 0.01 * np.sin(2.0 * np.pi * 250.0 * np.arange(n) / rate))
        s_pp, beta, psd = locksim.calibrated_theta_psd(theta, amp)
        assert s_pp == pytest.approx(2.0 * amp, rel=1e-6)
        assert beta == 2.0 / s_pp
        rms = estimation.integrate_psd(psd, psd.frequencies[1], psd.frequencies[-1])
        assert rms == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-3)


class TestBandRms:
    def test_white_noise_is_unit_ratio(self):
        a = locksim.shot_noise_reference(1e5, 1, buffers=locksim.RecordBuffers.empty(500000))
        b = locksim.shot_noise_reference(1e5, 2, buffers=locksim.RecordBuffers.empty(500000))
        assert locksim.band_rms(a, 1e3, 2e4, locksim.band_power(b, 1e3, 2e4)) == pytest.approx(1.0, rel=0.05)

    def test_band_past_nyquist_is_refused(self):
        a = locksim.shot_noise_reference(1e4, 1, buffers=locksim.RecordBuffers.empty(10000))
        with pytest.raises(ValueError):
            locksim.band_rms(a, 1e3, 6e3, 1.0)
