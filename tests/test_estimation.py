"""Unit tests for PSD estimation, calibration and the phase-noise model fit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprlock import estimation, spectra
from eprlock.estimation import FitSettings
from eprlock.locksim import TimeSeries
from eprlock.model import NumericalError


def _white(duration=10.0, rate=1e4, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries(rate, rng.standard_normal(int(duration * rate)))


class TestWelchPsd:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1000, 300_000),
        rate=st.floats(1.0, 1e6),
        std=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1000, rate=1.0, std=1e-6, seed=0)  # segment length 125, odd
    @example(n=300_000, rate=1e6, std=1e6, seed=1)  # segment length 37,500, even
    def test_parseval_on_white_noise(self, n, rate, std, seed):
        """welch_psd integrated over [0, Nyquist] recovers the record's variance.

        The tolerance is four times ``band_power_scatter`` over that range,
        about 1/sqrt(n). Welch weights the samples by overlapped Hann^2
        windows where np.var weights them equally, so the two differ by a
        scatter of their own: over 1,500 drawn records (n 1,000-300,000, any
        rate and variance) the gap read 0.54 of that scatter in RMS and 2.1 at
        most.
        """
        x = std * np.random.default_rng(seed).standard_normal(n)
        psd = estimation.welch_psd(TimeSeries(rate, x))
        f = psd.frequencies
        rms = estimation.integrate_psd(psd, f[0], f[-1])
        scatter = estimation.band_power_scatter(n, rate, f[0], f[-1])
        assert abs(rms**2 / np.var(x) - 1.0) <= 4.0 * scatter

    def test_tone_appears_in_correct_bin(self):
        rate, f0 = 1e4, 1.25e3
        t = np.arange(100000) / rate
        series = TimeSeries(rate, np.sin(2.0 * np.pi * f0 * t))
        psd = estimation.welch_psd(series)
        peak = psd.frequencies[np.argmax(psd.densities)]
        assert peak == pytest.approx(f0, abs=psd.frequencies[1])

    def test_guards(self):
        with pytest.raises(ValueError, match="shorter than one segment"):
            estimation.welch_psd(TimeSeries(1.0, np.ones(7)))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(8, 4000), rate=st.floats(1.0, 1e6))
    @example(n=8, rate=1.0)  # segment length 8, even
    @example(n=136, rate=3e3)  # segment length 17, odd
    def test_matches_scipy_welch(self, n, rate):
        # scipy.signal is the reference here only; the package does not import it.
        from scipy import signal

        x = np.random.default_rng(n).standard_normal(n)
        psd = estimation.welch_psd(TimeSeries(rate, x))
        segment = estimation.default_segment_length(n)
        freqs, dens = signal.welch(
            x, fs=rate, window="hann", nperseg=segment, noverlap=segment // 2, detrend=False, scaling="density"
        )
        np.testing.assert_array_equal(psd.frequencies, freqs)
        np.testing.assert_allclose(psd.densities, dens, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 20_000), data=st.data())
    @example(n=8, data=None)  # one segment of 8
    def test_scratch_keeps_the_bits(self, n, data):
        """welch_psd in a NaN-filled caller scratch, holding room for none,
        one or more than all of the record's segments, gives the bits of
        welch_psd without it."""
        series = TimeSeries(1e4, np.random.default_rng(n).standard_normal(n))
        segment = estimation.default_segment_length(n)
        bins = segment // 2 + 1
        count = (n - segment) // (segment - segment // 2) + 1
        if data is None:
            block_rows, spectrum_rows, spare = 1, 1, 0
        else:
            block_rows = data.draw(st.integers(0, count + 2), label="block rows")
            spectrum_rows = data.draw(st.integers(0, count + 2), label="spectrum rows")
            spare = data.draw(st.integers(0, segment - 1), label="spare floats")
        scratch = (np.full(block_rows * segment + spare, np.nan), np.full(3 * spectrum_rows * bins + spare, np.nan))
        got = estimation.welch_psd(series, scratch)
        ref = estimation.welch_psd(series)
        assert got.frequencies.tobytes() == ref.frequencies.tobytes()
        assert got.densities.tobytes() == ref.densities.tobytes()

    # (n, segments): the default segment length gives 15 segments of n/8 up to
    # its 2**16 cap, in blocks of _WELCH_BLOCK_SAMPLES // nperseg = 26, 15, 10
    # and (capped, 17 segments) 4.
    @pytest.mark.parametrize("n, count", [(80_000, 15), (136_000, 15), (200_000, 15), (600_000, 17)])
    def test_blocks_match_the_one_batch_mean(self, n, count):
        """Blocked periodograms give the bits of one (segments x nperseg) batch
        averaged over axis 0, for segment counts around the block size."""
        x = np.random.default_rng(n).standard_normal(n)
        psd = estimation.welch_psd(TimeSeries(1e4, x))

        nperseg = estimation.default_segment_length(n)
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
        segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg // 2]
        assert len(segments) == count
        dens = np.abs(np.fft.rfft(segments * win))
        dens *= dens
        dens = dens.mean(axis=0)
        dens /= 1e4 * np.sum(win * win)
        dens[1:-1] *= 2.0
        np.testing.assert_array_equal(psd.densities, dens)


class TestIntegratePsd:
    def test_band_scaling(self):
        psd = estimation.welch_psd(_white())
        half = estimation.integrate_psd(psd, 0.0, 2.5e3)
        full = estimation.integrate_psd(psd, 0.0, 5e3)
        # white spectrum: variance is proportional to bandwidth
        assert half == pytest.approx(full / math.sqrt(2.0), rel=0.05)

    def test_guards(self):
        psd = estimation.welch_psd(_white(1.0))
        with pytest.raises(ValueError):
            estimation.integrate_psd(psd, 2e3, 1e3)
        with pytest.raises(ValueError):
            estimation.integrate_psd(psd, 0.0, 1e6)


class TestApplyCalibration:
    def test_scales_samples(self):
        ts = TimeSeries(10.0, np.array([1.0, -2.0]))
        out = estimation.apply_calibration(ts, 0.5)
        np.testing.assert_allclose(out.samples, [0.5, -1.0])

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            estimation.apply_calibration(TimeSeries(1.0, np.ones(4)), 0.0)


class TestSqueezingDataset:
    def test_points(self):
        ds = estimation.SqueezingDataset(points=[np.array([0.1, 0.9, 1.2, 0.01]), [0.5, 0.4, 5, 0.01]])
        assert ds.points == ((0.1, 0.9, 1.2, 0.01), (0.5, 0.4, 5.0, 0.01))
        assert all(type(x) is float for p in ds.points for x in p)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimation.SqueezingDataset(points=((1.2, 0.5, 2.0, 0.01),))
        with pytest.raises(ValueError):
            estimation.SqueezingDataset(points=((0.5, -0.5, 2.0, 0.01),))
        with pytest.raises(ValueError, match="negative"):
            estimation.SqueezingDataset(points=((0.5, 0.5, 2.0, -0.01),))
        # Zero stays "unknown".
        assert estimation.SqueezingDataset(points=((0.5, 0.5, 2.0, 0.0),)).points[0][3] == 0.0


def _synthetic_dataset(eta, sigma, epsilons, rel_unc=0.01, noise_seed=None, mode="small-angle"):
    points = []
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    for eps in epsilons:
        vm = spectra.two_mode_variance(eps, eta, 0.0, "minus")
        vp = spectra.two_mode_variance(eps, eta, 0.0, "plus")
        m_vm = spectra.phase_noise_variance(vm, vp, sigma, mode)
        m_vp = spectra.phase_noise_variance(vp, vm, sigma, mode)
        if rng is not None:
            m_vm *= 1.0 + rel_unc * rng.standard_normal()
            m_vp *= 1.0 + rel_unc * rng.standard_normal()
        points.append((eps, m_vm, m_vp, rel_unc))
    return estimation.SqueezingDataset(points=tuple(points))


EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


class TestFitPhaseNoiseModel:
    def test_noiseless_round_trip(self):
        ds = _synthetic_dataset(0.89, 0.01, EPS_GRID)
        fit = estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-5)
        assert fit.sigma_hat == pytest.approx(0.01, abs=1e-5)
        assert fit.converged
        assert not fit.at_boundary
        assert fit.residual_norm < 1e-4

    def test_exact_gaussian_round_trip(self):
        ds = _synthetic_dataset(0.8, 0.05, EPS_GRID, mode="exact-gaussian")
        fit = estimation.fit_phase_noise_model(ds, FitSettings("exact-gaussian"))
        assert fit.eta_hat == pytest.approx(0.8, abs=1e-5)
        assert fit.sigma_hat == pytest.approx(0.05, abs=1e-5)

    def test_noisy_recovery_with_delta_method_errors(self):
        ds = _synthetic_dataset(0.89, 0.01, EPS_GRID, rel_unc=0.01, noise_seed=3)
        fit = estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))
        assert fit.eta_hat == pytest.approx(0.89, abs=0.02)
        assert fit.sigma_hat == pytest.approx(0.01, abs=0.003)
        assert fit.eta_err > 0
        assert fit.sigma_err > 0

    def test_zero_phase_noise_hits_boundary_flag(self):
        ds = _synthetic_dataset(0.89, 0.0, EPS_GRID)
        fit = estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-4)
        assert fit.sigma_hat < 1e-3
        assert fit.at_boundary

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    def test_sigma_pinned_at_zero_reports_a_one_sided_bound(self, mode):
        """The model is even in sigma, so its Jacobian column vanishes at 0
        (sigma_err read ~1e3 rad); the bound sqrt(w_err) of w = sigma^2 does not."""
        for seed in range(4):
            ds = _synthetic_dataset(0.89, 0.0, EPS_GRID, rel_unc=0.01, noise_seed=seed)
            fit = estimation.fit_phase_noise_model(ds, FitSettings(mode))
            assert fit.at_boundary
            assert 1e-3 < fit.sigma_err < 0.05

    def test_zero_uncertainty_weights_relative_error(self):
        ds = _synthetic_dataset(0.89, 0.01, EPS_GRID, rel_unc=0.0)
        fit = estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-4)
        assert fit.sigma_hat == pytest.approx(0.01, abs=1e-4)
        # Unknown uncertainties are equal relative ones, whose value s^2 cancels.
        noisy = _synthetic_dataset(0.89, 0.01, EPS_GRID, rel_unc=0.01, noise_seed=5)
        unknown = estimation.SqueezingDataset(points=tuple(p[:3] + (0.0,) for p in noisy.points))
        fits = [estimation.fit_phase_noise_model(d, FitSettings("small-angle")) for d in (unknown, noisy)]
        for name in ("eta_hat", "sigma_hat", "eta_err", "sigma_err"):
            assert getattr(fits[0], name) == pytest.approx(getattr(fits[1], name), rel=1e-12), name

    def test_too_few_points(self):
        ds = estimation.SqueezingDataset(points=((0.1, 0.9, 1.2, 0.01), (0.5, 0.4, 5.0, 0.01)))
        with pytest.raises(ValueError, match="4"):
            estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))

    def test_undetermined_parameters_are_a_numerical_error(self):
        # At epsilon = 0 neither variance depends on (eta, sigma): J^T J = 0.
        ds = estimation.SqueezingDataset(points=((0.0, 1.0, 1.0, 0.01),) * 4)
        with pytest.raises(NumericalError, match="singular"):
            estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    def test_sigma_at_its_upper_bound_is_a_numerical_error(self, mode):
        # Injected past the bound, sigma_Theta pins at 0.5 rad, where it no longer fits the data.
        ds = _synthetic_dataset(0.89, 0.8, EPS_GRID, rel_unc=0.01, noise_seed=1, mode=mode)
        with pytest.raises(NumericalError, match="upper bound 0.5 rad"):
            estimation.fit_phase_noise_model(ds, FitSettings(mode))

    def test_eta_at_zero_leaves_sigma_undetermined(self):
        # Both branches at shot noise: eta_hat = 0, and then sigma_Theta multiplies nothing.
        ds = estimation.SqueezingDataset(points=tuple((e, 1.0, 1.0, 0.01) for e in EPS_GRID))
        with pytest.raises(NumericalError, match="bound widths"):
            estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            estimation.fit_phase_noise_model(_synthetic_dataset(0.89, 0.01, EPS_GRID), FitSettings("bogus"))

    def test_errors_wider_than_the_bounds_are_a_numerical_error(self):
        # Near epsilon = 0 the variances barely depend on (eta, sigma): J^T J is
        # invertible (cond ~5e5), but the 1-sigma errors exceed the bound widths.
        ds = estimation.SqueezingDataset(points=tuple((e, 1.0, 1.0, 0.01) for e in (1e-6, 2e-6, 3e-6, 4e-6)))
        with pytest.raises(NumericalError, match="bound widths"):
            estimation.fit_phase_noise_model(ds, FitSettings("small-angle"))


def _model_variances(eps, eta, sigma, omega_norm, mode):
    """The model in (eta, sigma_Theta), from the public spectra functions."""
    vm = spectra.two_mode_variance(eps, eta, omega_norm, "minus")
    vp = spectra.two_mode_variance(eps, eta, omega_norm, "plus")
    return spectra.phase_noise_variance(vm, vp, sigma, mode), spectra.phase_noise_variance(vp, vm, sigma, mode)


class TestClosedFormFit:
    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    @settings(max_examples=100, deadline=None)
    @given(
        eps=hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 0.99)),
        eta=st.floats(0.0, 1.0),
        sigma=st.floats(0.0, 0.5),
    )
    def test_affine_design_is_the_model(self, mode, eps, eta, sigma):
        """1 + A (eta, eta*w(sigma)) is the (eta, sigma_Theta) model at DC, in both modes."""
        design = estimation._affine_design(eps)
        affine = 1.0 + design @ np.array([eta, eta * spectra.phase_noise_weight(sigma, mode)])
        np.testing.assert_allclose(affine, np.concatenate(_model_variances(eps, eta, sigma, 0.0, mode)), rtol=1e-12)

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    def test_errors_are_the_jacobian_covariance(self, mode):
        """The delta-method errors equal s^2 (J^T J)^-1 of the whitened
        residuals in (eta, sigma_Theta), J by central differences."""
        ds = _synthetic_dataset(0.8, 0.2, EPS_GRID, rel_unc=0.01, noise_seed=2, mode=mode)
        fit = estimation.fit_phase_noise_model(ds, FitSettings(mode))
        eps, vm, vp, unc = np.array(ds.points).T

        def residuals(p):
            m_vm, m_vp = _model_variances(eps, p[0], p[1], 0.0, mode)
            return np.concatenate([(m_vm - vm) / (unc * vm), (m_vp - vp) / (unc * vp)])

        p, h = np.array([fit.eta_hat, fit.sigma_hat]), 1e-6
        jac = np.column_stack([(residuals(p + h * e) - residuals(p - h * e)) / (2 * h) for e in np.eye(2)])
        r = residuals(p)
        cov = float(r @ r) / (r.size - 2) * np.linalg.inv(jac.T @ jac)
        np.testing.assert_allclose([fit.eta_err, fit.sigma_err], np.sqrt(np.diag(cov)), rtol=1e-6)

    # (a, b) = (eta, eta*w) behind each dataset, and the face of the triangle
    # 0 <= b <= w(0.5) a, a <= 1 its optimum lies on. Drawn from the affine
    # model, as two_mode_variance refuses eta > 1.
    CASES = {
        "interior": ((0.89, 0.89 * 1e-4), "interior"),
        "sigma-zero edge": ((0.89, -0.89 * 3e-4), "b = 0"),
        "eta-one edge": ((1.01, 1.01 * 4e-4), "a = 1"),
        "sigma-max edge": ((0.6, 0.6 * 0.3), "b = w_max a"),
        "sigma-zero, eta-one vertex": ((1.01, -1.01 * 1e-4), "(1, 0)"),
        "eta-zero vertex": ((-0.005, 0.0), "(0, 0)"),
    }

    @staticmethod
    def _face(a, b, w_max):
        if a == 0.0:
            return "(0, 0)"
        if b == 0.0:
            return "(1, 0)" if a == 1.0 else "b = 0"
        if a == 1.0:
            return "a = 1"
        return "b = w_max a" if b == w_max * a else "interior"

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_cost_is_no_worse_than_multistart_least_squares(self, mode, case, seed):
        """On each face of the box, the closed form's cost is at most that of a
        9-start bounded least_squares fit (scipy is the oracle here only)."""
        from scipy.optimize import least_squares

        truth, face = self.CASES[case]
        eps = np.array(EPS_GRID[:-1])
        design = estimation._affine_design(eps)
        clean = 1.0 + design @ np.array(truth)
        noisy = clean * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(clean.size))
        vm, vp, unc = noisy[: eps.size], noisy[eps.size :], np.full(eps.size, 0.01)

        scale = np.concatenate([unc * vm, unc * vp])
        w_max = spectra.phase_noise_weight(0.5, mode)
        a, b = estimation._solve_triangle(design / scale[:, None], (noisy - 1.0) / scale, w_max)
        assert self._face(a, b, w_max) == face

        def residuals(p):
            m_vm, m_vp = _model_variances(eps, p[0], p[1], 0.0, mode)
            return np.concatenate([(m_vm - vm) / (unc * vm), (m_vp - vp) / (unc * vp)])

        sigma_cf = estimation._sigma_from_weight(min(b / a, w_max), mode) if a > 0 else 0.0
        closed = float(np.sum(np.square(residuals([a, sigma_cf]))))
        starts = [(e, s) for e in (0.6, 0.8, 0.95) for s in (0.002, 0.01, 0.05)]
        reference = min(2.0 * least_squares(residuals, x0, bounds=([0, 0], [1, 0.5])).cost for x0 in starts)
        assert closed <= (1.0 + 1e-9) * reference

        ds = estimation.SqueezingDataset(points=tuple(zip(eps, vm, vp, unc)))
        if case in ("sigma-max edge", "eta-zero vertex"):
            with pytest.raises(NumericalError):
                estimation.fit_phase_noise_model(ds, FitSettings(mode))
        else:
            fit = estimation.fit_phase_noise_model(ds, FitSettings(mode))
            assert fit.converged
            assert fit.residual_norm == pytest.approx(math.sqrt(closed), rel=1e-9)
