"""Unit tests for PSD estimation, calibration and the phase-noise model fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprlock import estimation, spectra
from eprlock.locksim import TimeSeries
from eprlock.model import NumericalError


def _white(duration=10.0, rate=1e4, seed=0, std=1.0):
    rng = np.random.default_rng(seed)
    return TimeSeries(rate, std * rng.standard_normal(int(duration * rate)))


class TestWelchPsd:
    def test_parseval_on_white_noise(self):
        series = _white(std=0.7)
        psd = estimation.welch_psd(series)
        rms = estimation.integrate_psd(psd, psd.frequencies[0], psd.frequencies[-1])
        assert rms == pytest.approx(0.7, rel=0.02)

    def test_tone_appears_in_correct_bin(self):
        rate, f0 = 1e4, 1.25e3
        t = np.arange(100000) / rate
        series = TimeSeries(rate, np.sin(2.0 * np.pi * f0 * t))
        psd = estimation.welch_psd(series, segment_length=4096)
        peak = psd.frequencies[np.argmax(psd.densities)]
        assert peak == pytest.approx(f0, abs=psd.frequencies[1])

    def test_rectangular_window_supported(self):
        psd = estimation.welch_psd(_white(1.0), window="rectangular")
        assert psd.window == "rectangular"
        rms = estimation.integrate_psd(psd, psd.frequencies[0], psd.frequencies[-1])
        assert rms == pytest.approx(1.0, rel=0.05)

    def test_guards(self):
        series = _white(0.01)
        with pytest.raises(ValueError):
            estimation.welch_psd(series, window="flat-top")
        with pytest.raises(ValueError):
            estimation.welch_psd(series, segment_length=10**6)
        with pytest.raises(ValueError):
            estimation.welch_psd(series, overlap_fraction=0.95)
        with pytest.raises(ValueError):
            estimation.welch_psd(series, segment_length=0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 4000),
        segment_fraction=st.floats(0.0, 1.0),
        overlap=st.floats(0.0, 0.9),
        window=st.sampled_from(estimation.WINDOWS),
        rate=st.floats(1.0, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_welch(self, n, segment_fraction, overlap, window, rate, seed):
        # scipy.signal is the reference here only; the package does not import it.
        from scipy import signal

        segment = 2 + int(segment_fraction * (n - 2))
        x = np.random.default_rng(seed).standard_normal(n)
        psd = estimation.welch_psd(TimeSeries(rate, x), segment, overlap, window)
        freqs, dens = signal.welch(
            x,
            fs=rate,
            window="hann" if window == "hann" else "boxcar",
            nperseg=segment,
            noverlap=int(overlap * segment),
            detrend=False,
            scaling="density",
        )
        np.testing.assert_array_equal(psd.frequencies, freqs)
        np.testing.assert_allclose(psd.densities, dens, rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("window", estimation.WINDOWS)
    @pytest.mark.parametrize("extra_segments", [-1, 0, 1, 65])
    def test_blocks_match_the_one_batch_mean(self, window, extra_segments):
        """Blocked periodograms give the bits of one (segments x nperseg) batch
        averaged over axis 0, for segment counts around the block size."""
        nperseg, step = 4096, 2048
        rows = estimation._WELCH_BLOCK_SAMPLES // nperseg
        count = rows + extra_segments
        x = np.random.default_rng(count).standard_normal(nperseg + (count - 1) * step)
        psd = estimation.welch_psd(TimeSeries(1e4, x), nperseg, 0.5, window)

        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
        win = hann if window == "hann" else np.ones(nperseg)
        segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step]
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
        assert out.label == "rad"

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            estimation.apply_calibration(TimeSeries(1.0, np.ones(4)), 0.0)


class TestSqueezingDataset:
    def test_properties(self):
        ds = estimation.SqueezingDataset(points=((0.1, 0.9, 1.2, 0.01), (0.5, 0.4, 5.0, 0.01)))
        np.testing.assert_allclose(ds.epsilons, [0.1, 0.5])
        np.testing.assert_allclose(ds.var_minus, [0.9, 0.4])
        np.testing.assert_allclose(ds.var_plus, [1.2, 5.0])
        np.testing.assert_allclose(ds.uncertainties, [0.01, 0.01])

    def test_validation(self):
        with pytest.raises(ValueError):
            estimation.SqueezingDataset(points=((1.2, 0.5, 2.0, 0.01),))
        with pytest.raises(ValueError):
            estimation.SqueezingDataset(points=((0.5, -0.5, 2.0, 0.01),))


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
        fit = estimation.fit_phase_noise_model(ds, n_bootstrap=0)
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-5)
        assert fit.sigma_hat == pytest.approx(0.01, abs=1e-5)
        assert fit.converged
        assert not fit.at_boundary
        assert fit.residual_norm < 1e-4

    def test_exact_gaussian_round_trip(self):
        ds = _synthetic_dataset(0.8, 0.05, EPS_GRID, mode="exact-gaussian")
        fit = estimation.fit_phase_noise_model(ds, mode="exact-gaussian", n_bootstrap=0)
        assert fit.eta_hat == pytest.approx(0.8, abs=1e-5)
        assert fit.sigma_hat == pytest.approx(0.05, abs=1e-5)

    def test_noisy_recovery_with_bootstrap_errors(self):
        ds = _synthetic_dataset(0.89, 0.01, EPS_GRID, rel_unc=0.01, noise_seed=3)
        fit = estimation.fit_phase_noise_model(ds, n_bootstrap=60, bootstrap_seed=1)
        assert fit.eta_hat == pytest.approx(0.89, abs=0.02)
        assert fit.sigma_hat == pytest.approx(0.01, abs=0.003)
        assert fit.eta_err > 0
        assert fit.sigma_err > 0

    def test_zero_phase_noise_hits_boundary_flag(self):
        ds = _synthetic_dataset(0.89, 0.0, EPS_GRID)
        fit = estimation.fit_phase_noise_model(ds, n_bootstrap=0)
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-4)
        assert fit.sigma_hat < 1e-3
        assert fit.at_boundary

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    def test_sigma_pinned_at_zero_reports_a_one_sided_bound(self, mode):
        """The model is even in sigma, so its Jacobian column vanishes at 0
        (sigma_err read ~1e3 rad); the bound sqrt(w_err) of w = sigma^2 does not."""
        for seed in range(4):
            ds = _synthetic_dataset(0.89, 0.0, EPS_GRID, rel_unc=0.01, noise_seed=seed)
            fit = estimation.fit_phase_noise_model(ds, mode=mode, n_bootstrap=0)
            assert fit.at_boundary
            assert 1e-3 < fit.sigma_err < 0.05

    def test_zero_uncertainty_uses_log_weighting(self):
        ds = _synthetic_dataset(0.89, 0.01, EPS_GRID, rel_unc=0.0)
        fit = estimation.fit_phase_noise_model(ds, n_bootstrap=0)
        assert fit.eta_hat == pytest.approx(0.89, abs=1e-4)
        assert fit.sigma_hat == pytest.approx(0.01, abs=1e-4)

    def test_too_few_points(self):
        ds = estimation.SqueezingDataset(points=((0.1, 0.9, 1.2, 0.01), (0.5, 0.4, 5.0, 0.01)))
        with pytest.raises(ValueError, match="4"):
            estimation.fit_phase_noise_model(ds)

    def test_undetermined_parameters_are_a_numerical_error(self):
        # At epsilon = 0 neither variance depends on (eta, sigma): J^T J = 0.
        ds = estimation.SqueezingDataset(points=((0.0, 1.0, 1.0, 0.01),) * 4)
        with pytest.raises(NumericalError, match="singular"):
            estimation.fit_phase_noise_model(ds)

    def test_errors_wider_than_the_bounds_are_a_numerical_error(self):
        # Near epsilon = 0 the variances barely depend on (eta, sigma): J^T J is
        # invertible (cond ~5e5), but the 1-sigma errors exceed the bound widths.
        ds = estimation.SqueezingDataset(points=tuple((e, 1.0, 1.0, 0.01) for e in (1e-6, 2e-6, 3e-6, 4e-6)))
        with pytest.raises(NumericalError, match="bound widths"):
            estimation.fit_phase_noise_model(ds, n_bootstrap=0)
