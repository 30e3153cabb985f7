"""Spectral estimation and model fitting.

Welch PSDs (periodic Hann window, 50% overlap by default,
Parseval-normalized; Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)),
band integration for phase-noise RMS extraction, error-signal calibration,
and the two-parameter (eta, sigma_Theta) fit of squeezing-vs-pump data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import NumericalError, TimeSeries
from .spectra import phase_noise_variance, two_mode_variance

WINDOWS = ("hann", "rectangular")

# Upper bound of sigma_Theta during fitting.
_SIGMA_MAX = 0.5

# Samples per block of Welch segments transformed at once (2 MB of windowed data).
_WELCH_BLOCK_SAMPLES = 2**18


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram estimate plus the metadata that produced it."""

    frequencies: np.ndarray
    densities: np.ndarray
    segment_length: int
    overlap_fraction: float
    window: str

    def __post_init__(self):
        if np.any(self.densities < 0):
            raise ValueError("densities must be non-negative")
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")


@dataclass(frozen=True)
class SqueezingDataset:
    """Measured (epsilon, var_minus, var_plus, uncertainty) points.

    ``uncertainty`` is the relative 1-sigma measurement uncertainty shared
    by both branches of the point (the squeezed and anti-squeezed variances
    differ by orders of magnitude, so a single absolute error bar cannot
    describe both). Zero means "unknown"; the fit then weights equally on
    log-variance.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        for p in pts:
            if not all(map(math.isfinite, p)):
                raise ValueError(f"non-finite value in data point {p}")
            eps, vm, vp, _unc = p
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"epsilon = {eps} outside [0, 1)")
            if vm <= 0 or vp <= 0:
                raise ValueError("variances must be positive")
        object.__setattr__(self, "points", pts)

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def var_minus(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    @property
    def var_plus(self) -> np.ndarray:
        return np.array([p[2] for p in self.points])

    @property
    def uncertainties(self) -> np.ndarray:
        return np.array([p[3] for p in self.points])


@dataclass(frozen=True)
class FitResult:
    eta_hat: float
    sigma_hat: float
    eta_err: float
    sigma_err: float
    residual_norm: float
    converged: bool
    at_boundary: bool = False


def default_segment_length(n_samples: int) -> int:
    """Welch segment length used when none is given: n/8, clipped to [8, 2**16]."""
    return max(8, min(n_samples // 8, 2**16))


def welch_psd(
    series: TimeSeries,
    segment_length: int | None = None,
    overlap_fraction: float = 0.5,
    window: str = "hann",
) -> PsdEstimate:
    """One-sided Welch PSD whose band integral recovers the series variance."""
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")
    n = series.samples.size
    if segment_length is None:
        segment_length = default_segment_length(n)
    if segment_length < 1:
        raise ValueError("segment_length must be at least 1")
    if segment_length > n:
        raise ValueError("series shorter than one segment")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError("overlap_fraction must lie in [0, 0.9]")
    step = segment_length - int(overlap_fraction * segment_length)
    if window == "hann":
        # Periodic Hann: the first n points of the symmetric (n + 1)-point window.
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    else:
        win = np.ones(segment_length)
    segments = sliding_window_view(series.samples, segment_length)[::step]
    # Periodograms of a few segments at a time, summed row by row in segment
    # order: the bits of a mean over all of them, without their full batch.
    rows = max(1, _WELCH_BLOCK_SAMPLES // segment_length)
    dens = np.zeros(segment_length // 2 + 1)
    for start in range(0, len(segments), rows):
        power = np.abs(np.fft.rfft(segments[start : start + rows] * win))
        power *= power
        for row in power:
            dens += row
    dens /= len(segments)
    # One-sided density: every bin but DC (and Nyquist, for even lengths)
    # also carries the power of its negative frequency.
    dens /= series.sample_rate * np.sum(win * win)
    dens[1 : None if segment_length % 2 else -1] *= 2.0
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / series.sample_rate)
    return PsdEstimate(
        frequencies=freqs,
        densities=dens,
        segment_length=int(segment_length),
        overlap_fraction=float(overlap_fraction),
        window=window,
    )


def integrate_psd(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """RMS value sqrt(integral of the density over [f_lo, f_hi])."""
    f = psd.frequencies
    if f_lo >= f_hi:
        raise ValueError("empty band")
    if f_lo < f[0] - 1e-12 or f_hi > f[-1] + 1e-12:
        raise ValueError(f"band [{f_lo}, {f_hi}] outside estimate range [{f[0]}, {f[-1]}]")
    mask = (f >= f_lo) & (f <= f_hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError("band contains fewer than two frequency bins")
    return float(math.sqrt(np.trapezoid(psd.densities[mask], f[mask])))


def apply_calibration(series: TimeSeries, beta: float) -> TimeSeries:
    """Convert error-signal units to radians via the small-angle slope."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return TimeSeries(
        sample_rate=series.sample_rate, samples=beta * series.samples, label="rad"
    )


def _model_variances(eps: np.ndarray, eta: float, sigma: float, omega_norm: float, mode: str):
    vm = two_mode_variance(eps, eta, omega_norm, "minus")
    vp = two_mode_variance(eps, eta, omega_norm, "plus")
    return phase_noise_variance(vm, vp, sigma, mode), phase_noise_variance(vp, vm, sigma, mode)


def _residual_fn(eps, vm, vp, unc, omega_norm: float, mode: str):
    """Whitened residuals of both branches as a function of p = (eta, sigma)."""
    use_weights = np.all(unc > 0)

    def residuals(p: np.ndarray) -> np.ndarray:
        m_vm, m_vp = _model_variances(eps, p[0], p[1], omega_norm, mode)
        if use_weights:
            # unc is the relative uncertainty: whiten each branch by its own
            # absolute 1-sigma error.
            return np.concatenate([(m_vm - vm) / (unc * vm), (m_vp - vp) / (unc * vp)])
        return np.concatenate([np.log(m_vm) - np.log(vm), np.log(m_vp) - np.log(vp)])

    return residuals


def _best_fit(residuals, starts):
    """Bounded least squares from each start: the lowest-cost result, and
    whether any start converged."""
    from scipy.optimize import least_squares  # here, so that only fits pay its ~0.5 s import

    best, converged = None, False
    for start in starts:
        res = least_squares(residuals, start, bounds=([0.0, 0.0], [1.0, _SIGMA_MAX]))
        if best is None or res.cost < best.cost:
            best = res
        converged = converged or bool(res.success)
    return best, converged


def fit_phase_noise_model(
    data: SqueezingDataset,
    omega_norm: float = 0.0,
    mode: str = "small-angle",
    n_bootstrap: int = 200,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Joint weighted least-squares fit of (eta, sigma_Theta) to both branches.

    Bounded trust-region least squares (eta in [0, 1], sigma_Theta in
    [0, 0.5]) with 9 multi-starts on a parameter grid. Uncertainties come
    from the Jacobian at the optimum, cross-checked by a seeded bootstrap
    over data points (the larger of the two is reported). A sigma_Theta
    pinned at 0 reports the one-sided bound sqrt(w_err) of w = sigma_Theta^2.
    """
    if len(data.points) < 4:
        raise ValueError("need at least 4 data points")
    eps, vm, vp, unc = data.epsilons, data.var_minus, data.var_plus, data.uncertainties

    starts = [(e, s) for e in (0.6, 0.8, 0.95) for s in (0.002, 0.01, 0.05)]
    residuals = _residual_fn(eps, vm, vp, unc, omega_norm, mode)
    best, converged = _best_fit(residuals, starts)
    eta_hat, sigma_hat = map(float, best.x)
    r_opt = best.fun
    residual_norm = float(np.linalg.norm(r_opt))
    at_zero = sigma_hat < 1e-4 * _SIGMA_MAX
    at_boundary = at_zero or sigma_hat > (1.0 - 1e-4) * _SIGMA_MAX

    dof = max(r_opt.size - 2, 1)
    s2 = float(r_opt @ r_opt) / dof
    try:
        cov = s2 * np.linalg.inv(best.jac.T @ best.jac)
        eta_err, sigma_err = np.sqrt(np.maximum(np.diag(cov), 0.0)).tolist()
        if at_zero:
            # The model is even in sigma, so its Jacobian column vanishes at 0;
            # in w = sigma^2 it does not. Report the one-sided bound sqrt(w_err).
            dw = 1e-6
            w_col = (residuals([eta_hat, math.sqrt(sigma_hat**2 + dw)]) - r_opt) / dw
            jac = np.column_stack([best.jac[:, 0], w_col])
            sigma_err = math.sqrt(math.sqrt(max(s2 * np.linalg.inv(jac.T @ jac)[1, 1], 0.0)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("the data do not determine (eta, sigma_Theta): J^T J is singular") from exc
    # An error wider than the parameter's bounded range: the data do not fix it. A sigma_Theta
    # at a bound is exempt: its error is one-sided.
    if eta_err > 1.0 or (sigma_err > _SIGMA_MAX and not at_boundary):
        msg = f"1-sigma errors {eta_err:.3g}, {sigma_err:.3g} against bound widths 1, {_SIGMA_MAX}"
        raise NumericalError(f"the data do not determine (eta, sigma_Theta): {msg}")

    if n_bootstrap > 0:
        rng = np.random.default_rng(bootstrap_seed)
        n_pts = eps.size
        etas, sigmas = [], []
        start = [(eta_hat, max(sigma_hat, 1e-3))]
        for _ in range(n_bootstrap):
            idx = rng.integers(0, n_pts, n_pts)
            if np.unique(eps[idx]).size < 3:
                continue
            boot, _ = _best_fit(
                _residual_fn(eps[idx], vm[idx], vp[idx], unc[idx], omega_norm, mode), start
            )
            etas.append(boot.x[0])
            sigmas.append(boot.x[1])
        if len(etas) >= 10:
            eta_err = max(eta_err, float(np.std(etas)))
            sigma_err = max(sigma_err, float(np.std(sigmas)))

    return FitResult(
        eta_hat=eta_hat,
        sigma_hat=sigma_hat,
        eta_err=eta_err,
        sigma_err=sigma_err,
        residual_norm=residual_norm,
        converged=converged,
        at_boundary=at_boundary,
    )
