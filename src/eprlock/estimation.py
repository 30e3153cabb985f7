"""Spectral estimation and model fitting.

Welch PSDs (periodic Hann window, 50% overlap, Parseval-normalized; Welch,
IEEE Trans. Audio Electroacoust. 15, 70 (1967)), band integration for
phase-noise RMS extraction, error-signal calibration, and the two-parameter
(eta, sigma_Theta) fit of squeezing-vs-pump data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import NumericalError, TimeSeries
from .spectra import phase_noise_weight, two_mode_variance

# Upper bound of sigma_Theta during fitting.
_SIGMA_MAX = 0.5

# Samples per block of Welch segments transformed at once (2 MB of windowed data).
_WELCH_BLOCK_SAMPLES = 2**18

# Fewest data points ``fit_phase_noise_model`` takes.
MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram estimate."""

    frequencies: np.ndarray
    densities: np.ndarray

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
    describe both). Zero means "unknown": if any point has it, the fit
    gives every point the same relative uncertainty, whose value the
    residual-variance scaling of the errors cancels.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        for p in pts:
            if not all(map(math.isfinite, p)):
                raise ValueError(f"non-finite value in data point {p}")
            eps, vm, vp, unc = p
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"epsilon = {eps} outside [0, 1)")
            if vm <= 0 or vp <= 0:
                raise ValueError("variances must be positive")
            if unc < 0:
                raise ValueError(f"uncertainty = {unc} is negative (0 means unknown)")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class FitResult:
    eta_hat: float
    sigma_hat: float
    eta_err: float
    sigma_err: float
    residual_norm: float
    # Always true: the closed-form solve cannot stop short. Kept for readers of fit.json.
    converged: bool
    at_boundary: bool = False


def default_segment_length(n_samples: int) -> int:
    """Welch segment length of an n-sample record: n/8, clipped to [8, 2**16]."""
    return max(8, min(n_samples // 8, 2**16))


def welch_frequencies(n_samples: int, rate: float) -> np.ndarray:
    """Bin frequencies of the ``welch_psd`` of an n-sample record at ``rate``;
    a ValueError if the record is shorter than one segment."""
    segment_length = default_segment_length(n_samples)
    if segment_length > n_samples:
        raise ValueError(f"series of {n_samples} samples is shorter than one segment of {segment_length}")
    return np.fft.rfftfreq(segment_length, d=1.0 / rate)


@functools.lru_cache(maxsize=4)
def _hann(segment_length: int) -> np.ndarray:
    """Periodic Hann window, read-only: the first n points of the symmetric
    (n + 1)-point window."""
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    win.flags.writeable = False
    return win


def welch_psd(series: TimeSeries, scratch: tuple[np.ndarray, np.ndarray] | None = None) -> PsdEstimate:
    """One-sided Welch PSD whose band integral recovers the series variance:
    periodic Hann segments of ``default_segment_length``, overlapped by half.

    ``scratch`` is a pair (block, spectrum) of contiguous float64 arrays that
    this spends: block holds windowed segments, segment_length floats each,
    and spectrum their rfft spectra and powers, 3 (segment_length // 2 + 1)
    floats each. Without it, or if either array holds less than one segment,
    they are allocated once per call.
    """
    freqs = welch_frequencies(series.samples.size, series.sample_rate)
    segment_length = default_segment_length(series.samples.size)
    bins = segment_length // 2 + 1
    win = _hann(segment_length)
    segments = sliding_window_view(series.samples, segment_length)[:: segment_length - segment_length // 2]
    # Periodograms of a few segments at a time, summed row by row in segment
    # order: the bits of a mean over all of them, without their full batch.
    rows = min(max(1, _WELCH_BLOCK_SAMPLES // segment_length), len(segments))
    held = 0 if scratch is None else min(scratch[0].size // segment_length, scratch[1].size // (3 * bins))
    if held:
        block, spectrum = scratch
        rows = min(rows, held)
    else:
        block, spectrum = np.empty(rows * segment_length), np.empty(3 * rows * bins)
    windowed = block[: rows * segment_length].reshape(rows, segment_length)
    transform = spectrum[: 2 * rows * bins].view(complex).reshape(rows, bins)
    power = spectrum[2 * rows * bins : 3 * rows * bins].reshape(rows, bins)
    dens = np.zeros(bins)
    for start in range(0, len(segments), rows):
        k = min(rows, len(segments) - start)
        np.multiply(segments[start : start + k], win, out=windowed[:k])
        np.fft.rfft(windowed[:k], out=transform[:k])
        rows_power = np.abs(transform[:k], out=power[:k])
        rows_power *= rows_power
        for row in rows_power:
            dens += row
    dens /= len(segments)
    # One-sided density: every bin but DC (and Nyquist, for even lengths)
    # also carries the power of its negative frequency.
    dens /= series.sample_rate * np.sum(win * win)
    dens[1 : None if segment_length % 2 else -1] *= 2.0
    return PsdEstimate(frequencies=freqs, densities=dens)


def band_power_scatter(n_samples: int, rate: float, f_lo: float, f_hi: float) -> float:
    """Relative scatter of a ``welch_psd`` band power over [f_lo, f_hi] of an
    n-sample record: one over the square root of (averaged segments x
    frequency bins in band)."""
    segment_length = default_segment_length(n_samples)
    n_avg = max(1, 2 * n_samples // segment_length - 1)
    n_bins = max(1, int((f_hi - f_lo) * segment_length / rate))
    return 1.0 / math.sqrt(n_avg * n_bins)


def band_bins(frequencies: np.ndarray, f_lo: float, f_hi: float) -> np.ndarray:
    """Mask of the ``frequencies`` in [f_lo, f_hi]; a ValueError unless the
    band is ordered, lies within them and holds at least two."""
    f = frequencies
    if not f_lo < f_hi:
        raise ValueError(f"band [{f_lo}, {f_hi}] is empty or reversed: its lower edge must lie below its upper")
    if f_lo < f[0] - 1e-12 or f_hi > f[-1] + 1e-12:
        raise ValueError(f"band [{f_lo}, {f_hi}] outside estimate range [{f[0]}, {f[-1]}]")
    mask = (f >= f_lo) & (f <= f_hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"band [{f_lo}, {f_hi}] contains fewer than two frequency bins")
    return mask


def integrate_psd(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """RMS value sqrt(integral of the density over [f_lo, f_hi]), a band ``band_bins`` takes."""
    mask = band_bins(psd.frequencies, f_lo, f_hi)
    return float(math.sqrt(np.trapezoid(psd.densities[mask], psd.frequencies[mask])))


def apply_calibration(series: TimeSeries, beta: float) -> TimeSeries:
    """Convert error-signal units to radians via the small-angle slope."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return TimeSeries(sample_rate=series.sample_rate, samples=beta * series.samples)


def _affine_design(eps: np.ndarray) -> np.ndarray:
    """Columns of the model in (a, b) = (eta, eta*w), w = ``phase_noise_weight``.

    With V -+ the unit-efficiency variances, the measured pair is
    var_minus = 1 + a (V- - 1) + b (V+ - V-) and
    var_plus = 1 + a (V+ - 1) + b (V- - V+): the rows of the returned
    (2n, 2) matrix, var_minus rows first. The variances are those at DC.
    """
    v_minus = two_mode_variance(eps, 1.0, 0.0, "minus")
    v_plus = two_mode_variance(eps, 1.0, 0.0, "plus")
    return np.column_stack(
        [np.concatenate([v_minus - 1.0, v_plus - 1.0]), np.concatenate([v_plus - v_minus, v_minus - v_plus])]
    )


def _solve_triangle(A: np.ndarray, y: np.ndarray, w_max: float) -> np.ndarray:
    """The (a, b) minimizing |A (a, b) - y|^2 over 0 <= b <= w_max a, a <= 1:
    the box eta in [0, 1], sigma_Theta in [0, _SIGMA_MAX].

    The cost is a convex quadratic, so its minimum over the triangle is the
    unconstrained one if that lies inside, else the best of the three edges,
    each a clipped one-dimensional minimization (Lawson & Hanson, Solving
    Least Squares Problems, 1974).
    """
    x = np.linalg.lstsq(A, y, rcond=None)[0]
    if 0.0 <= x[1] <= w_max * x[0] and x[0] <= 1.0:
        return x
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, w_max]])
    best, best_cost = None, math.inf
    for start, end in ((0, 1), (1, 2), (0, 2)):
        p, d = corners[start], corners[end] - corners[start]
        r, ad = A @ p - y, A @ d
        norm2 = ad @ ad
        t = min(max(-(ad @ r) / norm2, 0.0), 1.0) if norm2 > 0.0 else 0.0
        cost = float(np.sum(np.square(r + t * ad)))
        if cost < best_cost:
            best, best_cost = p + t * d, cost
    return best


def _sigma_from_weight(w: float, mode: str) -> float:
    """Inverse of ``phase_noise_weight`` on [0, 1/2)."""
    return math.sqrt(w if mode == "small-angle" else -0.5 * math.log1p(-2.0 * w))


@dataclass(frozen=True)
class FitSettings:
    """The phase-noise ``mode`` of ``fit_phase_noise_model`` (see
    ``spectra.phase_noise_weight``)."""

    mode: str

    def __post_init__(self):
        phase_noise_weight(0.0, self.mode)  # a ValueError for an unknown mode


def fit_phase_noise_model(data: SqueezingDataset, settings: FitSettings) -> FitResult:
    """Joint weighted least-squares fit of (eta, sigma_Theta) to both branches.

    The model is affine in (a, b) = (eta, eta*w(sigma_Theta)), and the box
    eta in [0, 1], sigma_Theta in [0, 0.5] is a triangle in (a, b), where
    ``_solve_triangle`` finds the exact optimum. Uncertainties are
    s^2 (A^T A)^-1 carried to (eta, sigma_Theta) by the delta method.
    A sigma_Theta pinned at 0 reports the one-sided bound
    sqrt(s_err) of s = sigma_Theta^2. A sigma_Theta at its 0.5 rad upper
    bound, or an eta_hat of 0, which leaves sigma_Theta free, is a
    NumericalError.
    """
    if len(data.points) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} data points")
    mode = settings.mode
    w_max = phase_noise_weight(_SIGMA_MAX, mode)
    eps, vm, vp, unc = np.array(data.points).T
    if not np.all(unc > 0):
        # Unknown: equal relative uncertainties, whose value s^2 cancels.
        unc = np.ones_like(unc)
    # Whiten each branch by its own absolute 1-sigma error.
    scale = np.concatenate([unc * vm, unc * vp])
    A = _affine_design(eps) / scale[:, None]
    y = (np.concatenate([vm, vp]) - 1.0) / scale
    try:
        cov = np.linalg.inv(A.T @ A)
        a, b = _solve_triangle(A, y, w_max)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("the data do not determine (eta, sigma_Theta): A^T A is singular") from exc
    r_opt = A @ np.array([a, b]) - y
    residual_norm = float(np.linalg.norm(r_opt))
    s2 = float(r_opt @ r_opt) / max(r_opt.size - 2, 1)

    eta_hat = float(a)
    eta_err = math.sqrt(max(s2 * cov[0, 0], 0.0))
    if eta_hat > 0.0:
        w = min(b / a, w_max)
        sigma_hat = _sigma_from_weight(w, mode)
        if sigma_hat > (1.0 - 1e-4) * _SIGMA_MAX:
            raise NumericalError(
                f"the data do not determine (eta, sigma_Theta): sigma_Theta = {sigma_hat:.6g} rad "
                f"at its upper bound {_SIGMA_MAX} rad"
            )
        # Gradient in (a, b) of s = sigma^2, through w = b/a and ds/dw = 1/(dw/ds).
        dw_ds = 1.0 if mode == "small-angle" else 1.0 - 2.0 * w
        grad = np.array([-b / a, 1.0]) / (a * dw_ds)
        var_s = max(s2 * float(grad @ cov @ grad), 0.0)
        at_boundary = sigma_hat < 1e-4 * _SIGMA_MAX
        # The model is even in sigma, so d/dsigma vanishes at 0; in s = sigma^2
        # it does not. There, report the one-sided bound sqrt(s_err).
        sigma_err = math.sqrt(math.sqrt(var_s)) if at_boundary else math.sqrt(var_s) / (2.0 * sigma_hat)
    else:
        # b = 0 as well: sigma_Theta multiplies nothing, so any value fits.
        sigma_hat, sigma_err, at_boundary = 0.0, math.inf, False
    # An error wider than the parameter's bounded range: the data do not fix it. A sigma_Theta
    # pinned at 0 is exempt: its error is one-sided.
    if eta_err > 1.0 or (sigma_err > _SIGMA_MAX and not at_boundary):
        msg = f"1-sigma errors {eta_err:.3g}, {sigma_err:.3g} against bound widths 1, {_SIGMA_MAX}"
        raise NumericalError(f"the data do not determine (eta, sigma_Theta): {msg}")

    return FitResult(eta_hat, sigma_hat, eta_err, sigma_err, residual_norm, converged=True, at_boundary=at_boundary)
