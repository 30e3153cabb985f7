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
from .spectra import phase_noise_weight, two_mode_variance

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
    # Always true: the closed-form solve cannot stop short. Kept for readers of fit.json.
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


def _affine_design(eps: np.ndarray, omega_norm: float) -> np.ndarray:
    """Columns of the model in (a, b) = (eta, eta*w), w = ``phase_noise_weight``.

    With V -+ the unit-efficiency variances, the measured pair is
    var_minus = 1 + a (V- - 1) + b (V+ - V-) and
    var_plus = 1 + a (V+ - 1) + b (V- - V+): the rows of the returned
    (2n, 2) matrix, var_minus rows first.
    """
    v_minus = two_mode_variance(eps, 1.0, omega_norm, "minus")
    v_plus = two_mode_variance(eps, 1.0, omega_norm, "plus")
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


def fit_phase_noise_model(
    data: SqueezingDataset,
    omega_norm: float = 0.0,
    mode: str = "small-angle",
    n_bootstrap: int = 200,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Joint weighted least-squares fit of (eta, sigma_Theta) to both branches.

    The model is affine in (a, b) = (eta, eta*w(sigma_Theta)), and the box
    eta in [0, 1], sigma_Theta in [0, 0.5] is a triangle in (a, b), where
    ``_solve_triangle`` finds the exact optimum. Uncertainties are
    s^2 (A^T A)^-1 carried to (eta, sigma_Theta) by the delta method,
    cross-checked by a seeded bootstrap over data points (the larger of the
    two is reported). A sigma_Theta pinned at 0 reports the one-sided bound
    sqrt(s_err) of s = sigma_Theta^2. A sigma_Theta at its 0.5 rad upper
    bound, or an eta_hat of 0, which leaves sigma_Theta free, is a
    NumericalError.
    """
    if len(data.points) < 4:
        raise ValueError("need at least 4 data points")
    w_max = phase_noise_weight(_SIGMA_MAX, mode)
    eps, vm, vp, unc = data.epsilons, data.var_minus, data.var_plus, data.uncertainties
    if not np.all(unc > 0):
        # Unknown: equal relative uncertainties, whose value s^2 cancels.
        unc = np.ones_like(unc)
    # Whiten each branch by its own absolute 1-sigma error.
    scale = np.concatenate([unc * vm, unc * vp])
    A = _affine_design(eps, omega_norm) / scale[:, None]
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

    if n_bootstrap > 0:
        rng = np.random.default_rng(bootstrap_seed)
        n_pts = eps.size
        etas, sigmas = [], []
        for _ in range(n_bootstrap):
            idx = rng.integers(0, n_pts, n_pts)
            if np.unique(eps[idx]).size < 3:
                continue
            rows = np.concatenate([idx, idx + n_pts])
            boot_a, boot_b = _solve_triangle(A[rows], y[rows], w_max)
            if boot_a > 0.0:
                etas.append(boot_a)
                sigmas.append(_sigma_from_weight(min(boot_b / boot_a, w_max), mode))
        if len(etas) >= 10:
            eta_err = max(eta_err, float(np.std(etas)))
            sigma_err = max(sigma_err, float(np.std(sigmas)))

    return FitResult(
        eta_hat=eta_hat,
        sigma_hat=sigma_hat,
        eta_err=eta_err,
        sigma_err=sigma_err,
        residual_norm=residual_norm,
        converged=True,
        at_boundary=at_boundary,
    )
