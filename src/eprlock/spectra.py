"""Analytic two-mode squeezing spectra, phase-noise degradation and entanglement checks.

The squeezing/anti-squeezing Lorentzians come in two variants. The
"corrected" variant uses (1 - epsilon)^2 in the anti-squeezing denominator
and is the default everywhere: it satisfies the minimum-uncertainty product
at unit efficiency and reproduces the measured ~18 dB anti-squeezing scale.
The "paper-literal" variant keeps (1 + epsilon)^2 for both signs, which
caps anti-squeezing below 3 dB; it is kept behind the flag for
documentation of the discrepancy, not for downstream use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import NumericalError, PhysicsDomainError

VARIANTS = ("corrected", "paper-literal")
SIGNS = ("plus", "minus")
PHASE_NOISE_MODES = ("small-angle", "exact-gaussian")


def _check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")


def two_mode_variance(epsilon, eta, omega_norm, sign: str, variant: str = "corrected"):
    """Noise variance of the joint quadrature Q+- at normalized frequency omega_norm.

    Shot-noise units: 1.0 is the two-mode vacuum level. ``epsilon`` and
    ``omega_norm`` broadcast against each other; a float is returned when
    both are scalars.
    """
    _check_sign(sign)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    eps = np.asarray(epsilon, dtype=float)
    # Written so that NaN fails the check too.
    if not np.all((eps >= 0.0) & (eps < 1.0)):
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    if not 0.0 <= eta <= 1.0:
        raise PhysicsDomainError(f"eta = {eta} outside [0, 1]")
    w2 = np.square(np.asarray(omega_norm, dtype=float))
    if sign == "minus" or variant == "paper-literal":
        denom = w2 + np.square(1.0 + eps)
    else:
        denom = w2 + np.square(1.0 - eps)
    lorentz = eta * 4.0 * eps / denom
    result = 1.0 - lorentz if sign == "minus" else 1.0 + lorentz
    if result.ndim == 0:
        return float(result)
    return result


def orthogonal_variance(var_plus, var_minus, sign: str):
    """Variance of the pi/2-rotated joint quadrature: the pair swaps."""
    _check_sign(sign)
    return var_minus if sign == "plus" else var_plus


def phase_noise_variance(var_ideal, var_orthogonal, sigma_theta, mode: str = "small-angle"):
    """Measured variance under zero-mean Gaussian common-mode phase noise.

    "small-angle" applies the first-order mixing formula
    v*(1 - sigma^2) + v_orth*sigma^2; "exact-gaussian" evaluates the full
    Gaussian average using E[cos^2 Theta] = (1 + exp(-2 sigma^2))/2.
    """
    if mode not in PHASE_NOISE_MODES:
        raise ValueError(f"mode must be one of {PHASE_NOISE_MODES}, got {mode!r}")
    sigma = float(sigma_theta)
    if sigma < 0:
        raise PhysicsDomainError("sigma_theta must be non-negative")
    if mode == "small-angle":
        w = sigma**2
    else:
        w = 0.5 * (1.0 - math.exp(-2.0 * sigma**2))
    return var_ideal * (1.0 - w) + var_orthogonal * w


class DuanSimonResult(NamedTuple):
    total: float
    entangled: bool


def duan_simon(var_minus, var_plus_orth) -> DuanSimonResult:
    """Inseparability check: separable states have var_minus + var_plus_orth >= 2."""
    if var_minus <= 0 or var_plus_orth <= 0:
        raise PhysicsDomainError("variances must be positive")
    total = float(var_minus + var_plus_orth)
    return DuanSimonResult(total=total, entangled=total < 2.0)


@dataclass(frozen=True)
class CovarianceModel:
    """Single-mode variances and cross-correlations of the detected modes.

    The x sector holds the quadrature pair whose difference is squeezed;
    the p sector mirrors it with the correlation sign flipped.
    """

    vx_s: float
    vx_i: float
    c_x: float
    vp_s: float
    vp_i: float
    c_p: float

    def __post_init__(self):
        for name in ("vx_s", "vx_i", "vp_s", "vp_i"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if abs(self.c_x) > math.sqrt(self.vx_s * self.vx_i) + 1e-12:
            raise ValueError("c_x exceeds the Cauchy-Schwarz bound")
        if abs(self.c_p) > math.sqrt(self.vp_s * self.vp_i) + 1e-12:
            raise ValueError("c_p exceeds the Cauchy-Schwarz bound")


def build_covariance_model(epsilon, eta_s, eta_i, omega_norm=0.0) -> CovarianceModel:
    """Two-mode covariance under independent beam-splitter losses per arm.

    The lossless symmetric state is taken from the corrected spectra at
    unit efficiency; each arm then mixes with vacuum: v -> 1 + eta*(v - 1),
    c -> sqrt(eta_s*eta_i)*c. Reduces exactly to the symmetric formula when
    eta_s = eta_i.
    """
    for name, eta in (("eta_s", eta_s), ("eta_i", eta_i)):
        if not 0.0 <= eta <= 1.0:
            raise PhysicsDomainError(f"{name} = {eta} outside [0, 1]")
    v_minus = two_mode_variance(epsilon, 1.0, omega_norm, "minus")
    v_plus = two_mode_variance(epsilon, 1.0, omega_norm, "plus")
    v = 0.5 * (v_plus + v_minus)
    c = 0.5 * (v_plus - v_minus)
    c_lossy = math.sqrt(eta_s * eta_i) * c
    return CovarianceModel(
        vx_s=1.0 + eta_s * (v - 1.0),
        vx_i=1.0 + eta_i * (v - 1.0),
        c_x=c_lossy,
        vp_s=1.0 + eta_s * (v - 1.0),
        vp_i=1.0 + eta_i * (v - 1.0),
        c_p=-c_lossy,
    )


def weighted_variance(model: CovarianceModel, g: float, sign: str) -> float:
    """Variance of (q_s +- g q_i)/sqrt(2), normalized to its own shot noise."""
    _check_sign(sign)
    if g <= 0:
        raise ValueError("g must be positive")
    s = 1.0 if sign == "plus" else -1.0
    return (model.vx_s + g**2 * model.vx_i + s * 2.0 * g * model.c_x) / (1.0 + g**2)


class CombinationOptimum(NamedTuple):
    g_star: float
    var_star: float
    no_correlation: bool


def optimize_combination(model: CovarianceModel, sign: str) -> CombinationOptimum:
    """Weight g > 0 minimizing the normalized weighted variance.

    Closed-form stationary point of the rational objective, cross-checked
    against a bounded derivative-free search on log10(g) in [-3, 3]; a
    degenerate (zero-correlation) model returns g = 1 with a flag.
    """
    _check_sign(sign)
    s = 1.0 if sign == "plus" else -1.0
    c_eff = s * model.c_x
    if c_eff == 0.0:
        return CombinationOptimum(g_star=1.0, var_star=weighted_variance(model, 1.0, sign), no_correlation=True)

    def search() -> float:
        from scipy.optimize import minimize_scalar  # here, so that only optimizers pay its import
        res = minimize_scalar(
            lambda lg: weighted_variance(model, 10.0**lg, sign),
            bounds=(-3.0, 3.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        return 10.0 ** float(res.x)

    # The derivative of the objective vanishes where
    # c_eff*g^2 - (vx_i - vx_s)*g - c_eff = 0; the root product is -1, so
    # exactly one root is positive.
    dv = model.vx_i - model.vx_s
    disc = math.sqrt(dv**2 + 4.0 * c_eff**2)
    g_closed = (dv + disc) / (2.0 * c_eff) if c_eff > 0 else (dv - disc) / (2.0 * c_eff)
    f0 = weighted_variance(model, g_closed, sign)
    if f0 > weighted_variance(model, g_closed * (1.0 + 1e-5), sign) or f0 > weighted_variance(
        model, g_closed * (1.0 - 1e-5), sign
    ):
        # Interior stationary point is a maximum (anti-correlated
        # combination): the minimizer sits at the search boundary.
        g_star = search()
        return CombinationOptimum(
            g_star=g_star, var_star=weighted_variance(model, g_star, sign), no_correlation=False
        )
    g_search = search()
    if abs(g_search - g_closed) > 1e-6 * max(1.0, g_closed):
        raise NumericalError(
            f"combination weight cross-check failed: closed form {g_closed}, search {g_search}"
        )
    return CombinationOptimum(g_star=g_closed, var_star=f0, no_correlation=False)


def optimal_epsilon(
    eta: float,
    sigma_theta: float,
    omega_norm: float = 0.0,
    mode: str = "small-angle",
) -> tuple[float, float]:
    """Pump amplitude minimizing the phase-noise-degraded squeezing variance.

    Bounded derivative-free minimization over epsilon in [0, 0.99] with
    1e-8 argument tolerance.
    """
    if not 0.0 <= eta <= 1.0:
        raise PhysicsDomainError(f"eta = {eta} outside [0, 1]")
    if sigma_theta < 0:
        raise PhysicsDomainError("sigma_theta must be non-negative")

    def objective(eps: float) -> float:
        v_minus = two_mode_variance(eps, eta, omega_norm, "minus")
        v_plus = two_mode_variance(eps, eta, omega_norm, "plus")
        return phase_noise_variance(v_minus, v_plus, sigma_theta, mode)

    from scipy.optimize import minimize_scalar  # here, so that only optimizers pay its import
    res = minimize_scalar(
        objective, bounds=(0.0, 0.99), method="bounded", options={"xatol": 1e-8}
    )
    return float(res.x), float(res.fun)
