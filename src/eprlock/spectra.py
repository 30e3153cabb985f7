"""Analytic two-mode squeezing spectra, phase-noise degradation and entanglement checks.

The anti-squeezing Lorentzian has (1 - epsilon)^2 in its denominator: it
satisfies the minimum-uncertainty product at unit efficiency and reproduces
the measured ~18 dB anti-squeezing scale. The paper prints (1 + epsilon)^2
for both signs, which would cap anti-squeezing below 3 dB, so that form is
not used.

Loss enters as one efficiency ``eta``. With per-arm efficiencies it is
``model.DetectionParams.eta``, exact for the idler-weighted joint
quadratures.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import PhysicsDomainError

SIGNS = ("plus", "minus")
PHASE_NOISE_MODES = ("small-angle", "exact-gaussian")


def _check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")


def two_mode_variance(epsilon, eta, omega_norm, sign: str, out=None):
    """Noise variance of the joint quadrature Q+- at normalized frequency omega_norm.

    Shot-noise units: 1.0 is the two-mode vacuum level. ``epsilon`` and
    ``omega_norm`` broadcast against each other; a float is returned when
    both are scalars. ``out``, an array of the broadcast shape (``omega_norm``
    itself among them), receives the result instead of a new one.
    """
    _check_sign(sign)
    if out is None and isinstance(epsilon, (int, float)) and isinstance(omega_norm, (int, float)):
        return _scalar_two_mode_variance(epsilon, eta, omega_norm, sign)
    eps = np.asarray(epsilon, dtype=float)
    # Written so that NaN fails the check too.
    if not np.all((eps >= 0.0) & (eps < 1.0)):
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    if not 0.0 <= eta <= 1.0:
        raise PhysicsDomainError(f"eta = {eta} outside [0, 1]")
    omega = np.asarray(omega_norm, dtype=float)
    # 1 -+ eta*4*eps/(omega^2 + (1 +- eps)^2), evaluated in one output buffer
    # with the operations of that expression in its order.
    result = np.empty(np.broadcast_shapes(eps.shape, omega.shape)) if out is None else out
    np.square(omega, out=result)
    result += np.square(1.0 + eps if sign == "minus" else 1.0 - eps)
    np.divide(eta * 4.0 * eps, result, out=result)
    if sign == "minus":
        np.subtract(1.0, result, out=result)
    else:
        result += 1.0
    if result.ndim == 0:
        return float(result)
    return result


def _scalar_two_mode_variance(epsilon, eta, omega_norm, sign: str) -> float:
    """two_mode_variance on Python floats, with the array path's operations
    in its order (a*a, not a**2, which rounds differently) and its bits, at
    a few percent of its cost per call."""
    eps, omega = float(epsilon), float(omega_norm)
    if not 0.0 <= eps < 1.0:
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    if not 0.0 <= eta <= 1.0:
        raise PhysicsDomainError(f"eta = {eta} outside [0, 1]")
    a = 1.0 + eps if sign == "minus" else 1.0 - eps
    r = eta * 4.0 * eps / (omega * omega + a * a)
    return 1.0 - r if sign == "minus" else r + 1.0


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
    w = phase_noise_weight(sigma_theta, mode)
    return var_ideal * (1.0 - w) + var_orthogonal * w


def phase_noise_weight(sigma_theta, mode: str) -> float:
    """Weight w of the orthogonal variance in ``phase_noise_variance``:
    sigma^2 ("small-angle") or (1 - exp(-2 sigma^2))/2 ("exact-gaussian"),
    that is E[sin^2 Theta]. Both rise monotonically from 0."""
    if mode not in PHASE_NOISE_MODES:
        raise ValueError(f"mode must be one of {PHASE_NOISE_MODES}, got {mode!r}")
    sigma = float(sigma_theta)
    if sigma < 0:
        raise PhysicsDomainError("sigma_theta must be non-negative")
    if mode == "small-angle":
        return sigma**2
    return 0.5 * (1.0 - math.exp(-2.0 * sigma**2))


class DuanSimonResult(NamedTuple):
    total: float
    entangled: bool


def duan_simon(var_minus, var_plus_orth) -> DuanSimonResult:
    """Inseparability check: separable states have var_minus + var_plus_orth >= 2.

    On variances normalized to their own shot noise this is also the
    weighted criterion of Duan et al., PRL 84, 2722 (2000), Eq. (7), for
    unequal arms.
    """
    if var_minus <= 0 or var_plus_orth <= 0:
        raise PhysicsDomainError("variances must be positive")
    total = float(var_minus + var_plus_orth)
    return DuanSimonResult(total=total, entangled=total < 2.0)


def optimal_epsilon(
    eta: float,
    sigma_theta: float,
    omega_norm: float = 0.0,
    mode: str = "small-angle",
) -> tuple[float, float]:
    """Pump amplitude minimizing the phase-noise-degraded squeezing variance.

    Golden-section search over epsilon in [0, 0.99] to a 1e-8 bracket: the
    objective falls with the squeezing and rises with the anti-squeezing
    it mixes in, so it has one minimum there.
    """
    if not 0.0 <= eta <= 1.0:
        raise PhysicsDomainError(f"eta = {eta} outside [0, 1]")
    if sigma_theta < 0:
        raise PhysicsDomainError("sigma_theta must be non-negative")

    def objective(eps: float) -> float:
        v_minus = two_mode_variance(eps, eta, omega_norm, "minus")
        v_plus = two_mode_variance(eps, eta, omega_norm, "plus")
        return phase_noise_variance(v_minus, v_plus, sigma_theta, mode)

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 0.99
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-8:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = objective(x2)
    eps = 0.5 * (lo + hi)
    return eps, float(objective(eps))
