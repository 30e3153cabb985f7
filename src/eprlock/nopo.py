"""Classical dynamics of the seeded nondegenerate parametric oscillator.

Steady-state coherent-lock output fields are computed three ways: an exact
2x2 complex linear solve (the default), one closed-form expression, and
long-time RK4 integration of the equations of motion. The three routes are
mutually checking oracles.

With detunings Delta_s = -Delta_i = Delta and complex coupling
G = epsilon*gamma*exp(i*phi_p), the steady state solves

    (gamma - i*Delta) alpha_s - G alpha_i^* = sqrt(2 gamma_in) alpha_CL e^{i phi_seed}
    (gamma - i*Delta) alpha_i^* - G^* alpha_s = 0

and the output fields follow from A = sqrt(2 gamma_out) * alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import (
    AboveThresholdError,
    CavityParams,
    NumericalError,
    PhysicsDomainError,
    PumpParams,
    SeedParams,
    sample_budget,
)

# Amplitude-explosion heuristic: |alpha| beyond this multiple of the input
# scale flags an unstable integration step.
_EXPLOSION_FACTOR = 1e6


@dataclass(frozen=True)
class LockFieldState:
    """Output amplitudes of the two coherent locking fields."""

    a_cls: complex
    a_cli: complex

    @property
    def phi_cls(self) -> float:
        return cmath.phase(self.a_cls)

    @property
    def phi_cli(self) -> float:
        return cmath.phase(self.a_cli)


@dataclass(frozen=True)
class Trajectory:
    """Intracavity amplitudes sampled every ``dt`` seconds from t = 0."""

    dt: float
    alpha_s: np.ndarray
    alpha_i: np.ndarray

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if len(self.alpha_s) != len(self.alpha_i):
            raise ValueError("trajectory arrays must have equal length")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.alpha_s)) * self.dt


def _coupling(cavity: CavityParams, pump: PumpParams) -> complex:
    return pump.epsilon * cavity.gamma_total * cmath.exp(1j * pump.phi_p)


def _drive(cavity: CavityParams, seed: SeedParams) -> complex:
    return math.sqrt(2.0 * cavity.gamma_in) * seed.alpha_cl * cmath.exp(1j * seed.seed_phase)


def _system_matrix(cavity: CavityParams, pump: PumpParams) -> np.ndarray:
    """Steady-state matrix M of the (alpha_s, alpha_i^*) equations; the drift matrix is -M."""
    diag = cavity.gamma_total - 1j * cavity.delta
    g = _coupling(cavity, pump)
    return np.array([[diag, -g], [-np.conj(g), diag]], dtype=np.complex128)


def _require_below_threshold(pump: PumpParams) -> None:
    if pump.epsilon >= 1.0:
        raise AboveThresholdError(
            f"epsilon = {pump.epsilon} >= 1: no below-threshold steady state"
        )


def parametric_gain(epsilon: float) -> float:
    """Amplitude gain 1/(1 - epsilon) of the below-threshold amplifier."""
    if not 0.0 <= epsilon < 1.0:
        raise PhysicsDomainError(f"epsilon = {epsilon} outside [0, 1)")
    return 1.0 / (1.0 - epsilon)


def steady_state_linear_solve(
    cavity: CavityParams, pump: PumpParams, seed: SeedParams
) -> LockFieldState:
    """Exact steady state from the 2x2 complex linear system in (alpha_s, alpha_i^*)."""
    _require_below_threshold(pump)
    rhs = np.array([_drive(cavity, seed), 0.0], dtype=np.complex128)
    try:
        sol = np.linalg.solve(_system_matrix(cavity, pump), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular steady-state system: {exc}") from exc
    alpha_s = sol[0]
    alpha_i = np.conj(sol[1])
    out = math.sqrt(2.0 * cavity.gamma_out)
    return LockFieldState(a_cls=complex(out * alpha_s), a_cli=complex(out * alpha_i))


def steady_state_closed_form(
    cavity: CavityParams,
    pump: PumpParams,
    seed: SeedParams,
    variant: str = "corrected",
) -> LockFieldState:
    """Closed-form output amplitudes, equal to the linear solve's.

    Both epsilon^2 sub-terms of the signal denominator carry (1 + dn^2), and
    the idler expression divides by (1 + i*dn); the printed (1 + dn) and
    (1 - i*dn) disagree with the linear solve off resonance, so they are not
    used. ``variant``, kept for callers that pass it, accepts only "corrected".
    """
    if variant != "corrected":
        raise ValueError(f"unknown variant {variant!r}; only 'corrected' remains")
    _require_below_threshold(pump)
    gamma = cavity.gamma_total
    dn = cavity.delta_norm
    eps = pump.epsilon
    prefactor = (
        2.0
        * math.sqrt(cavity.gamma_in * cavity.gamma_out)
        / gamma
        * seed.alpha_cl
        * cmath.exp(1j * seed.seed_phase)
    )
    sub_term = eps**2 / (1.0 + dn**2)
    denom = (1.0 - sub_term) - 1j * dn * (1.0 + sub_term)
    if denom == 0:
        raise NumericalError("vanishing closed-form denominator")
    a_cls = prefactor / denom
    a_cli = eps * cmath.exp(1j * pump.phi_p) / (1.0 + 1j * dn) * np.conj(a_cls)
    return LockFieldState(a_cls=complex(a_cls), a_cli=complex(a_cli))


def drift_eigenvalues(cavity: CavityParams, pump: PumpParams) -> np.ndarray:
    """Eigenvalues of the (alpha_s, alpha_i^*) drift matrix.

    A positive real part signals exponential growth (above threshold).
    """
    return np.linalg.eigvals(-_system_matrix(cavity, pump))


def integrate_dynamics(
    cavity: CavityParams,
    pump: PumpParams,
    seed: SeedParams,
    t_end: float,
    dt: float,
    initial: tuple[complex, complex] = (0.0 + 0j, 0.0 + 0j),
) -> Trajectory:
    """Fixed-step RK4 integration of the classical equations of motion.

    Raises AboveThresholdError for a pump at or above threshold, quoting the
    largest drift eigenvalue. Below threshold the dynamics are damped, so
    amplitudes that still explode mean dt lies past RK4's stability limit:
    that is a NumericalError.
    """
    gamma = cavity.gamma_total
    if not 0.0 < dt <= 0.1 / gamma:
        raise ValueError(f"dt = {dt} outside (0, 0.1/gamma = {0.1 / gamma}]")
    if pump.epsilon >= 1.0:
        rate = float(np.max(drift_eigenvalues(cavity, pump).real))
        raise AboveThresholdError(
            f"epsilon = {pump.epsilon} >= 1: the amplitudes grow without bound "
            f"(largest drift eigenvalue real part {rate:.3e} 1/s)"
        )
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    n_steps = sample_budget(t_end / dt, "t_end/dt")
    a_s0, a_i0 = complex(initial[0]), complex(initial[1])
    drive = _drive(cavity, seed)
    scale = max(1.0, abs(drive) / gamma, abs(a_s0), abs(a_i0))
    alpha_s, alpha_i, diverged = kernels.cavity_rk4(
        a_s0,
        a_i0,
        _coupling(cavity, pump),
        gamma,
        cavity.delta,
        drive,
        dt,
        n_steps,
        _EXPLOSION_FACTOR * scale,
    )
    if diverged >= 0:
        raise NumericalError(
            f"trajectory diverged at t = {diverged * dt:.3e} s: the step dt = {dt:.3e} s is past "
            "RK4's stability limit; lower integrate.dt_over_gamma"
        )
    return Trajectory(dt=dt, alpha_s=alpha_s, alpha_i=alpha_i)


def output_fields(cavity: CavityParams, trajectory: Trajectory) -> LockFieldState:
    """Lock-field state from the final sample of a trajectory."""
    out = math.sqrt(2.0 * cavity.gamma_out)
    return LockFieldState(
        a_cls=complex(out * trajectory.alpha_s[-1]),
        a_cli=complex(out * trajectory.alpha_i[-1]),
    )
