"""Shared domain types, unit conventions and frequency-plan bookkeeping.

Conventions used throughout the package:

* configuration frequencies and rates are cyclic (Hz); spectra are
  expressed in the normalized Fourier variable ``omega_norm = Omega/gamma``
  so the rad/s-vs-Hz choice cancels,
* the vacuum (shot-noise) variance of a single-mode quadrature is 1,
* phases are stored in (-pi, pi] and compared modulo 2*pi.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np


class EprlockError(Exception):
    """Base class for package errors."""


class ConfigError(EprlockError):
    """Invalid or inconsistent configuration input."""


class PhysicsDomainError(EprlockError, ValueError):
    """Parameters outside the physically meaningful domain."""


class AboveThresholdError(PhysicsDomainError):
    """Pump at or above oscillation threshold: no steady state."""


class NumericalError(EprlockError):
    """A numerical procedure failed (singular system, no convergence)."""


def wrap_phase(phi):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    return np.pi - np.remainder(np.pi - np.asarray(phi), 2.0 * np.pi)


def db(linear_variance) -> float:
    """Convert a positive linear variance ratio to decibels."""
    v = np.asarray(linear_variance, dtype=float)
    if np.any(v <= 0.0):
        raise PhysicsDomainError("dB conversion requires a positive variance")
    return 10.0 * np.log10(linear_variance)


# Samples one record (or RK4 trajectory) may hold: 16x fig4's and synth-epr's
# default 1M-sample records. Past it a run would ask numpy for gigabytes.
MAX_SAMPLES = 2**24


def sample_budget(count: float, what: str) -> int:
    """``count`` rounded to an int; a ConfigError, before anything is allocated,
    when it exceeds MAX_SAMPLES or is not a number."""
    if not count <= MAX_SAMPLES:
        raise ConfigError(f"{what} = {count:.6g} exceeds the sample budget of {MAX_SAMPLES}")
    return int(round(count))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send_outcome(conn, child_fn) -> None:
    """Worker body: send (True, child_fn()) or (False, the exception it raised)."""
    try:
        outcome = (True, child_fn())
    except BaseException as exc:
        outcome = (False, exc)
    conn.send(outcome)


def fork_join(child_fn, parent_fn):
    """Run ``child_fn()`` in one forked worker while ``parent_fn()`` runs here.

    Returns (child result, parent result). ``child_fn`` reaches the worker by
    fork inheritance, so it is never pickled; its result and exception are,
    so it should return something small and hand bulk data back through
    memory or files the parent opened before the call. The worker's own
    exception is raised here; an exception of ``parent_fn`` wins over it,
    and no worker outlives the call. With fewer than 2 usable CPUs, no
    ``fork`` start method, or inside a daemonic process (which may not have
    children) both run inline, ``parent_fn`` first.
    """
    import multiprocessing  # here: its import would cost every command

    if (
        usable_cpus() < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        parent = parent_fn()
        return child_fn(), parent
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_send_outcome, args=(writer, child_fn), daemon=True)
    worker.start()
    writer.close()
    try:
        parent = parent_fn()
        outcome = reader.recv()
    except EOFError:
        outcome = None
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        reader.close()
    if outcome is None:
        raise NumericalError(f"worker ended without a result (exit code {worker.exitcode})")
    ok, value = outcome
    if not ok:
        raise value
    return value, parent


def _require_finite(name: str, *values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def _require_finite_fields(obj) -> None:
    """Reject a NaN or infinite value in any field of a scalar-field dataclass."""
    for f in fields(obj):
        _require_finite(f.name, getattr(obj, f.name))


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued record."""

    sample_rate: float
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        _require_finite("sample_rate", self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.size == 0:
            raise ValueError("samples must be non-empty")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FrequencyPlan:
    """Wavelengths (m) of the signal, idler and pump fields."""

    lambda_s: float
    lambda_i: float
    lambda_p: float

    def __post_init__(self):
        _require_finite_fields(self)
        for name in ("lambda_s", "lambda_i", "lambda_p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def validate_frequency_plan(plan: FrequencyPlan) -> tuple[bool, str]:
    """Check energy conservation 1/ls + 1/li = 1/lp to 1e-3 relative.

    Returns (ok, diagnostic).
    """
    lhs = 1.0 / plan.lambda_s + 1.0 / plan.lambda_i
    rhs = 1.0 / plan.lambda_p
    rel = abs(lhs - rhs) / rhs
    ok = rel < 1e-3
    msg = (
        f"1/lambda_s + 1/lambda_i = {lhs:.6e} 1/m vs 1/lambda_p = {rhs:.6e} 1/m "
        f"(relative mismatch {rel:.3e})"
    )
    return ok, msg


@dataclass(frozen=True)
class CavityParams:
    """Decay rates (Hz), detuning (Hz) and derived normalized quantities."""

    gamma_in: float
    gamma_out: float
    mu: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)
        if self.gamma_in < 0 or self.gamma_out < 0 or self.mu < 0:
            raise ValueError("decay rates must be non-negative")
        if self.gamma_total <= 0:
            raise ValueError("total decay rate must be positive")

    @property
    def gamma_total(self) -> float:
        return self.gamma_in + self.gamma_out + self.mu

    @property
    def delta_norm(self) -> float:
        return self.delta / self.gamma_total


@dataclass(frozen=True)
class PumpParams:
    """Normalized pump amplitude (relative to threshold) and pump phase."""

    epsilon: float
    phi_p: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


@dataclass(frozen=True)
class SeedParams:
    """Injected coherent-lock seed: real amplitude (sqrt(photons/s)) and phase."""

    alpha_cl: float
    seed_phase: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)
        if self.alpha_cl < 0:
            raise ValueError("alpha_cl must be non-negative")


@dataclass(frozen=True)
class DetectionParams:
    """Homodyne efficiencies of the signal and idler arms, and the one loss
    model: the joint quadratures (q_s -+ g q_i)/sqrt(1 + g^2), g = ``idler_weight``,
    see the per-arm losses exactly as the one efficiency ``eta``."""

    eta_s: float
    eta_i: float

    def __post_init__(self):
        _require_finite_fields(self)
        for name in ("eta_s", "eta_i"):
            eta = getattr(self, name)
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def eta(self) -> float:
        """Harmonic mean 2 eta_s eta_i/(eta_s + eta_i), 0 for a dead arm. As
        k*(k/mean), k = sqrt(eta_s*eta_i), equal arms keep their bits (down to
        1e-154, where eta_s*eta_i underflows)."""
        k = math.sqrt(self.eta_s * self.eta_i)
        return k * (k / ((self.eta_s + self.eta_i) / 2.0)) if k else 0.0

    @property
    def idler_weight(self) -> float:
        """Gain sqrt(eta_s/eta_i) on the idler current that cancels the
        anti-squeezing leak (sqrt(eta_s) - g sqrt(eta_i))^2/(1 + g^2). A ratio
        of square roots, it stays finite where eta_s/eta_i would overflow."""
        for name in ("eta_s", "eta_i"):
            if getattr(self, name) == 0.0:
                raise PhysicsDomainError(f"detection.{name} = 0: a dead arm has no joint quadratures")
        return math.sqrt(self.eta_s) / math.sqrt(self.eta_i)


@dataclass(frozen=True)
class PhaseNoiseSpec:
    """Per-arm residual phase-noise standard deviations and covariance."""

    sigma_s: float
    sigma_i: float
    cov_si: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)
        if self.sigma_s < 0 or self.sigma_i < 0:
            raise ValueError("sigma must be non-negative")
        if abs(self.cov_si) > self.sigma_s * self.sigma_i + 1e-15:
            raise ValueError("cov_si violates the Cauchy-Schwarz bound")

    @property
    def sigma_theta(self) -> float:
        """Common-mode standard deviation sqrt((s^2 + i^2 + 2 cov)/4)."""
        var = (self.sigma_s**2 + self.sigma_i**2 + 2.0 * self.cov_si) / 4.0
        if var < 0:
            raise PhysicsDomainError("negative common-mode variance")
        return math.sqrt(var)


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class SystemConfig:
    """Typed view of the JSON configuration blocks shared by all modules."""

    plan: FrequencyPlan
    cavity: CavityParams
    pump: PumpParams
    seed: SeedParams
    detection: DetectionParams
    phase_noise: PhaseNoiseSpec


_BLOCK_TYPES = {
    "frequency_plan": FrequencyPlan,
    "cavity": CavityParams,
    "pump": PumpParams,
    "seed": SeedParams,
    "detection": DetectionParams,
    "phase_noise": PhaseNoiseSpec,
}


def config_from_dict(raw: dict) -> SystemConfig:
    """Build the typed configuration from a parsed JSON dict.

    Unknown keys inside a block and missing blocks raise ConfigError.
    """
    blocks = {}
    for key, cls in _BLOCK_TYPES.items():
        if key not in raw:
            raise ConfigError(f"missing configuration block '{key}'")
        if not isinstance(raw[key], dict):
            raise ConfigError(f"configuration block '{key}' must be an object")
        try:
            blocks[key] = cls(**raw[key])
        except TypeError as exc:
            raise ConfigError(f"bad fields in block '{key}': {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"invalid values in block '{key}': {exc}") from exc
    return SystemConfig(
        plan=blocks["frequency_plan"],
        cavity=blocks["cavity"],
        pump=blocks["pump"],
        seed=blocks["seed"],
        detection=blocks["detection"],
        phase_noise=blocks["phase_noise"],
    )
