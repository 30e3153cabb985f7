"""Shared domain types and unit conventions.

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
import pickle
from dataclasses import dataclass, fields
from typing import NoReturn

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


# Samples one record (or RK4 trajectory) may hold: 16x synth-epr's default
# 1M-sample records, 33x fig4's 500,000. Past it a run would ask numpy for
# gigabytes.
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


def _worker(child_fn, sink) -> NoReturn:
    """Body of fork_join's worker: pickle (True, child_fn()) or (False, the
    exception it raised) into ``sink``, then end the process with os._exit.
    It never returns into the caller's stack, nor flushes a buffer it
    inherited; a result that cannot be pickled ends it with exit code 1."""
    code = 1
    try:
        try:
            outcome = (True, child_fn())
        except BaseException as exc:
            outcome = (False, exc)
        sink.write(pickle.dumps(outcome))
        sink.flush()
        code = 0
    finally:
        os._exit(code)


def fork_join(child_fn, parent_fn):
    """Run ``child_fn()`` in one forked worker while ``parent_fn()`` runs here.

    Returns (child result, parent result). ``child_fn`` reaches the worker by
    fork inheritance, so it is never pickled; its result and exception are,
    and come back through a pipe, so it should return something small and
    hand bulk data back through memory or files the parent opened before the
    call. The worker's own exception is raised here; an exception of
    ``parent_fn`` wins over it, and no worker outlives the call. With fewer
    than 2 usable CPUs, or no ``os.fork``, both run inline, ``parent_fn`` first.
    """
    if usable_cpus() < 2 or not hasattr(os, "fork"):
        parent = parent_fn()
        return child_fn(), parent
    reader, writer = os.pipe()
    with open(reader, "rb") as pipe, open(writer, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            _worker(child_fn, sink)
        sink.close()  # the pipe ends when the worker does
        try:
            parent = parent_fn()
            result = pipe.read()  # to EOF before waitpid: a large result cannot block the worker
        except BaseException:
            import signal  # here: only a failed call needs it

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    exit_code = os.waitstatus_to_exitcode(status)
    if exit_code or not result:
        raise NumericalError(f"worker ended without a result (exit code {exit_code})")
    ok, value = pickle.loads(result)
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

    def __post_init__(self):
        _require_finite("sample_rate", self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.size == 0:
            raise ValueError("samples must be non-empty")

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The times k / sample_rate of samples start <= k < stop (to the
        end by default), a float arange divided in place: each time has the
        same bits whatever range it is formed in."""
        times = np.arange(start, self.samples.size if stop is None else stop, dtype=float)
        times /= self.sample_rate
        return times


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
    """Standard deviation (rad) of the common-mode residual phase theta."""

    sigma_theta: float

    def __post_init__(self):
        _require_finite_fields(self)
        if self.sigma_theta < 0:
            raise ValueError("sigma_theta must be non-negative")


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class SystemConfig:
    """Typed view of the JSON configuration blocks shared by all modules."""

    cavity: CavityParams
    pump: PumpParams
    seed: SeedParams
    detection: DetectionParams
    phase_noise: PhaseNoiseSpec


# In SystemConfig's field order.
_BLOCK_TYPES = {
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
    return SystemConfig(*blocks.values())
