"""Unit tests for shared domain types, phase conventions and configuration."""

import math
import mmap
import multiprocessing
import os
import time

import numpy as np
import pytest
from conftest import assert_no_child_left

from eprlock import model
from eprlock.model import (
    CavityParams,
    ConfigError,
    DetectionParams,
    NumericalError,
    PhaseNoiseSpec,
    PhysicsDomainError,
    PumpParams,
    SeedParams,
    config_from_dict,
    db,
    fork_join,
    usable_cpus,
    wrap_phase,
)


class TestWrapPhase:
    def test_identity_inside_range(self):
        for phi in (-3.0, -1.0, 0.0, 0.5, 3.0):
            assert wrap_phase(phi) == pytest.approx(phi, abs=1e-15)

    def test_half_open_interval(self):
        # pi maps to itself, -pi maps to +pi: the interval is (-pi, pi].
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)

    def test_wraps_multiples(self):
        assert wrap_phase(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
        assert wrap_phase(2.0 * math.pi + 0.3) == pytest.approx(0.3)
        assert wrap_phase(-7.0 * math.pi) == pytest.approx(math.pi)

    def test_array_input(self):
        phis = np.array([0.0, 4.0 * math.pi, -5.0])
        out = wrap_phase(phis)
        assert out.shape == phis.shape
        np.testing.assert_allclose(out, [0.0, 0.0, -5.0 + 2.0 * math.pi], atol=1e-12)


class TestDb:
    def test_known_values(self):
        assert db(1.0) == pytest.approx(0.0)
        assert db(10.0) == pytest.approx(10.0)
        assert db(0.5) == pytest.approx(-3.0103, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(PhysicsDomainError):
            db(0.0)
        with pytest.raises(PhysicsDomainError):
            db(-1.0)


class TestCavityParams:
    def test_total_rate_and_normalized_detuning(self):
        cav = CavityParams(gamma_in=2e6, gamma_out=12e6, mu=1e6, delta=3e6)
        assert cav.gamma_total == pytest.approx(15e6)
        assert cav.delta_norm == pytest.approx(0.2)

    def test_rejects_negative_rates_and_zero_total(self):
        with pytest.raises(ValueError):
            CavityParams(gamma_in=-1.0, gamma_out=1.0)
        with pytest.raises(ValueError):
            CavityParams(gamma_in=0.0, gamma_out=0.0, mu=0.0)


class TestPumpParams:
    def test_above_threshold_constructible(self):
        # epsilon >= 1 is a valid configuration (divergent dynamics are
        # diagnosed downstream), only negative pump amplitude is rejected.
        assert PumpParams(epsilon=1.2).epsilon == 1.2
        with pytest.raises(ValueError):
            PumpParams(epsilon=-0.1)


class TestSeedParams:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            SeedParams(alpha_cl=-1.0)


class TestDetectionParams:
    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            DetectionParams(eta_s=1.1, eta_i=0.9)
        with pytest.raises(ValueError):
            DetectionParams(eta_s=0.9, eta_i=-0.1)

    # Down to 1e-154, where eta*eta leaves the normal floats.
    @pytest.mark.parametrize("eta", [0.0, 1e-150, 1e-9, 0.1, 0.3, 0.7, 0.89, 1.0 - 1e-16, 1.0])
    def test_equal_arms_keep_their_efficiency_bit_for_bit(self, eta):
        detection = DetectionParams(eta_s=eta, eta_i=eta)
        assert detection.eta == eta
        if eta:
            assert detection.idler_weight == 1.0

    def test_harmonic_mean_and_weight(self):
        detection = DetectionParams(eta_s=0.95, eta_i=0.75)
        assert detection.eta == pytest.approx(2 * 0.95 * 0.75 / 1.7, rel=1e-15)
        assert detection.idler_weight == pytest.approx(math.sqrt(0.95 / 0.75), rel=1e-15)
        swapped = DetectionParams(eta_s=0.75, eta_i=0.95)
        assert swapped.eta == pytest.approx(detection.eta, rel=1e-15)

    @pytest.mark.parametrize("eta_s, eta_i, dead", [(0.0, 0.9, "eta_s"), (0.9, 0.0, "eta_i"), (0.0, 0.0, "eta_s")])
    def test_a_dead_arm_has_no_loss_and_no_weight(self, eta_s, eta_i, dead):
        detection = DetectionParams(eta_s=eta_s, eta_i=eta_i)
        assert detection.eta == 0.0
        with pytest.raises(PhysicsDomainError, match=f"detection.{dead} = 0"):
            detection.idler_weight


class TestPhaseNoiseSpec:
    def test_default_is_the_old_per_arm_common_mode(self):
        """The default sigma_theta has the bits of the common mode
        sqrt((s^2 + i^2 + 2 cov)/4) of the per-arm defaults it replaced."""
        from eprlock.cli import DEFAULT_CONFIG

        s = i = 0.01414213562373095
        spec = PhaseNoiseSpec(**DEFAULT_CONFIG["phase_noise"])
        assert spec.sigma_theta == math.sqrt((s**2 + i**2 + 2.0 * 0.0) / 4.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PhaseNoiseSpec(sigma_theta=-0.01)


class TestNonFiniteFieldsRejected:
    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (PumpParams, {"epsilon": math.nan}),
            (PumpParams, {"epsilon": 0.5, "phi_p": math.inf}),
            (CavityParams, {"gamma_in": math.nan, "gamma_out": 0.5}),
            (CavityParams, {"gamma_in": 0.5, "gamma_out": 0.5, "mu": math.inf}),
            (SeedParams, {"alpha_cl": math.nan}),
            (DetectionParams, {"eta_s": 0.9, "eta_i": math.nan}),
            (PhaseNoiseSpec, {"sigma_theta": math.inf}),
        ],
    )
    def test_nan_and_inf_rejected(self, cls, kwargs):
        with pytest.raises(ValueError, match="finite"):
            cls(**kwargs)

    def test_config_block_with_nan_is_config_error(self):
        from eprlock.cli import DEFAULT_CONFIG

        raw = {**DEFAULT_CONFIG, "pump": {"epsilon": math.nan}}
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(raw)


def _valid_raw():
    return {
        "cavity": {"gamma_in": 2e6, "gamma_out": 12e6, "mu": 1e6, "delta": 0.0},
        "pump": {"epsilon": 0.8, "phi_p": 0.0},
        "seed": {"alpha_cl": 1.0, "seed_phase": 0.0},
        "detection": {"eta_s": 0.89, "eta_i": 0.89},
        "phase_noise": {"sigma_theta": 0.01},
    }


class TestConfigFromDict:
    def test_builds_typed_config(self):
        cfg = config_from_dict(_valid_raw())
        assert cfg.cavity.gamma_total == pytest.approx(15e6)
        assert cfg.pump.epsilon == 0.8
        assert cfg.detection.eta_s == 0.89

    def test_missing_block(self):
        raw = _valid_raw()
        del raw["pump"]
        with pytest.raises(ConfigError, match="pump"):
            config_from_dict(raw)

    def test_unknown_key(self):
        raw = _valid_raw()
        raw["cavity"]["gamma_bogus"] = 1.0
        with pytest.raises(ConfigError, match="cavity"):
            config_from_dict(raw)

    def test_invalid_value(self):
        raw = _valid_raw()
        raw["detection"]["eta_s"] = 2.0
        with pytest.raises(ConfigError, match="detection"):
            config_from_dict(raw)

    def test_non_object_block(self):
        raw = _valid_raw()
        raw["seed"] = [1, 2]
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)


def _raise(exc):
    raise exc


def _fork_join_in_pool_worker():
    """fork_join's two pids in a pool worker, and whether the worker is left
    with no child."""
    child_pid, parent_pid = fork_join(os.getpid, os.getpid)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return child_pid, parent_pid, True
    return child_pid, parent_pid, False


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(params=[2, 1], ids=["forked", "inline"])
def cpus(request, monkeypatch):
    """Run a test with the worker forked and with both functions inline."""
    monkeypatch.setattr(model, "usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def forked(monkeypatch):
    """Run a test with the worker forked."""
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)


class TestForkJoin:
    def test_usable_cpus(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)

    def test_results_in_order(self, cpus):
        child_pid, parent = fork_join(os.getpid, lambda: "parent")
        assert parent == "parent"
        assert (child_pid == os.getpid()) == (cpus == 1)
        assert_no_child_left()

    def test_worker_writes_shared_memory(self, cpus):
        shared = np.frombuffer(mmap.mmap(-1, 8 * 4), dtype=float)

        def child():
            shared[:] = [1.0, 2.0, 3.0, 4.0]
            return 7

        assert fork_join(child, lambda: 8) == (7, 8)
        assert shared.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_worker_exception_is_raised_here(self, cpus):
        with pytest.raises(ValueError, match="idler"):
            fork_join(lambda: _raise(ValueError("idler")), lambda: 0)
        assert_no_child_left()

    def test_parent_exception_wins_and_ends_the_worker(self, cpus):
        """Inline, the worker's function never starts; forked, it is ended."""
        start = time.perf_counter()
        with pytest.raises(KeyError):
            fork_join(lambda: time.sleep(30.0), lambda: _raise(KeyError("signal")))
        assert time.perf_counter() - start < 10.0
        assert_no_child_left()

    def test_worker_that_dies_is_a_numerical_error(self, forked):
        with pytest.raises(NumericalError, match="exit code 3"):
            fork_join(lambda: os._exit(3), lambda: 0)
        assert_no_child_left()

    def test_unpicklable_result_is_a_numerical_error(self, forked):
        """A lambda cannot be pickled: the worker ends with exit code 1 and
        never returns into this stack. A worker that did would count itself
        in the shared counter and end there."""
        escaped = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
        caller = os.getpid()
        try:
            with pytest.raises(NumericalError, match="exit code 1"):
                fork_join(lambda: (lambda: 0), lambda: 0)
        finally:
            if os.getpid() != caller:
                escaped[0] += 1
                os._exit(0)
        assert escaped[0] == 0
        assert_no_child_left()

    def test_large_result_comes_back_intact(self, forked):
        """1 MB is many times a pipe's buffer: the caller reads it all before it waits."""
        payload = np.random.default_rng(1).bytes(2**20)
        assert fork_join(lambda: payload, lambda: "parent") == (payload, "parent")
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_no_descriptor_is_left_open(self, forked):
        before = _open_fds()
        fork_join(lambda: 1, lambda: 2)
        with pytest.raises(ValueError):
            fork_join(lambda: _raise(ValueError("idler")), lambda: 0)
        with pytest.raises(KeyError):
            fork_join(lambda: 1, lambda: _raise(KeyError("signal")))
        assert _open_fds() == before

    def test_forks_inside_a_daemonic_process(self, forked):
        """A daemonic pool worker, which multiprocessing forbids to have
        children, still forks its own worker, and is left with no child."""
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child_pid, parent_pid, no_child_left = pool.apply(_fork_join_in_pool_worker)
        assert child_pid != parent_pid != os.getpid()
        assert no_child_left
        assert_no_child_left()
