"""Unit tests for the seeded parametric-oscillator steady state and dynamics."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprlock import kernels
from eprlock.model import (
    AboveThresholdError,
    CavityParams,
    ConfigError,
    NumericalError,
    PhysicsDomainError,
    PumpParams,
    SeedParams,
    wrap_phase,
)
from eprlock import nopo


def _symmetric_cavity(delta=0.0):
    # gamma_in = gamma_out = gamma/2 makes the closed-form prefactor unity.
    return CavityParams(gamma_in=0.5, gamma_out=0.5, mu=0.0, delta=delta)


class TestSteadyStateWorkedExample:
    """epsilon = 0.5, resonant, unit seed: A_CLs = 4/3, A_CLi = 2/3."""

    def test_closed_form(self):
        state = nopo.steady_state_closed_form(
            _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0)
        )
        assert state.a_cls == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert state.a_cli == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_linear_solve(self):
        state = nopo.steady_state_linear_solve(
            _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0)
        )
        assert state.a_cls == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert state.a_cli == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestClosedFormVsLinearSolve:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("delta_norm", [-2.0, -0.5, 0.0, 1.0, 2.0])
    def test_corrected_variant_matches_exactly(self, epsilon, delta_norm):
        cavity = _symmetric_cavity(delta=delta_norm)
        pump = PumpParams(epsilon=epsilon, phi_p=0.7)
        seed = SeedParams(alpha_cl=2.0, seed_phase=-0.4)
        a = nopo.steady_state_linear_solve(cavity, pump, seed)
        b = nopo.steady_state_closed_form(cavity, pump, seed)
        assert abs(a.a_cls - b.a_cls) < 1e-12 * max(1.0, abs(a.a_cls))
        assert abs(a.a_cli - b.a_cli) < 1e-12 * max(1.0, abs(a.a_cls))

    def test_unknown_variant_rejected(self):
        args = (_symmetric_cavity(0.5), PumpParams(epsilon=0.6), SeedParams(alpha_cl=1.0))
        assert nopo.steady_state_closed_form(*args, variant="corrected") == nopo.steady_state_closed_form(*args)
        with pytest.raises(ValueError, match="variant"):
            nopo.steady_state_closed_form(*args, variant="bogus")


class TestPhaseCondition:
    def test_phase_sum_equals_pump_phase_on_resonance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            pump = PumpParams(
                epsilon=float(rng.uniform(0.05, 0.95)),
                phi_p=float(rng.uniform(-math.pi, math.pi)),
            )
            seed = SeedParams(alpha_cl=1.0, seed_phase=float(rng.uniform(-math.pi, math.pi)))
            state = nopo.steady_state_linear_solve(_symmetric_cavity(), pump, seed)
            mismatch = wrap_phase(state.phi_cls + state.phi_cli - pump.phi_p)
            assert abs(mismatch) < 1e-9

    def test_detuning_adds_known_constant_offset(self):
        dn = 0.7
        pump = PumpParams(epsilon=0.5, phi_p=0.3)
        seed = SeedParams(alpha_cl=1.0, seed_phase=0.1)
        state = nopo.steady_state_linear_solve(_symmetric_cavity(dn), pump, seed)
        # arg(1/(1 + i*dn)): the constant the idler's 1/(1 + i*dn) factor adds to the phase sum.
        mismatch = wrap_phase(state.phi_cls + state.phi_cli - pump.phi_p + math.atan(dn))
        assert abs(mismatch) < 1e-9


class TestParametricGain:
    def test_values(self):
        assert nopo.parametric_gain(0.0) == pytest.approx(1.0)
        assert nopo.parametric_gain(0.5) == pytest.approx(2.0)
        assert nopo.parametric_gain(0.9) == pytest.approx(10.0)

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            nopo.parametric_gain(1.0)
        with pytest.raises(PhysicsDomainError):
            nopo.parametric_gain(-0.1)


class TestDriftEigenvalues:
    def test_resonant_split(self):
        lam = nopo.drift_eigenvalues(_symmetric_cavity(), PumpParams(epsilon=0.4))
        real = np.sort(lam.real)
        np.testing.assert_allclose(real, [-1.4, -0.6], atol=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, 0.4, 0.9, 1.2])
    @pytest.mark.parametrize("delta_norm", [-2.0, -0.3, 0.0, 0.7, 3.0])
    @pytest.mark.parametrize("phi_p", [0.0, 1.1, -2.5])
    def test_detuned_closed_form(self, epsilon, delta_norm, phi_p):
        """-(gamma - i*Delta) +- epsilon*gamma, whatever the pump phase."""
        lam = nopo.drift_eigenvalues(_symmetric_cavity(delta_norm), PumpParams(epsilon=epsilon, phi_p=phi_p))
        expected = -(1.0 - 1j * delta_norm) + np.array([-epsilon, epsilon])
        lam = lam[np.argsort(lam.real)]
        np.testing.assert_allclose(lam.real, expected.real, atol=1e-12)
        np.testing.assert_allclose(lam.imag, expected.imag, atol=1e-12)

    def test_above_threshold_has_growing_mode(self):
        lam = nopo.drift_eigenvalues(_symmetric_cavity(), PumpParams(epsilon=1.2))
        assert np.max(lam.real) > 0


class TestIntegrateDynamics:
    def test_transient_converges_to_steady_state(self):
        # At epsilon <= 0.6 the slow mode decays by e^{-20} over t = 50/gamma,
        # far below the 1e-6 comparison tolerance.
        for epsilon in (0.2, 0.6):
            cavity = _symmetric_cavity(delta=0.5)
            pump = PumpParams(epsilon=epsilon, phi_p=0.4)
            seed = SeedParams(alpha_cl=1.0, seed_phase=0.2)
            traj = nopo.integrate_dynamics(cavity, pump, seed, t_end=50.0, dt=0.02)
            got = nopo.output_fields(cavity, traj)
            ref = nopo.steady_state_linear_solve(cavity, pump, seed)
            scale = max(abs(ref.a_cls), abs(ref.a_cli))
            assert abs(got.a_cls - ref.a_cls) / scale < 1e-6
            assert abs(got.a_cli - ref.a_cli) / scale < 1e-6

    def test_steady_state_is_a_fixed_point(self):
        cavity = _symmetric_cavity(delta=-1.0)
        pump = PumpParams(epsilon=0.9, phi_p=-0.3)
        seed = SeedParams(alpha_cl=1.0, seed_phase=0.6)
        ref = nopo.steady_state_closed_form(cavity, pump, seed)
        out = math.sqrt(2.0 * cavity.gamma_out)
        traj = nopo.integrate_dynamics(
            cavity, pump, seed, t_end=50.0, dt=0.02,
            initial=(ref.a_cls / out, ref.a_cli / out),
        )
        got = nopo.output_fields(cavity, traj)
        scale = max(abs(ref.a_cls), abs(ref.a_cli))
        assert abs(got.a_cls - ref.a_cls) / scale < 1e-9

    def test_above_threshold_diverges_with_diagnostic(self):
        with pytest.raises(AboveThresholdError, match="eigenvalue"):
            nopo.integrate_dynamics(
                _symmetric_cavity(),
                PumpParams(epsilon=1.2),
                SeedParams(alpha_cl=1.0),
                t_end=200.0,
                dt=0.05,
            )

    def test_unstable_step_below_threshold_is_numerical(self):
        # dt * delta = 3 lies past RK4's stability limit on the imaginary axis (~2.83).
        with pytest.raises(NumericalError, match="dt_over_gamma"):
            nopo.integrate_dynamics(
                _symmetric_cavity(delta=60.0), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0),
                t_end=50.0, dt=0.05,
            )

    def test_step_size_guard(self):
        with pytest.raises(ValueError, match="dt"):
            nopo.integrate_dynamics(
                _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0),
                t_end=10.0, dt=0.5,
            )

    @pytest.mark.parametrize("t_end, dt", [(1e9, 0.05), (1e308, 1e-300)])
    def test_step_count_past_the_sample_budget_is_refused(self, t_end, dt):
        with pytest.raises(ConfigError, match="sample budget"):
            nopo.integrate_dynamics(
                _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0), t_end=t_end, dt=dt
            )

    def test_trajectory_shape(self):
        traj = nopo.integrate_dynamics(
            _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0),
            t_end=1.0, dt=0.05,
        )
        assert traj.times.size == traj.alpha_s.size == traj.alpha_i.size == 21
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)


class TestTrajectory:
    """A trajectory holds its step; the sample times are derived from it."""

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_refuses_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt"):
            nopo.Trajectory(dt=dt, alpha_s=np.zeros(3, complex), alpha_i=np.zeros(3, complex))

    def test_refuses_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            nopo.Trajectory(dt=0.1, alpha_s=np.zeros(3, complex), alpha_i=np.zeros(4, complex))

    def test_times_are_the_sample_index_times_the_step(self):
        dt = 0.05 / 3.0
        traj = nopo.integrate_dynamics(
            _symmetric_cavity(), PumpParams(epsilon=0.5), SeedParams(alpha_cl=1.0), t_end=1.0, dt=dt
        )
        assert traj.dt == dt
        assert traj.times.tobytes() == (np.arange(traj.alpha_s.size) * dt).tobytes()


class TestOracleAgreement:
    """The three steady-state computations over random parameters."""

    @settings(max_examples=150, deadline=None)
    @given(
        epsilon=st.floats(0.0, 0.95),
        delta_norm=st.floats(-3.0, 3.0),
        gamma_in=st.floats(0.1, 1.0),
        gamma_out=st.floats(0.1, 1.0),
        phi_p=st.floats(-math.pi, math.pi),
        seed_phase=st.floats(-math.pi, math.pi),
    )
    def test_linear_solve_closed_form_and_rk4_agree(self, epsilon, delta_norm, gamma_in, gamma_out, phi_p, seed_phase):
        gamma = gamma_in + gamma_out
        cavity = CavityParams(gamma_in=gamma_in, gamma_out=gamma_out, delta=delta_norm * gamma)
        pump = PumpParams(epsilon=epsilon, phi_p=phi_p)
        seed = SeedParams(alpha_cl=1.0, seed_phase=seed_phase)
        lin = nopo.steady_state_linear_solve(cavity, pump, seed)
        closed = nopo.steady_state_closed_form(cavity, pump, seed)
        # From rest, so that RK4 is seeded by neither solver; the slowest mode
        # decays as exp(-gamma (1 - epsilon) t), by e^-30 over t_end.
        traj = nopo.integrate_dynamics(cavity, pump, seed, t_end=30.0 / (gamma * (1.0 - epsilon)), dt=0.05 / gamma)
        rk4 = nopo.output_fields(cavity, traj)
        scale = max(abs(lin.a_cls), abs(lin.a_cli))
        for a, b in ((lin, closed), (lin, rk4), (closed, rk4)):
            assert abs(a.a_cls - b.a_cls) <= 1e-6 * scale
            assert abs(a.a_cli - b.a_cli) <= 1e-6 * scale


class TestThresholdGuards:
    def test_steady_state_rejects_at_threshold(self):
        for fn in (nopo.steady_state_linear_solve, nopo.steady_state_closed_form):
            with pytest.raises(AboveThresholdError):
                fn(_symmetric_cavity(), PumpParams(epsilon=1.0), SeedParams(alpha_cl=1.0))


def _reference_rk4(a_s0, a_i0, g, gamma, delta, drive, dt, n_steps, limit):
    """Per-step RK4 on the cavity equations, the kernel's reference."""
    cs = gamma - 1j * delta
    ci = gamma + 1j * delta
    alpha_s = np.empty(n_steps + 1, np.complex128)
    alpha_i = np.empty(n_steps + 1, np.complex128)
    alpha_s[0] = a_s0
    alpha_i[0] = a_i0
    s = a_s0 + 0j
    i_ = a_i0 + 0j
    for k in range(n_steps):
        k1s = -cs * s + g * i_.conjugate() + drive
        k1i = -ci * i_ + g * s.conjugate()
        s2 = s + 0.5 * dt * k1s
        i2 = i_ + 0.5 * dt * k1i
        k2s = -cs * s2 + g * i2.conjugate() + drive
        k2i = -ci * i2 + g * s2.conjugate()
        s3 = s + 0.5 * dt * k2s
        i3 = i_ + 0.5 * dt * k2i
        k3s = -cs * s3 + g * i3.conjugate() + drive
        k3i = -ci * i3 + g * s3.conjugate()
        s4 = s + dt * k3s
        i4 = i_ + dt * k3i
        k4s = -cs * s4 + g * i4.conjugate() + drive
        k4i = -ci * i4 + g * s4.conjugate()
        s = s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        i_ = i_ + dt * (k1i + 2.0 * k2i + 2.0 * k3i + k4i) / 6.0
        alpha_s[k + 1] = s
        alpha_i[k + 1] = i_
        if abs(s) > limit or abs(i_) > limit:
            return alpha_s, alpha_i, k + 1
    return alpha_s, alpha_i, -1


def _reference_doubling_rk4(a_s0, a_i0, g, gamma, delta, drive, dt, n_steps, limit):
    """The doubling kernel with its 2x2 algebra as numpy einsum calls, the
    scalar kernel's bit-for-bit reference."""
    ha = dt * np.array([[-(gamma - 1j * delta), g], [np.conj(g), -(gamma - 1j * delta)]])
    ha2 = np.einsum("ij,jk", ha, ha)
    ha3 = np.einsum("ij,jk", ha2, ha)
    eye = np.eye(2)
    p = eye + ha + ha2 / 2.0 + ha3 / 6.0 + np.einsum("ij,jk", ha2, ha2) / 24.0
    q = dt * drive * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0)[:, 0]
    n = n_steps + 1
    alpha_s = np.empty(n, np.complex128)
    alpha_c = np.empty(n, np.complex128)  # alpha_i^*
    alpha_s[0] = a_s0
    alpha_c[0] = np.conj(a_i0)
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n:
            k = min(m, n - m)
            (p00, p01), (p10, p11) = p.tolist()
            s, c = alpha_s[:k], alpha_c[:k]
            alpha_s[m : m + k] = p00 * s + p01 * c + q[0]
            alpha_c[m : m + k] = p10 * s + p11 * c + q[1]
            q = np.einsum("ij,j", p, q) + q
            p = np.einsum("ij,jk", p, p)
            m *= 2
        alpha_i = alpha_c.conj()
        bad = ~((np.abs(alpha_s[1:]) <= limit) & (np.abs(alpha_i[1:]) <= limit))
    hits = np.flatnonzero(bad)
    diverged = int(hits[0]) + 1 if hits.size else -1
    return alpha_s, alpha_i, diverged


def _peak_amplitude(args):
    """The largest |alpha| over steps 1..n of the reference trajectory, with no limit."""
    alpha_s, alpha_i, _ = _reference_doubling_rk4(*args[:-1], math.inf)
    return max(np.max(np.abs(alpha_s[1:])), np.max(np.abs(alpha_i[1:])))


def _assert_bits_match(args):
    got = kernels.cavity_rk4(*args)
    ref = _reference_doubling_rk4(*args)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2] == ref[2]


def _max_rel_gap(got, ref, upto):
    scale = max(np.max(np.abs(ref[0][:upto])), np.max(np.abs(ref[1][:upto])))
    return max(np.max(np.abs(got[i][:upto] - ref[i][:upto])) for i in (0, 1)) / scale


# Kernel arguments drawn as (epsilon, delta/gamma, pump phase, seed phase,
# dt*gamma, n_steps, start), at gamma = 2.
_KERNEL_DRAWS = dict(
    epsilon=st.floats(0.0, 0.99),
    delta_norm=st.floats(-3.0, 3.0),
    phi_p=st.floats(-math.pi, math.pi),
    seed_phase=st.floats(-math.pi, math.pi),
    dt_gamma=st.floats(1e-3, 0.1),
    n_steps=st.integers(1, 5000),
    start=st.sampled_from([(0j, 0j), (0.3 - 0.2j, -0.1 + 0.4j)]),
)

_BOUNDARY_DRAW = dict(
    epsilon=0.9, delta_norm=-1.0, phi_p=2.0, seed_phase=1.0, dt_gamma=0.02, start=(0.3 - 0.2j, -0.1 + 0.4j)
)


# One draw per path of the divergence scan, with the limit as a multiple of
# the peak |alpha|. On resonance from rest both amplitudes keep the phase
# pi/4, so every part is |alpha|/sqrt(2) and a limit of 1.5 peaks passes the
# bound on the parts; a limit of 1.2 peaks fails it with no index, 0.9 with one.
_AT_45_DEGREES = dict(
    epsilon=0.5, delta_norm=0.0, phi_p=math.pi / 2, seed_phase=math.pi / 4, dt_gamma=0.02, n_steps=300, start=(0j, 0j)
)
_SCAN_CASES = {"bound": 1.5, "exact, none": 1.2, "exact, index": 0.9}


def _kernel_args(epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start):
    gamma = 2.0
    return (
        *start,
        epsilon * gamma * cmath.exp(1j * phi_p),
        gamma,
        delta_norm * gamma,
        math.sqrt(2.0) * cmath.exp(1j * seed_phase),
        dt_gamma / gamma,
        n_steps,
        1e6,
    )


class TestCavityRk4Kernel:
    """The doubling kernel against the per-step loop it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(**_KERNEL_DRAWS)
    # The doubling's boundaries: one level, a partial last level, and either
    # side of a power of two.
    @example(**_BOUNDARY_DRAW, n_steps=1)
    @example(**_BOUNDARY_DRAW, n_steps=2)
    @example(**_BOUNDARY_DRAW, n_steps=3)
    @example(**_BOUNDARY_DRAW, n_steps=2047)
    @example(**_BOUNDARY_DRAW, n_steps=2048)
    @example(**_BOUNDARY_DRAW, n_steps=2049)
    def test_matches_per_step_loop(self, epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start):
        args = _kernel_args(epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start)
        got = kernels.cavity_rk4(*args)
        ref = _reference_rk4(*args)
        assert got[0].shape == got[1].shape == (n_steps + 1,)
        assert got[2] == ref[2] == -1
        assert _max_rel_gap(got, ref, n_steps + 1) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(**{**_KERNEL_DRAWS, "epsilon": st.floats(0.0, 1.5)})
    def test_bits_match_the_einsum_kernel(self, epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start):
        # Up to epsilon = 1.5, so that divergence indices are drawn too.
        _assert_bits_match(_kernel_args(epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start))

    @settings(max_examples=100, deadline=None)
    @given(**_KERNEL_DRAWS, peaks=st.floats(0.4, 1.6))
    @example(**_AT_45_DEGREES, peaks=_SCAN_CASES["bound"])
    @example(**_AT_45_DEGREES, peaks=_SCAN_CASES["exact, none"])
    @example(**_AT_45_DEGREES, peaks=_SCAN_CASES["exact, index"])
    def test_divergence_scan_matches_the_einsum_kernel(
        self, epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start, peaks
    ):
        # The limit near the peak |alpha| takes the kernel down both paths:
        # the bound on the parts, and the exact scan, with and without an index.
        args = _kernel_args(epsilon, delta_norm, phi_p, seed_phase, dt_gamma, n_steps, start)
        _assert_bits_match((*args[:-1], peaks * _peak_amplitude(args)))

    @pytest.mark.parametrize("case", _SCAN_CASES)
    def test_scan_examples_take_their_paths(self, case):
        args = _kernel_args(**_AT_45_DEGREES)
        limit = _SCAN_CASES[case] * _peak_amplitude(args)
        alpha_s, alpha_i, diverged = _reference_doubling_rk4(*args[:-1], limit)
        largest_part = max(np.max(np.abs(a[1:].view(np.float64))) for a in (alpha_s, alpha_i))
        got = ("bound" if largest_part <= 0.5 * limit else "exact, none") if diverged < 0 else "exact, index"
        assert got == case

    @pytest.mark.parametrize("drive", [0j, 1.0])
    @pytest.mark.parametrize("phi_p", [0.0, math.pi / 2, math.pi])
    def test_signed_zeros_match_the_einsum_kernel(self, phi_p, drive):
        # Unit or zero inputs leave exact zeros in P, q and the trajectory
        # (a zero drive makes the whole trajectory zero), and the bytes
        # compare their signs too.
        for epsilon in (0.0, 0.5, 0.9):
            for delta in (0.0, -0.0, 0.7, -0.7):
                _assert_bits_match((0j, 0j, epsilon * cmath.exp(1j * phi_p), 1.0, delta, drive, 0.05, 300, 1e6))

    def test_defective_step_map(self):
        # |g| = |delta|: the drift matrix (and so the step map) is not diagonalizable.
        args = (0j, 0j, 0.7, 1.0, 0.7, 1.0, 0.05, 3000, 1e6)
        got = kernels.cavity_rk4(*args)
        ref = _reference_rk4(*args)
        assert got[2] == ref[2] == -1
        assert _max_rel_gap(got, ref, 3001) <= 1e-12
        _assert_bits_match(args)

    @pytest.mark.parametrize("epsilon", [1.2, 1.5, 3.0])
    def test_above_threshold_first_exceedance(self, epsilon):
        args = (0j, 0j, epsilon, 1.0, 0.0, 1.0, 0.05, 4000, 1e6)
        got = kernels.cavity_rk4(*args)
        ref = _reference_rk4(*args)
        assert ref[2] > 0
        assert got[2] == ref[2]
        assert _max_rel_gap(got, ref, ref[2] + 1) <= 1e-12
        _assert_bits_match(args)

    def test_overflow_raises_no_warning(self):
        # Long enough above threshold that the tail overflows to inf/nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha_s, _, diverged = kernels.cavity_rk4(0j, 0j, 3.0, 1.0, 0.0, 1.0, 0.05, 50000, 1e6)
        assert 0 < diverged < alpha_s.size
        assert not np.all(np.isfinite(alpha_s))
