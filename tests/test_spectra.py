"""Unit tests for two-mode squeezing spectra, phase-noise mixing and entanglement checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprlock.model import DetectionParams, PhysicsDomainError, db
from eprlock import spectra

# Frozen values at the epsilon = 0.8, eta = 0.89 operating point, zero frequency:
#   squeezed:      1 - 0.89*3.2/3.24  = 0.12098765432098772
#   anti-squeezed: 1 + 0.89*3.2/0.04 = 72.2
VM_OP = 1.0 - 0.89 * 3.2 / 3.24
VP_OP = 1.0 + 0.89 * 3.2 / 0.04


class TestTwoModeVariance:
    def test_operating_point_values(self):
        assert spectra.two_mode_variance(0.8, 0.89, 0.0, "minus") == pytest.approx(VM_OP, abs=1e-15)
        assert spectra.two_mode_variance(0.8, 0.89, 0.0, "plus") == pytest.approx(VP_OP, abs=1e-12)
        assert db(spectra.two_mode_variance(0.8, 0.89, 0.0, "minus")) == pytest.approx(-9.17, abs=0.01)

    def test_no_pump_is_shot_noise(self):
        assert spectra.two_mode_variance(0.0, 0.89, 0.3, "minus") == 1.0
        assert spectra.two_mode_variance(0.0, 0.89, 0.3, "plus") == 1.0

    def test_zero_efficiency_is_shot_noise(self):
        assert spectra.two_mode_variance(0.8, 0.0, 0.0, "minus") == 1.0

    def test_lorentzian_rolloff(self):
        vm = spectra.two_mode_variance(0.8, 1.0, 100.0, "minus")
        assert vm == pytest.approx(1.0, abs=1e-3)

    def test_vectorized_over_frequency(self):
        omega = np.linspace(0.0, 5.0, 11)
        vm = spectra.two_mode_variance(0.8, 0.89, omega, "minus")
        assert vm.shape == omega.shape
        assert np.all(np.diff(vm) > 0)  # squeezing degrades away from DC

    # On resonance only: off resonance the product exceeds 1 (ROADMAP item 15).
    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.0, 0.95), w=st.floats(0.0, 10.0))
    def test_minimum_uncertainty_product_at_unit_efficiency(self, eps, w):
        vm = spectra.two_mode_variance(eps, 1.0, w, "minus")
        vp = spectra.two_mode_variance(eps, 1.0, w, "plus")
        assert abs(vm * vp - 1.0) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(PhysicsDomainError):
            spectra.two_mode_variance(1.0, 0.89, 0.0, "minus")
        with pytest.raises(PhysicsDomainError):
            spectra.two_mode_variance(0.5, 1.1, 0.0, "minus")
        with pytest.raises(ValueError):
            spectra.two_mode_variance(0.5, 0.9, 0.0, "sideways")


EPS_ARRAYS = hnp.arrays(
    np.float64, st.integers(1, 16), elements=st.floats(0.0, 1.0, exclude_max=True)
)
BAD_EPS = st.one_of(
    st.just(math.nan), st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=1.0)
)


class TestTwoModeVarianceBroadcast:
    @pytest.mark.parametrize("sign", spectra.SIGNS)
    @settings(max_examples=100, deadline=None)
    @given(eps=EPS_ARRAYS, eta=st.floats(0.0, 1.0), omega=st.floats(0.0, 1e3))
    def test_array_equals_scalar_calls(self, sign, eps, eta, omega):
        out = spectra.two_mode_variance(eps, eta, omega, sign)
        expected = [spectra.two_mode_variance(float(e), eta, omega, sign) for e in eps]
        assert out.shape == eps.shape
        np.testing.assert_array_equal(out, expected)

    @settings(max_examples=100, deadline=None)
    @given(eps=EPS_ARRAYS, bad=BAD_EPS, where=st.integers(0, 15))
    def test_any_invalid_element_rejected(self, eps, bad, where):
        eps[where % eps.size] = bad
        with pytest.raises(PhysicsDomainError):
            spectra.two_mode_variance(eps, 0.9, 0.0, "minus")

    @pytest.mark.parametrize("sign", spectra.SIGNS)
    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(0.0, 1.0, exclude_max=True), eta=st.floats(0.0, 1.0), omega=st.floats(0.0, 10.0),
    )
    # Points where a**2 in place of a*a (the first two), or omega**2 in place of
    # omega*omega (the third), changes the result.
    @example(eps=0.4911116862136464, eta=0.605476144446373, omega=0.53592215529365)
    @example(eps=0.8851302346977444, eta=0.9937393456237944, omega=0.5562949026985631)
    @example(eps=0.46199653982997435, eta=0.8477859049286439, omega=2.9999992916061924)
    def test_scalar_path_has_the_array_paths_bits(self, sign, eps, eta, omega):
        """Float arguments take the scalar branch; 0-d arrays and ``out`` take
        the array path. The two must agree bit for bit, at +-omega."""
        for w in (omega, -omega):
            scalar = spectra.two_mode_variance(eps, eta, w, sign)
            assert type(scalar) is float
            array = spectra.two_mode_variance(np.array(eps), eta, np.array(w), sign)
            into = spectra.two_mode_variance(eps, eta, np.array([w]), sign, out=np.empty(1))
            assert scalar.hex() == array.hex() == float(into[0]).hex()

    @settings(max_examples=100, deadline=None)
    @given(bad=BAD_EPS)
    def test_invalid_scalar_rejected(self, bad):
        with pytest.raises(PhysicsDomainError):
            spectra.two_mode_variance(bad, 0.9, 0.0, "minus")


class TestOrthogonalVariance:
    def test_pair_swap(self):
        assert spectra.orthogonal_variance(VP_OP, VM_OP, "plus") == VM_OP
        assert spectra.orthogonal_variance(VP_OP, VM_OP, "minus") == VP_OP


class TestPhaseNoiseVariance:
    def test_zero_noise_is_identity(self):
        assert spectra.phase_noise_variance(VM_OP, VP_OP, 0.0) == VM_OP
        assert spectra.phase_noise_variance(VM_OP, VP_OP, 0.0, "exact-gaussian") == VM_OP

    def test_small_angle_formula(self):
        sigma = 0.01
        expected = VM_OP * (1.0 - sigma**2) + VP_OP * sigma**2
        assert spectra.phase_noise_variance(VM_OP, VP_OP, sigma) == pytest.approx(expected, rel=1e-14)

    def test_modes_agree_to_fourth_order(self):
        sigma = 0.01
        small = spectra.phase_noise_variance(VM_OP, VP_OP, sigma, "small-angle")
        exact = spectra.phase_noise_variance(VM_OP, VP_OP, sigma, "exact-gaussian")
        assert abs(small - exact) < 1e-5
        # the gap scales like sigma^4 times the variance contrast
        assert abs(small - exact) == pytest.approx(
            (VP_OP - VM_OP) * (sigma**2 - 0.5 * (1.0 - math.exp(-2.0 * sigma**2))), rel=1e-9
        )

    def test_large_noise_saturates_to_average(self):
        mixed = spectra.phase_noise_variance(VM_OP, VP_OP, 10.0, "exact-gaussian")
        assert mixed == pytest.approx(0.5 * (VM_OP + VP_OP), rel=1e-6)

    def test_domain_checks(self):
        with pytest.raises(PhysicsDomainError):
            spectra.phase_noise_variance(VM_OP, VP_OP, -0.01)
        with pytest.raises(ValueError):
            spectra.phase_noise_variance(VM_OP, VP_OP, 0.01, "bogus")


class TestDuanSimon:
    def test_operating_point(self):
        result = spectra.duan_simon(VM_OP, VM_OP)
        assert result.total == pytest.approx(2.0 * VM_OP, abs=1e-14)
        assert result.total == pytest.approx(0.242, abs=1e-3)
        assert result.entangled

    def test_separable_boundary(self):
        assert not spectra.duan_simon(1.0, 1.0).entangled
        assert spectra.duan_simon(0.999, 0.999).entangled

    def test_rejects_nonpositive(self):
        with pytest.raises(PhysicsDomainError):
            spectra.duan_simon(0.0, 1.0)

    # eta * eps is 0 or at least 1e-9, so that V- < 1 survives the rounding of 1 - V-.
    @settings(max_examples=200, deadline=None)
    @given(
        eta=st.just(0.0) | st.floats(3.2e-5, 1.0),
        eps=st.just(0.0) | st.floats(3.2e-5, 0.95),
        w=st.floats(0.0, 10.0),
    )
    def test_sum_is_twice_the_squeezed_variance(self, eta, eps, w):
        vm = spectra.two_mode_variance(eps, eta, w, "minus")
        vp = spectra.two_mode_variance(eps, eta, w, "plus")
        result = spectra.duan_simon(vm, spectra.orthogonal_variance(vp, vm, "plus"))
        assert result.total == 2.0 * vm
        assert result.entangled == (eta * eps > 0)


def _per_arm_weighted_variance(eps, eta_s, eta_i, omega, sign):
    """Reference per-arm loss model, independent of DetectionParams.eta: each
    arm mixes with vacuum on its own, then the idler is weighted by g."""
    v_minus = spectra.two_mode_variance(eps, 1.0, omega, "minus")
    v_plus = spectra.two_mode_variance(eps, 1.0, omega, "plus")
    v, c = 0.5 * (v_plus + v_minus), 0.5 * (v_plus - v_minus)
    v_s, v_i = 1.0 + eta_s * (v - 1.0), 1.0 + eta_i * (v - 1.0)
    c_lossy = math.sqrt(eta_s * eta_i) * c
    # (q_s +- g q_i)/sqrt(1 + g^2) = cos(t) q_s +- sin(t) q_i with tan(t) = g:
    # finite even where g^2 overflows (an idler arm of a few 1e-308).
    t = math.atan(DetectionParams(eta_s=eta_s, eta_i=eta_i).idler_weight)
    s = 1.0 if sign == "plus" else -1.0
    return math.cos(t) ** 2 * v_s + math.sin(t) ** 2 * v_i + s * 2.0 * math.cos(t) * math.sin(t) * c_lossy


ARM = st.floats(0.0, 1.0, exclude_min=True)


class TestOneLossModel:
    @pytest.mark.parametrize("sign", spectra.SIGNS)
    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.0, 0.99), omega=st.floats(0.0, 100.0), eta_s=ARM, eta_i=ARM)
    def test_weighted_per_arm_loss_is_the_symmetric_formula(self, sign, eps, omega, eta_s, eta_i):
        eta = DetectionParams(eta_s=eta_s, eta_i=eta_i).eta
        expected = spectra.two_mode_variance(eps, eta, omega, sign)
        assert _per_arm_weighted_variance(eps, eta_s, eta_i, omega, sign) == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )

    def test_unit_weight_leaks_antisqueezing_at_unequal_arms(self):
        # The unweighted difference at 0.99/0.6 is not squeezed at all.
        eta_s, eta_i = 0.99, 0.6
        vm = spectra.two_mode_variance(0.8, 1.0, 0.0, "minus")
        vp = spectra.two_mode_variance(0.8, 1.0, 0.0, "plus")
        v, c = 0.5 * (vp + vm), 0.5 * (vp - vm)
        unweighted = (2.0 + (eta_s + eta_i) * (v - 1.0) - 2.0 * math.sqrt(eta_s * eta_i) * c) / 2.0
        assert unweighted > 1.0
        assert _per_arm_weighted_variance(0.8, eta_s, eta_i, 0.0, "minus") < 0.3


class TestOptimalEpsilon:
    def test_realistic_noise_optimum(self):
        eps_star, v_star = spectra.optimal_epsilon(0.89, 0.01)
        assert 0.7 <= eps_star <= 0.9
        assert v_star < spectra.two_mode_variance(0.99, 0.89, 0.0, "minus") + 1.0

    def test_large_noise_pushes_optimum_down(self):
        eps_lo, _ = spectra.optimal_epsilon(0.89, 0.1)
        eps_hi, _ = spectra.optimal_epsilon(0.89, 0.01)
        assert eps_lo < 0.6 < eps_hi

    def test_no_noise_prefers_maximum_pump(self):
        eps_star, _ = spectra.optimal_epsilon(0.89, 0.0)
        assert eps_star == pytest.approx(0.99, abs=1e-4)

    @pytest.mark.parametrize("mode", spectra.PHASE_NOISE_MODES)
    def test_agrees_with_scipy_bounded_search(self, mode):
        """scipy is the oracle here only; the package does not import it."""
        from scipy.optimize import minimize_scalar

        for eta in (0.1, 0.5, 0.89, 1.0):
            for sigma in (0.0, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0):
                for omega in (0.0, 0.5):

                    def objective(eps):
                        vm = spectra.two_mode_variance(eps, eta, omega, "minus")
                        vp = spectra.two_mode_variance(eps, eta, omega, "plus")
                        return spectra.phase_noise_variance(vm, vp, sigma, mode)

                    ref = minimize_scalar(objective, bounds=(0.0, 0.99), method="bounded", options={"xatol": 1e-8})
                    eps_star, v_star = spectra.optimal_epsilon(eta, sigma, omega, mode)
                    assert eps_star == pytest.approx(ref.x, abs=1e-6), (eta, sigma, omega)
                    assert v_star == pytest.approx(ref.fun, abs=1e-6), (eta, sigma, omega)

    def test_domain_checks(self):
        with pytest.raises(PhysicsDomainError):
            spectra.optimal_epsilon(1.2, 0.01)
        with pytest.raises(PhysicsDomainError):
            spectra.optimal_epsilon(0.9, -0.01)
