import math

import numpy as np
import pytest

from steerlab.coherent import Parity, parity_probabilities
from steerlab.uncertainty import (
    ENTROPIC_BOUND,
    MIN_ENTROPY_BOUND,
    GaussianBeamProfile,
    GriddedWavefunction,
    differential_entropy,
    dimensional_variance_product,
    entropic_sum_check,
    fine_grained_sum,
    fourier_to_wavevector,
    gaussian_wavefunction,
    min_entropy_bound_check,
    profile_wavefunction,
    superposed_gaussians,
    variance_product,
)


def gaussian_entropy(std):
    return 0.5 * math.log(2 * math.pi * math.e * std**2)


class TestVarianceProduct:
    def test_minimum_uncertainty_saturates(self):
        for sigma_x in [0.25, 0.5, 1.0, 2.0, 4.0]:
            assert variance_product(GaussianBeamProfile(sigma_x=sigma_x)) == 0.25

    def test_broadened_momentum_scales(self):
        profile = GaussianBeamProfile(sigma_x=1.0, sigma_p=1.0)  # doubled vs minimum
        assert variance_product(profile) == pytest.approx(1.0, abs=1e-15)

    def test_dimensional_variant(self):
        profile = GaussianBeamProfile(sigma_x=0.7)
        lambdabar = 0.3
        assert dimensional_variance_product(profile, lambdabar) == pytest.approx(
            0.25 * lambdabar**2, abs=1e-15
        )

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            GaussianBeamProfile(sigma_x=-1.0)
        with pytest.raises(ValueError):
            GaussianBeamProfile(sigma_x=1.0, sigma_p=0.0)


class TestFourier:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_gaussian_pair_width(self, s):
        psi = gaussian_wavefunction(sigma_x=s)
        phi = fourier_to_wavevector(psi)
        k = phi.x
        rho = phi.density * phi.dx
        mean = float(np.sum(k * rho))
        sigma_k = math.sqrt(float(np.sum((k - mean) ** 2 * rho)))
        assert abs(sigma_k - 1.0 / (2.0 * s)) < 1e-6

    def test_translation_leaves_spectral_density(self):
        phi0 = fourier_to_wavevector(gaussian_wavefunction(x0=0.0))
        phi2 = fourier_to_wavevector(gaussian_wavefunction(x0=2.0))
        assert np.max(np.abs(phi0.density - phi2.density)) < 1e-8

    def test_double_transform_reflects(self):
        # zero-centered grid: the double transform lands on the same grid
        # and grid point m mirrors point n - m through the origin
        psi = gaussian_wavefunction(x0=0.0, k0=0.7)
        twice = fourier_to_wavevector(fourier_to_wavevector(psi))
        rho = psi.density
        rho2 = twice.density
        mirrored = rho[1:][::-1]
        assert np.max(np.abs(rho2[1:] - mirrored)) < 1e-8

    def test_parseval(self):
        for s in [0.5, 1.0, 3.0]:
            psi = gaussian_wavefunction(sigma_x=s, x0=0.5, k0=-1.0)
            phi = fourier_to_wavevector(psi)
            norm_x = float(np.sum(psi.density) * psi.dx)
            norm_k = float(np.sum(phi.density) * phi.dx)
            assert abs(norm_x - norm_k) < 1e-8

    def test_unnormalized_input_rejected(self):
        psi = gaussian_wavefunction()
        with pytest.raises(ValueError):
            GriddedWavefunction(samples=psi.samples * 2.0, x_min=psi.x_min, dx=psi.dx)

    def test_coverage_invariant_enforced(self):
        # a grid only 3 sigma wide must be rejected
        n = 512
        dx = 6.0 / n
        x = -3.0 + dx * np.arange(n)
        samples = (2 * math.pi) ** -0.25 * np.exp(-(x**2) / 4.0)
        samples /= math.sqrt(float(np.sum(np.abs(samples) ** 2) * dx))
        with pytest.raises(ValueError):
            GriddedWavefunction(samples=samples, x_min=float(x[0]), dx=dx)


class TestDifferentialEntropy:
    def test_unit_variance_gaussian(self):
        h = differential_entropy(gaussian_wavefunction(sigma_x=1.0))
        assert abs(h - 1.4189385332046727) < 1e-4

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scaled_gaussians(self, s):
        h = differential_entropy(gaussian_wavefunction(sigma_x=s))
        assert abs(h - gaussian_entropy(s)) < 1e-4

    def test_grid_refinement_stable(self):
        coarse = differential_entropy(gaussian_wavefunction(n=4096))
        fine = differential_entropy(gaussian_wavefunction(n=8192))
        assert abs(coarse - fine) < 1e-6


class TestEntropicSum:
    def test_minimum_uncertainty_saturates(self):
        result = entropic_sum_check(gaussian_wavefunction())
        assert abs(result.sum - ENTROPIC_BOUND) < 1e-4
        assert result.satisfied

    def test_scale_invariance_of_saturating_family(self):
        result = entropic_sum_check(gaussian_wavefunction(sigma_x=2.0))
        assert abs(result.sum - ENTROPIC_BOUND) < 1e-4

    @pytest.mark.parametrize("sigma_x", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("x0", [-3.0, 0.0, 3.0])
    @pytest.mark.parametrize("k0", [-3.0, 0.0, 3.0])
    def test_saturation_across_profile_family(self, sigma_x, x0, k0):
        profile = GaussianBeamProfile(x0=x0, k0=k0, sigma_x=sigma_x)
        result = entropic_sum_check(profile_wavefunction(profile))
        assert abs(result.sum - ENTROPIC_BOUND) < 1e-4
        # entropic relation implies the variance bound on this family
        assert variance_product(profile) >= 0.25 - 1e-12

    def test_two_gaussian_superposition_exceeds_bound(self):
        psi = superposed_gaussians(centers=(-3.0, 3.0), weights=(0.5, 0.5))
        result = entropic_sum_check(psi)
        assert result.sum > ENTROPIC_BOUND
        assert result.satisfied


class TestFineGrained:
    def test_degenerate_point_flagged(self):
        result = fine_grained_sum(0, 0, 0.5, Parity.EVEN)
        assert result.value == pytest.approx(1.0, abs=1e-15)
        assert result.excluded_region

    def test_vacuum_with_displacement_two(self):
        result = fine_grained_sum(0, 2.0, 0.5, Parity.EVEN)
        assert result.value == pytest.approx((1 + math.exp(-8)) / 2, abs=1e-12)
        assert result.value == pytest.approx(0.5001677, abs=1e-7)
        assert not result.excluded_region

    def test_outcome_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            state = complex(*rng.normal(size=2))
            beta = complex(*rng.normal(size=2))
            p = float(rng.uniform())
            even = fine_grained_sum(state, beta, p, Parity.EVEN)
            odd = fine_grained_sum(state, beta, p, Parity.ODD)
            assert abs(even.value + odd.value - 1.0) < 1e-12

    def test_weights_branches_by_p_beta(self):
        # p_beta weights the parity displaced by +beta, i.e. of |state - beta>.
        state, beta, p = 0.3 - 0.4j, 0.7 + 0.2j, 0.3
        minus = parity_probabilities(state - beta).p_odd
        plus = parity_probabilities(state + beta).p_odd
        result = fine_grained_sum(state, beta, p, Parity.ODD)
        assert result.value == p * minus + (1.0 - p) * plus
        assert fine_grained_sum(state, beta, 1.0, Parity.ODD).value == minus
        assert fine_grained_sum(state, beta, 0.0, Parity.ODD).value == plus

    @pytest.mark.parametrize("p_beta", [-0.1, 1.5, float("nan")])
    def test_p_beta_outside_unit_interval_rejected(self, p_beta):
        with pytest.raises(ValueError):
            fine_grained_sum(0, 1.0, p_beta, Parity.EVEN)

    @pytest.mark.parametrize("outcome", ["even", "odd", None, True])
    def test_outcome_must_be_a_parity(self, outcome):
        # Parity's prob() reads anything but Parity.EVEN as odd, so an
        # unchecked "even" returned the odd value 0.4323.
        with pytest.raises(ValueError):
            fine_grained_sum(0, 1.0, 0.5, outcome)


class TestMinEntropy:
    def test_saturation_by_construction(self):
        # both displaced parities equal (3/4, 1/4) when |state -+ beta|^2
        # equals ln(2)/2
        beta = math.sqrt(math.log(2.0) / 2.0)
        result = min_entropy_bound_check(0.0, beta)
        assert abs(result.sum - MIN_ENTROPY_BOUND) < 1e-12
        assert result.satisfied

    def test_degenerate_point(self):
        result = min_entropy_bound_check(0.0, 0.0)
        assert result.sum == 0.0
        assert not result.satisfied
        assert result.excluded_region

    def test_unit_displacement_closed_form(self):
        result = min_entropy_bound_check(0.0, 1.0)
        expected = -math.log2((1 + math.exp(-2)) / 2)
        assert result.h_inf_plus == pytest.approx(expected, abs=1e-12)
        assert result.h_inf_minus == pytest.approx(expected, abs=1e-12)
        assert result.sum == pytest.approx(2 * expected, abs=1e-12)
        # verdict is reported, not asserted; here the sum happens to be above
        assert result.satisfied
        assert not result.excluded_region

    def test_bound_value(self):
        assert MIN_ENTROPY_BOUND == pytest.approx(0.8300750, abs=1e-7)
