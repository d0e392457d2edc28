import math
from fractions import Fraction

import numpy as np
import pytest

from steerlab.coherent import (
    CutoffTooSmallError,
    Parity,
    ParityDistribution,
    batch_parity_is_odd,
    default_cutoff,
    displace,
    fock_probability,
    minimal_admissible_cutoff,
    parity_by_truncation,
    parity_probabilities,
    poisson_draw,
    sample_parity,
    _poisson_cutoff,
)


class TestDisplace:
    def test_vacuum_displaced(self):
        assert displace(0, 1) == 1

    def test_inverse_displacement_returns_vacuum(self):
        a = 0.7 - 1.3j
        assert displace(a, -a) == 0

    def test_componentwise_addition(self):
        assert displace(1 + 2j, 0.5 - 1j) == 1.5 + 1j

    def test_group_law_exact_on_dyadic_values(self):
        # float addition is exact on this dyadic grid, so composing
        # displacements must match the summed displacement bit for bit
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, g1, g2 = (
                complex(*(rng.integers(-512, 512, size=2) / 64.0)) for _ in range(3)
            )
            assert displace(displace(a, g1), g2) == displace(a, g1 + g2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            displace(bad, 0)
        with pytest.raises(ValueError):
            displace(0, bad)


class TestFockProbability:
    def test_vacuum_on_vacuum(self):
        assert fock_probability(0, 0) == 1.0

    def test_single_photon_unit_amplitude(self):
        # Rational-arithmetic oracle: lam^n / n! exactly, times exp(-lam).
        lam = Fraction(1)
        oracle = math.exp(-float(lam)) * float(lam**1 / math.factorial(1))
        assert fock_probability(1, 1.0) == pytest.approx(oracle, abs=1e-15)
        assert fock_probability(1, 1.0) == pytest.approx(0.36787944117144233, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5, 1 + 2j, 3.9j])
    def test_normalization(self, mu):
        total = sum(fock_probability(n, mu) for n in range(default_cutoff(mu) + 1))
        assert abs(total - 1.0) < 1e-12

    def test_rational_oracle_small_n(self):
        # lam = 9/4 is exactly representable; check the Poisson terms
        # against exact rational lam^n / n!.
        mu = 1.5
        lam = Fraction(9, 4)
        for n in range(25):
            oracle = math.exp(-float(lam)) * float(lam**n / math.factorial(n))
            assert fock_probability(n, mu) == pytest.approx(oracle, rel=1e-12)

    def test_log_space_consistency_across_switch(self):
        # n = 30 -> direct, n = 31 -> log space; the ratio must follow the
        # Poisson recursion p_{n+1} = p_n lam / (n+1).
        mu = 5.0
        p30 = fock_probability(30, mu)
        p31 = fock_probability(31, mu)
        assert p31 == pytest.approx(p30 * 25.0 / 31.0, rel=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            fock_probability(-1, 1.0)


class TestParityProbabilities:
    def test_vacuum_is_even(self):
        d = parity_probabilities(0)
        assert d.p_even == 1.0 and d.p_odd == 0.0

    def test_unit_amplitude(self):
        d = parity_probabilities(1.0)
        assert d.p_odd == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)
        assert d.p_odd == pytest.approx(0.4323323583816936, abs=1e-12)

    def test_large_amplitude_symmetry(self):
        d = parity_probabilities(5.0)
        assert abs(d.p_even - 0.5) < 1e-12

    def test_phase_invariance(self):
        mu = 1.3 + 0.4j
        ref = parity_probabilities(mu)
        for k in range(8):
            theta = 2 * math.pi * k / 8
            rotated = mu * complex(math.cos(theta), math.sin(theta))
            d = parity_probabilities(rotated)
            assert abs(d.p_even - ref.p_even) <= 1e-15
            assert abs(d.p_odd - ref.p_odd) <= 1e-15

    def test_distribution_normalized(self):
        for mu in [0, 0.5, 1 + 1j, 3.5, 4j]:
            d = parity_probabilities(mu)
            assert abs(d.p_even + d.p_odd - 1.0) < 1e-12

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            ParityDistribution(p_even=0.7, p_odd=0.7)
        with pytest.raises(ValueError):
            ParityDistribution(p_even=-0.1, p_odd=1.1)


class TestParityByTruncation:
    def test_vacuum_small_cutoff(self):
        t = parity_by_truncation(0, 4)
        assert t.p_even == 1.0 and t.p_odd == 0.0 and t.tail_bound == 0.0

    def test_matches_closed_form_at_unit_amplitude(self):
        d = parity_probabilities(1.0)
        t = parity_by_truncation(1.0, 40)
        assert abs(d.p_even - t.p_even) < 1e-10
        assert abs(d.p_odd - t.p_odd) < 1e-10

    def test_cutoff_too_small_reports_minimum(self):
        with pytest.raises(CutoffTooSmallError) as exc:
            parity_by_truncation(4.0, 4)
        assert exc.value.min_cutoff > 4
        # the reported minimum must itself be admissible
        parity_by_truncation(4.0, exc.value.min_cutoff)

    def test_oracle_equivalence_grid(self):
        for re in np.linspace(-2.5, 2.5, 6):
            for im in np.linspace(-2.5, 2.5, 6):
                mu = complex(re, im)
                d = parity_probabilities(mu)
                t = parity_by_truncation(mu, default_cutoff(mu))
                assert abs(d.p_even - t.p_even) <= 1e-10
                assert abs(d.p_odd - t.p_odd) <= 1e-10

    def test_shared_cutoff_matches_the_sampler_formula_on_numpy_means(self):
        # batch_parity_is_odd used to evaluate the formula inline on the
        # numpy means it tabulates; the shared helper takes Python floats.
        lams = np.concatenate([np.linspace(0.0, 50.0, 501), np.geomspace(1e-9, 1e7, 400)])
        for lam in lams:
            inline = math.ceil(lam + 12.0 * math.sqrt(lam + 1.0) + 20.0)
            assert _poisson_cutoff(lam.item()) == inline

    def test_default_cutoff_dominates_chernoff_minimum(self):
        for lam in [0.0, 0.1, 1.0, 4.0, 16.0, 100.0, 1000.0]:
            mu = math.sqrt(lam)
            assert default_cutoff(mu) >= minimal_admissible_cutoff(lam)


class TestSampling:
    def test_vacuum_always_even(self):
        rng = np.random.default_rng(0)
        assert all(sample_parity(0, rng) is Parity.EVEN for _ in range(100))

    def test_same_seed_same_sequence(self):
        seq1 = [sample_parity(1.0, np.random.default_rng(123)) for _ in range(1)]
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        seq_a = [sample_parity(1 + 0.5j, rng_a) for _ in range(500)]
        seq_b = [sample_parity(1 + 0.5j, rng_b) for _ in range(500)]
        assert seq_a == seq_b
        assert seq1  # smoke: single-draw path works

    def test_scalar_inversion_matches_batch_mapping(self):
        # For means <= 30 the scalar sampler consumes one uniform per draw
        # and must land on the same photon-number parity as the table
        # inversion fed the same uniforms.
        mu = 1.2 + 0.7j
        lam = abs(mu) ** 2
        n = 2000
        scalar_rng = np.random.default_rng(2024)
        scalar = np.array([sample_parity(mu, scalar_rng) is Parity.ODD for _ in range(n)])
        batch_rng = np.random.default_rng(2024)
        batch = batch_parity_is_odd(np.full(n, lam), batch_rng.random(n))
        assert np.array_equal(scalar, batch)

    def test_empirical_parity_converges(self):
        lam = 1.0
        n = 10**6
        rng = np.random.default_rng(7)
        odd = batch_parity_is_odd(np.full(n, lam), rng.random(n))
        p_odd = parity_probabilities(1.0).p_odd
        sigma = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs(odd.mean() - p_odd) < 4 * sigma

    def test_scalar_sampler_statistics(self):
        n = 10**5
        rng = np.random.default_rng(31)
        odd = sum(sample_parity(1.0, rng) is Parity.ODD for _ in range(n))
        p_odd = parity_probabilities(1.0).p_odd
        sigma = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs(odd / n - p_odd) < 4 * sigma

    def test_ptrs_regime_moments_and_parity(self):
        lam = 40.0
        n = 10**5
        rng = np.random.default_rng(5)
        draws = np.array([poisson_draw(lam, rng) for _ in range(n)])
        assert abs(draws.mean() - lam) < 4 * math.sqrt(lam / n)
        assert abs(draws.var() - lam) < 5 * lam * math.sqrt(2.0 / n)
        p_odd = parity_probabilities(math.sqrt(lam)).p_odd
        sigma = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs((draws % 2).mean() - p_odd) < 4 * sigma

    def test_invalid_mean_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_draw(-1.0, rng)
        with pytest.raises(ValueError):
            poisson_draw(float("nan"), rng)
