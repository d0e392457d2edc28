import math

import numpy as np
import pytest

from steerlab.coherent import Parity, parity_probabilities
from steerlab.steering import (
    GaussianCloneChannel,
    IdealChannel,
    LhsMixtureChannel,
    PreparationEnsemble,
    SteeringScenario,
    Verdict,
    branch_probabilities,
    region_sweep,
    steerable_region_bounds,
    steering_sum,
    steering_verdict,
)


def canonical_scenario(alpha, beta, p_plus, outcome=Parity.EVEN):
    return SteeringScenario(
        ensemble=PreparationEnsemble(alpha=alpha, beta=beta, p_plus=p_plus),
        gamma1=-(alpha + beta),
        gamma2=-(alpha - beta),
        outcome=outcome,
    )


class TestSteeringSum:
    @pytest.mark.parametrize("p_plus", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_ideal_even_saturation(self, p_plus):
        ev = steering_sum(canonical_scenario(1.0, 0.5, p_plus), IdealChannel())
        assert abs(ev.sum - 1.0) < 1e-12
        assert ev.verdict is Verdict.VIOLATES_UPPER

    def test_odd_unity_claim_is_contradicted(self):
        # gamma = 1 - alpha -+ beta leaves both branches in |1>, whose odd
        # parity probability is (1 - e^-2)/2, not 1
        alpha, beta = 1.0, 0.5
        scenario = SteeringScenario(
            ensemble=PreparationEnsemble(alpha=alpha, beta=beta, p_plus=0.5),
            gamma1=1.0 - alpha - beta,
            gamma2=1.0 - alpha + beta,
            outcome=Parity.ODD,
        )
        ev = steering_sum(scenario, IdealChannel())
        expected = parity_probabilities(1.0).p_odd
        assert ev.sum == pytest.approx(expected, abs=1e-12)
        assert ev.sum == pytest.approx(0.4323, abs=1e-4)
        assert ev.verdict is Verdict.WITHIN_BOUNDS

    def test_lhs_vacuum_without_displacement(self):
        scenario = SteeringScenario(
            ensemble=PreparationEnsemble(alpha=1.0, beta=0.5, p_plus=0.5),
            gamma1=0.0,
            gamma2=0.0,
            outcome=Parity.EVEN,
        )
        channel = LhsMixtureChannel(states=(0.0,), weights=(1.0,))
        ev = steering_sum(scenario, channel)
        assert ev.sum == pytest.approx(1.0, abs=1e-15)

    def test_outcome_complement(self):
        rng = np.random.default_rng(17)
        channels = [
            IdealChannel(),
            GaussianCloneChannel(eta=0.6),
            LhsMixtureChannel(states=(0.3 + 0.1j, -0.5), weights=(0.4, 0.6)),
        ]
        for channel in channels:
            for _ in range(10):
                alpha = float(rng.uniform(-2, 2))
                beta = float(rng.uniform(0.1, 2))
                p = float(rng.uniform())
                even = steering_sum(
                    canonical_scenario(alpha, beta, p, Parity.EVEN), channel
                )
                odd = steering_sum(
                    canonical_scenario(alpha, beta, p, Parity.ODD), channel
                )
                assert abs(even.sum + odd.sum - 1.0) < 1e-12

    def test_lhs_components_preparation_independent(self):
        channel = LhsMixtureChannel(states=(0.2, 1.5j), weights=(0.7, 0.3))
        assert channel.components(1.5) == channel.components(-0.5)

    def test_excluded_region_flagged(self):
        ev = steering_sum(canonical_scenario(0.0, 0.0, 0.5), IdealChannel())
        assert ev.excluded_region

    def test_invalid_channel_parameters(self):
        with pytest.raises(ValueError):
            GaussianCloneChannel(eta=float("nan"))
        with pytest.raises(ValueError):
            LhsMixtureChannel(states=(0.0, 1.0), weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            LhsMixtureChannel(states=(), weights=())

    @pytest.mark.parametrize(
        "weights",
        [
            (float("nan"), 0.5),
            (float("nan"), float("nan")),
            (float("inf"), 0.0),
            (1.0, float("-inf")),
        ],
    )
    def test_non_finite_mixture_weights_rejected(self, weights):
        # abs(nan - 1) > tol is False, so the sum check alone lets NaN through.
        with pytest.raises(ValueError):
            LhsMixtureChannel(states=(0.0, 1.0), weights=weights)

    @pytest.mark.parametrize("outcome", ["even", "odd", None, 0])
    def test_outcome_must_be_a_parity(self, outcome):
        # Parity's prob() reads anything but Parity.EVEN as odd, so an
        # unchecked "even" turned the ideal sum of 1 into 0.
        with pytest.raises(ValueError):
            canonical_scenario(1.0, 0.5, 0.5, outcome=outcome)

    def test_branch_probabilities_are_the_unweighted_terms(self):
        channel = GaussianCloneChannel(eta=0.4)
        plus, minus = 1.2 + 0.6, 1.2 - 0.6
        b1, b2 = branch_probabilities(canonical_scenario(1.2, 0.6, 0.3), channel)
        assert b1 == parity_probabilities(plus * math.cos(0.4) - plus).p_even
        assert b2 == parity_probabilities(minus * math.cos(0.4) - minus).p_even
        ev = steering_sum(canonical_scenario(1.2, 0.6, 0.3), channel)
        assert ev.sum == 0.3 * b1 + (1.0 - 0.3) * b2


class TestVerdict:
    def test_midpoint_within(self):
        assert steering_verdict(0.5) is Verdict.WITHIN_BOUNDS

    def test_unity_violates_upper(self):
        assert steering_verdict(1.0) is Verdict.VIOLATES_UPPER

    def test_bounds_are_inclusive(self):
        assert steering_verdict(0.75) is Verdict.WITHIN_BOUNDS
        assert steering_verdict(0.25) is Verdict.WITHIN_BOUNDS

    def test_below_lower(self):
        assert steering_verdict(0.2) is Verdict.VIOLATES_LOWER


class TestRegionBoundary:
    def test_large_beta_limit(self):
        bounds = steerable_region_bounds(3.0)
        assert abs(bounds.p_low - (2.0 - math.sqrt(2.0)) / 4.0) < 1e-3

    def test_symmetry_identity(self):
        for beta in np.arange(0.05, 5.0 + 1e-9, 0.05):
            bounds = steerable_region_bounds(float(beta))
            assert abs(bounds.p_low + bounds.p_high - 1.0) < 1e-12

    def test_double_entry_evaluation(self):
        # independent re-implementation of the same printed expression
        beta = 0.5
        e = math.exp(-4.0 * beta**2)
        root = math.sqrt(2.0 * math.exp(-8.0 * beta**2) - 3.0 * e + 1.0)
        expected_low = (math.sqrt(2.0) * root + 2.0 * e - 2.0) / (4.0 * (e - 1.0))
        bounds = steerable_region_bounds(beta)
        assert bounds.p_low == pytest.approx(expected_low, abs=1e-15)
        assert bounds.is_real

    def test_complex_branch_flagged(self):
        bounds = steerable_region_bounds(0.2)
        assert not bounds.is_real
        assert abs(bounds.p_low + bounds.p_high - 1.0) < 1e-12

    def test_singular_input_rejected(self):
        with pytest.raises(ValueError):
            steerable_region_bounds(0.0)
        with pytest.raises(ValueError):
            steerable_region_bounds(1e-7)


class TestRegionSweep:
    def test_ideal_channel_all_violating(self):
        sums = region_sweep([0.5, 1.0], [0.0, 0.5, 1.0], 1.0, IdealChannel())
        assert sums.dtype == np.float64 and sums.shape == (2, 3)
        for total in sums.ravel().tolist():
            assert abs(total - 1.0) < 1e-12
            assert steering_verdict(total) is Verdict.VIOLATES_UPPER

    def test_clone_large_beta_below_unity(self):
        sums = region_sweep([3.0], [0.5], 1.0, GaussianCloneChannel(eta=math.pi / 4))
        assert sums[0, 0] < 1.0 - 1e-6

    def test_row_major_order(self):
        # Rows follow beta, columns follow p.
        channel = GaussianCloneChannel(eta=0.5)
        sums = region_sweep([0.5, 1.0], [0.1, 0.9], 1.0, channel)
        assert sums.shape == (2, 2)
        for i, beta in enumerate([0.5, 1.0]):
            for j, p in enumerate([0.1, 0.9]):
                assert sums[i, j] == steering_sum(canonical_scenario(1.0, beta, p), channel).sum

    def test_deterministic(self):
        args = ([0.3, 0.7, 1.5], [0.0, 0.25, 0.5, 1.0], 1.2, GaussianCloneChannel(eta=0.5))
        assert np.array_equal(region_sweep(*args), region_sweep(*args))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            region_sweep([], [0.5], 1.0, IdealChannel())
        with pytest.raises(ValueError):
            region_sweep([1.0, 0.5], [0.5], 1.0, IdealChannel())
        with pytest.raises(ValueError):
            region_sweep([0.5], [1.0, 0.5], 1.0, IdealChannel())

    @pytest.mark.parametrize(
        "beta_grid,p_grid,alpha",
        [
            ([0.5], [0.5], float("nan")),
            ([0.5, float("inf")], [0.5], 1.0),
            ([0.5], [0.2, 1.5], 1.0),
            ([0.5], [-0.1, 0.5], 1.0),
            ([0.5], [0.2, float("nan"), 0.5], 1.0),
            ([1e308], [0.5], 1e308),  # finite inputs, infinite displacement
        ],
    )
    def test_invalid_inputs_rejected(self, beta_grid, p_grid, alpha):
        with pytest.raises(ValueError):
            region_sweep(beta_grid, p_grid, alpha, IdealChannel())

    @pytest.mark.parametrize("alpha", [1.0, -0.7, 2.3])
    @pytest.mark.parametrize(
        "channel",
        [
            IdealChannel(),
            GaussianCloneChannel(eta=math.pi / 4),
            GaussianCloneChannel(eta=0.3),
            LhsMixtureChannel(states=(0.3 + 0.1j, -0.5, 1.2j), weights=(0.2, 0.5, 0.3)),
        ],
    )
    def test_matches_per_cell_steering_sum_bit_for_bit(self, channel, alpha):
        # A non-square grid, so a transposed array fails.
        betas = [0.05 + 2.95 * k / 29 for k in range(30)]
        ps = [k / 28 for k in range(29)]
        sums = region_sweep(betas, ps, alpha, channel)
        assert sums.shape == (30, 29)
        cells = [(b, p) for b in betas for p in ps]
        expected = [steering_sum(canonical_scenario(alpha, b, p), channel) for b, p in cells]
        flat = sums.ravel().tolist()
        assert [total.hex() for total in flat] == [ev.sum.hex() for ev in expected]
        assert [steering_verdict(total) for total in flat] == [ev.verdict for ev in expected]
