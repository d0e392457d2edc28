import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steerlab.keyrate import (
    HALF_PI,
    binary_entropy,
    bob_error,
    bob_error_sinh_form,
    bob_error_truncated,
    clone,
    eve_error,
    eve_error_sinh_form,
    eve_error_truncated,
    key_rate_curve,
    key_rate_point,
    odd_parity_closed_form,
    odd_parity_sinh_form,
    optimize_eve,
)

PAIRS = [(1.0, 0.5), (2.0, 1.0), (0.5, 0.2)]


class TestClone:
    def test_full_intercept(self):
        mu = 1.5 - 0.5j
        out = clone(mu, HALF_PI)
        assert out.eve == mu
        assert abs(out.bob) < 1e-15

    def test_no_attack_continuity(self):
        mu = 0.7 + 0.2j
        out = clone(mu, 0.0)
        assert out.bob == mu
        assert out.eve == 0j

    def test_symmetric_clone(self):
        mu = 2.0
        out = clone(mu, math.pi / 4)
        assert out.bob == out.eve
        assert abs(out.bob - mu / math.sqrt(2)) < 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            clone(float("inf"), 0.5)
        with pytest.raises(ValueError):
            clone(1.0, float("nan"))


class TestErrorProbabilities:
    def test_bob_no_attack_is_errorless(self):
        for alpha, beta in PAIRS:
            assert bob_error(alpha, beta, 0.0) == 0.0

    def test_bob_full_intercept_closed_form(self):
        alpha, beta = 1.0, 0.5
        p = bob_error(alpha, beta, HALF_PI)
        expected = 0.5 * (1 - math.exp(-2 * (alpha + beta) ** 2)) / 2 + 0.5 * (
            1 - math.exp(-2 * (alpha - beta) ** 2)
        ) / 2
        assert p == pytest.approx(expected, abs=1e-12)

    def test_eve_full_intercept_is_errorless(self):
        for alpha, beta in PAIRS:
            assert eve_error(alpha, beta, HALF_PI) == 0.0

    def test_eve_no_attack_mirrors_bob(self):
        alpha, beta = 1.0, 0.5
        q = eve_error(alpha, beta, 0.0)
        expected = 0.5 * (1 - math.exp(-2 * (alpha + beta) ** 2)) / 2 + 0.5 * (
            1 - math.exp(-2 * (alpha - beta) ** 2)
        ) / 2
        assert q == pytest.approx(expected, abs=1e-12)

    def test_symmetric_point_equality_is_exact(self):
        for alpha, beta in PAIRS:
            assert bob_error(alpha, beta, math.pi / 4) == eve_error(alpha, beta, math.pi / 4)

    def test_closed_form_matches_truncation_oracle(self):
        for alpha, beta in PAIRS:
            for eta in [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, HALF_PI]:
                assert abs(bob_error(alpha, beta, eta) - bob_error_truncated(alpha, beta, eta)) < 1e-10
                assert abs(eve_error(alpha, beta, eta) - eve_error_truncated(alpha, beta, eta)) < 1e-10

    def test_error_probabilities_bounded_by_half(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            alpha = float(rng.uniform(-3, 3))
            beta = float(rng.uniform(0.01, 2))
            eta = float(rng.uniform(0, HALF_PI))
            for value in (bob_error(alpha, beta, eta), eve_error(alpha, beta, eta)):
                assert 0.0 <= value <= 0.5

    def test_sinh_form_disagrees_away_from_zero(self):
        delta = 1.0
        assert odd_parity_sinh_form(delta) > odd_parity_closed_form(delta) + 0.1
        assert bob_error_sinh_form(1.0, 0.5, HALF_PI) > bob_error(1.0, 0.5, HALF_PI)
        assert eve_error_sinh_form(1.0, 0.5, 0.0) > eve_error(1.0, 0.5, 0.0)

    def test_excluded_region_rejected(self):
        with pytest.raises(ValueError):
            bob_error(0.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            eve_error(1e-9, -1e-9, 0.3)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_near_folklore_threshold(self):
        assert abs(binary_entropy(0.11) - 0.4999) < 1e-4

    def test_concavity_on_sampled_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            x, y = rng.uniform(size=2)
            mid = binary_entropy((x + y) / 2)
            avg = (binary_entropy(float(x)) + binary_entropy(float(y))) / 2
            assert mid >= avg - 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)


class TestKeyRatePoint:
    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_rate_vanishes_at_symmetric_point(self, alpha, beta):
        pt = key_rate_point(alpha, beta, math.pi / 4)
        assert pt.p01 == pt.q01
        assert abs(pt.rate) < 1e-12

    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_endpoint_identities(self, alpha, beta):
        at_zero = key_rate_point(alpha, beta, 0.0)
        assert at_zero.i_ab == 1.0
        assert at_zero.rate == 1.0 - at_zero.i_ae
        assert at_zero.rate >= 0.0
        at_half_pi = key_rate_point(alpha, beta, HALF_PI)
        assert at_half_pi.i_ae == 1.0
        assert at_half_pi.rate == at_half_pi.i_ab - 1.0
        assert at_half_pi.rate <= 0.0

    def test_role_swap_antisymmetry(self):
        for eta in np.linspace(0.0, HALF_PI, 9):
            forward = key_rate_point(1.0, 0.5, float(eta))
            swapped = key_rate_point(1.0, 0.5, HALF_PI - float(eta))
            assert abs(forward.rate + swapped.rate) < 1e-12


class TestOptimizeEve:
    def test_unconstrained_maximum_at_interval_end(self):
        # I(A:E) is non-decreasing in eta, so the closed interval puts the
        # optimum at its upper end, pi/2, where Eve keeps everything
        result = optimize_eve(1.0, 0.5, 0.0, HALF_PI)
        assert result.eta_star == HALF_PI
        assert result.i_ae_star == 1.0
        assert result.rate_at_star < 0.0

    def test_against_exhaustive_fine_grid(self):
        fine = [HALF_PI * k / 20000 for k in range(20001)]
        info = [1.0 - binary_entropy(eve_error(1.0, 0.5, e)) for e in fine]
        oracle_eta = fine[info.index(max(info))]
        result = optimize_eve(1.0, 0.5, 0.0, HALF_PI)
        assert abs(result.eta_star - oracle_eta) < 1e-4

    def test_symmetric_cap_recovers_quarter_pi(self):
        result = optimize_eve(1.0, 0.5, 0.0, math.pi / 4)
        assert result.eta_star == math.pi / 4
        assert abs(result.rate_at_star) < 1e-12

    def test_degenerate_interval(self):
        result = optimize_eve(1.0, 0.5, math.pi / 4, math.pi / 4 + 1e-6)
        assert abs(result.eta_star - math.pi / 4) < 2e-6

    # Floating-point H2 wobbles by an ulp or two around its flat maximum at
    # 1/2, so I(A:E) = 1 - H2 may dip by that much between nearby etas.
    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(min_value=-20.0, max_value=20.0),
        beta=st.floats(min_value=-20.0, max_value=20.0),
        etas=st.lists(st.floats(min_value=0.0, max_value=HALF_PI), min_size=2, max_size=2),
    )
    def test_eve_information_non_decreasing_in_eta(self, alpha, beta, etas):
        assume(abs(alpha) >= 1e-6 or abs(beta) >= 1e-6)
        lo, hi = sorted(etas)
        tol = 4 * sys.float_info.epsilon
        at_lo = key_rate_point(alpha, beta, lo).i_ae
        assert key_rate_point(alpha, beta, hi).i_ae >= at_lo - tol
        assert optimize_eve(alpha, beta, 0.0, HALF_PI).i_ae_star >= at_lo - tol

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            optimize_eve(1.0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            optimize_eve(1.0, 0.5, 0.9, 0.1)


class TestKeyRateCurve:
    def test_three_point_grid_matches_endpoint_identities(self):
        pts = key_rate_curve(1.0, 0.5, [0.0, math.pi / 4, HALF_PI])
        assert pts[0].rate == 1.0 - pts[0].i_ae
        assert abs(pts[1].rate) < 1e-12
        assert pts[2].rate == pts[2].i_ab - 1.0

    def test_singleton_grid(self):
        pts = key_rate_curve(1.0, 0.5, [0.3])
        assert len(pts) == 1 and pts[0].eta == 0.3

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            key_rate_curve(1.0, 0.5, [HALF_PI, 0.0])
        with pytest.raises(ValueError):
            key_rate_curve(1.0, 0.5, [])
