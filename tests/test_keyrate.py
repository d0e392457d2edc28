import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steerlab.coherent import parity_probabilities
from steerlab.keyrate import (
    HALF_PI,
    binary_entropy,
    bob_error,
    bob_error_sinh_form,
    bob_error_truncated,
    eve_error,
    eve_error_sinh_form,
    eve_error_truncated,
    key_rate_curve,
    key_rate_point,
    odd_parity_closed_form,
    odd_parity_sinh_form,
    optimize_eve,
)
from steerlab.protocol import SimConfig
from steerlab.steering import GaussianCloneChannel

PAIRS = [(1.0, 0.5), (2.0, 1.0), (0.5, 0.2)]


class TestClone:
    # The cloning map is GaussianCloneChannel.components, built from this
    # module's two amplitude factors.
    @staticmethod
    def split(mu, eta):
        ((weight, bob, eve),) = GaussianCloneChannel(eta=eta).components(mu)
        assert weight == 1.0
        return bob, eve

    def test_full_intercept(self):
        mu = 1.5 - 0.5j
        bob, eve = self.split(mu, HALF_PI)
        assert eve == mu
        assert abs(bob) < 1e-15

    def test_no_attack_continuity(self):
        # Bob keeps the state exactly; Eve gets cos(pi/2) mu, about 6e-17 mu,
        # rather than an exact zero.
        mu = 0.7 + 0.2j
        bob, eve = self.split(mu, 0.0)
        assert bob == mu
        assert eve == mu * math.cos(HALF_PI)
        assert abs(eve) < 1e-16

    def test_symmetric_clone(self):
        mu = 2.0
        bob, eve = self.split(mu, math.pi / 4)
        assert bob == eve
        assert abs(bob - mu / math.sqrt(2)) < 1e-15

    def test_invalid_inputs(self):
        # A non-finite eta is rejected by the channel; a non-finite amplitude
        # where it enters, by the protocol's config and by the parity map.
        with pytest.raises(ValueError):
            GaussianCloneChannel(eta=float("nan"))
        with pytest.raises(ValueError):
            SimConfig(alpha=float("inf"), beta=0.5, channel=GaussianCloneChannel(eta=0.5))
        with pytest.raises(ValueError):
            parity_probabilities(self.split(float("inf"), 0.5)[0])


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

    @pytest.mark.parametrize("error", [bob_error, eve_error])
    @pytest.mark.parametrize(
        "alpha, beta", [(math.inf, 0.5), (1.0, -math.inf), (math.nan, 0.5), (1.0, math.nan)]
    )
    def test_non_finite_amplitudes_rejected_by_name(self, error, alpha, beta):
        with pytest.raises(ValueError, match="^alpha and beta must be finite, got "):
            error(alpha, beta, 0.3)


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
        curve = key_rate_curve(1.0, 0.5, [0.0, math.pi / 4, HALF_PI])
        assert curve.rate[0] == 1.0 - curve.i_ae[0]
        assert abs(curve.rate[1]) < 1e-12
        assert curve.rate[2] == curve.i_ab[2] - 1.0

    def test_singleton_grid(self):
        curve = key_rate_curve(1.0, 0.5, [0.3])
        assert curve.eta.tolist() == [0.3] and curve.rate.shape == (1,)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            key_rate_curve(1.0, 0.5, [HALF_PI, 0.0])
        with pytest.raises(ValueError):
            key_rate_curve(1.0, 0.5, [])

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (-1.3, 0.4), (2.5, 1.7)])
    def test_arrays_match_the_scalar_functions_bit_for_bit(self, alpha, beta):
        # 257 points from 0 to pi/2, so pi/4 is one of them.
        etas = [HALF_PI * k / 256 for k in range(257)]
        assert etas[0] == 0.0 and etas[128] == math.pi / 4 and etas[-1] == HALF_PI
        curve = key_rate_curve(alpha, beta, etas)
        fields = ["eta", "p01", "q01", "i_ab", "i_ae", "rate"]
        for k, eta in enumerate(etas):
            point = key_rate_point(alpha, beta, eta)
            for name in fields:
                assert getattr(curve, name)[k].hex() == getattr(point, name).hex(), (name, eta)
            # The scalar chain key_rate_point was built from before the arrays.
            p01, q01 = bob_error(alpha, beta, eta), eve_error(alpha, beta, eta)
            i_ab, i_ae = 1.0 - binary_entropy(p01), 1.0 - binary_entropy(q01)
            expected = {
                "p01": p01, "q01": q01, "i_ab": i_ab, "i_ae": i_ae, "rate": i_ab - i_ae,
                "p01_sinh_form": bob_error_sinh_form(alpha, beta, eta),
                "q01_sinh_form": eve_error_sinh_form(alpha, beta, eta),
            }
            for name, value in expected.items():
                assert getattr(curve, name)[k].hex() == value.hex(), (name, eta)

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            (math.inf, 0.5, "alpha and beta must be finite"),
            (0.0, 0.0, "excluded region"),
            (1e308, 1e308, "offset (alpha +- beta)"),
        ],
    )
    def test_invalid_amplitudes_rejected(self, alpha, beta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            key_rate_curve(alpha, beta, [0.0, 0.5])
