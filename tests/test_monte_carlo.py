"""The Monte Carlo protocol against the closed forms it estimates.

The byte pins catch drift, but they were recorded from the code itself, so
they cannot show a wrong distribution.  These checks compare the statistics
of ``run_protocol`` with ``keyrate``'s closed forms instead.

Clone-channel runs of 2^20 rounds at alpha 1, beta 0.5, one per point of a
17-point eta grid over [0, pi/2], each with a seed of its own; point 8 is
pi/4, where Eve's clone is as good as Bob's copy and the key rate is zero.
Seeds and bounds were fixed before the first run:
- p01 and q01 lie within 5.5 sigma of ``bob_error`` and ``eve_error``, a
  bound wide enough for 34 comparisons;
- the empirical key rate has the sign of ``key_rate_point(...).rate``
  wherever that rate is more than 6 sigma from zero;
- the empirical rate changes sign between points 7 and 9, either side of
  pi/4.

Each preparation's own error rates, from the counts of a run's kind codes
(prep << 2 | bob << 1 | eve), against that branch's closed form, in runs
of 2^20 rounds with a seed each:
- clone-channel runs at alpha 1, beta 0.5, eta 0.7, with p_plus 0.1, 0.3
  and 0.9: Bob's and Eve's odd-parity rates in each preparation against
  ``odd_parity_closed_form((alpha +- beta)(factor - 1))``;
- a run through a two-component ``LhsMixtureChannel``: Bob's rate in each
  preparation against ``steering.branch_probabilities``.
Those are 14 comparisons, each within 5.5 sigma of the rate's binomial
deviation over the preparation's rounds (a two-sided false alarm of about
4e-8 each, 5e-7 for all 14).  Seeds and bounds were fixed before the
first run.

Two more (alpha, beta, eta) points, clone-channel runs of 2^20 rounds with
a seed each: p01 and q01 within 5.5 sigma of ``bob_error`` and
``eve_error`` (4 comparisons).  At (2, 1.5, 0.3) the parity means run from
5e-4 to 6.1; at (40, 5, 0.7) they are 68 to 256, so Eve's PLUS table is a
window that does not start at 0, and every closed form there is 1/2.

The coverage of ``stderr_p01``: 2000 clone runs of 4096 rounds at alpha 1,
beta 0.5, eta 0.7, seeds 23000 to 24999.  The runs with
|p01 - P01| <= 1.96 stderr_p01 are as many as Binomial(2000, 0.95) allows
at a two-sided false alarm of 4e-8, the per-comparison rate of 5.5 sigma
(one comparison).  The Wald interval's exact coverage there is 0.9513,
2.6 runs above the nominal 0.95 of the 2000.  Seeds and bounds were fixed
before the first run.
"""

import functools
import math

import numpy as np
import pytest

from steerlab.coherent import Parity
from steerlab.keyrate import (
    HALF_PI,
    bob_amplitude_factor,
    bob_error,
    eve_amplitude_factor,
    eve_error,
    key_rate_point,
    odd_parity_closed_form,
)
from steerlab.protocol import SimConfig, run_protocol
from steerlab.steering import (
    GaussianCloneChannel,
    LhsMixtureChannel,
    PreparationEnsemble,
    SteeringScenario,
    branch_probabilities,
)

ALPHA, BETA = 1.0, 0.5
ROUNDS = 1 << 20
ETAS = [HALF_PI * k / 16 for k in range(17)]
SEEDS = [20_260 + k for k in range(17)]
ERROR_SIGMAS = 5.5
RATE_SIGMAS = 6.0


@functools.cache
def _runs():
    return [
        run_protocol(
            SimConfig(alpha=ALPHA, beta=BETA, channel=GaussianCloneChannel(eta=eta), rounds=ROUNDS, seed=seed),
            keep_transcript=False,
        ).stats
        for eta, seed in zip(ETAS, SEEDS)
    ]


def _sigma(p: float) -> float:
    """Standard deviation of an error rate estimated from ROUNDS rounds."""
    return math.sqrt(p * (1.0 - p) / ROUNDS)


def _rate_sigma(p: float, q: float) -> float:
    """Delta-method standard deviation of the empirical rate H2(q01) - H2(p01).

    H2'(x) = log2((1 - x) / x).  Bob's and Eve's estimates come from the same
    rounds, so their covariance is not known here; the sum of the two parts'
    deviations bounds the rate's for any correlation.  An error rate of 0 or 1
    is estimated exactly and adds nothing.
    """
    return sum(abs(math.log2((1.0 - x) / x)) * _sigma(x) for x in (p, q) if 0.0 < x < 1.0)


def test_error_rates_match_the_closed_forms():
    for eta, stats in zip(ETAS, _runs()):
        p, q = bob_error(ALPHA, BETA, eta), eve_error(ALPHA, BETA, eta)
        assert abs(stats.empirical_p01 - p) <= ERROR_SIGMAS * _sigma(p), (eta, stats.empirical_p01, p)
        assert abs(stats.empirical_q01 - q) <= ERROR_SIGMAS * _sigma(q), (eta, stats.empirical_q01, q)


def test_empirical_rate_has_the_sign_of_the_closed_form():
    checked = 0
    for eta, stats in zip(ETAS, _runs()):
        point = key_rate_point(ALPHA, BETA, eta)
        if abs(point.rate) > RATE_SIGMAS * _rate_sigma(point.p01, point.q01):
            assert np.sign(stats.empirical_rate) == np.sign(point.rate), (eta, stats.empirical_rate, point.rate)
            checked += 1
    assert checked >= 2  # at least the two points either side of pi/4


def test_empirical_rate_changes_sign_across_pi_over_4():
    assert ETAS[8] == math.pi / 4
    before, after = _runs()[7].empirical_rate, _runs()[9].empirical_rate
    assert before * after < 0, (before, after)


BRANCH_ETA = 0.7
P_PLUS_SEEDS = {0.1: 21_101, 0.3: 21_103, 0.9: 21_109}
MIXTURE = LhsMixtureChannel(states=(0.3 + 0.4j, 1.2), weights=(0.25, 0.75))
MIXTURE_SEED = 21_120
BRANCH_SIGMAS = 5.5


def _branch_counts(config: SimConfig):
    """Per preparation, MINUS then PLUS: its rounds, Bob's odd parities and
    Eve's, counted from the run's kind codes."""
    codes = run_protocol(config).transcript._codes
    counts = np.bincount(codes, minlength=8).reshape(2, 2, 2)  # prep, bob, eve
    return counts.sum(axis=(1, 2)), counts[:, 1, :].sum(axis=1), counts[:, :, 1].sum(axis=1)


def _assert_near(odd: int, rounds: int, p: float, label) -> None:
    assert abs(odd / rounds - p) <= BRANCH_SIGMAS * math.sqrt(p * (1.0 - p) / rounds), (label, odd, rounds, p)


@pytest.mark.parametrize("p_plus", sorted(P_PLUS_SEEDS))
def test_each_preparation_matches_its_branch(p_plus):
    channel = GaussianCloneChannel(eta=BRANCH_ETA)
    config = SimConfig(alpha=ALPHA, beta=BETA, p_plus=p_plus, channel=channel, rounds=ROUNDS, seed=P_PLUS_SEEDS[p_plus])
    rounds, bob_odd, eve_odd = _branch_counts(config)
    assert rounds.sum() == ROUNDS and rounds.min() > 0.05 * ROUNDS
    for prep, prepared in enumerate([ALPHA - BETA, ALPHA + BETA]):
        for party, factor, odd in [("bob", bob_amplitude_factor, bob_odd), ("eve", eve_amplitude_factor, eve_odd)]:
            p = odd_parity_closed_form(prepared * (factor(BRANCH_ETA) - 1.0))
            _assert_near(odd[prep], rounds[prep], p, (p_plus, prep, party))


def test_mixture_channel_matches_its_branch_probabilities():
    config = SimConfig(alpha=ALPHA, beta=BETA, channel=MIXTURE, rounds=ROUNDS, seed=MIXTURE_SEED)
    rounds, bob_odd, _ = _branch_counts(config)
    scenario = SteeringScenario(
        ensemble=PreparationEnsemble(alpha=ALPHA, beta=BETA, p_plus=0.5),
        gamma1=-(ALPHA + BETA), gamma2=-(ALPHA - BETA), outcome=Parity.ODD,
    )
    plus, minus = branch_probabilities(scenario, MIXTURE)
    assert abs(plus - minus) > 0.05  # the announced gammas tell the branches apart
    for prep, p in enumerate([minus, plus]):
        _assert_near(bob_odd[prep], rounds[prep], p, ("mixture", prep))


PAIRS = {(2.0, 1.5, 0.3): 22_201, (40.0, 5.0, 0.7): 22_202}


@pytest.mark.parametrize("alpha, beta, eta", sorted(PAIRS))
def test_error_rates_match_the_closed_forms_at_other_amplitudes(alpha, beta, eta):
    config = SimConfig(alpha=alpha, beta=beta, channel=GaussianCloneChannel(eta=eta), rounds=ROUNDS,
                       seed=PAIRS[alpha, beta, eta])
    stats = run_protocol(config, keep_transcript=False).stats
    p, q = bob_error(alpha, beta, eta), eve_error(alpha, beta, eta)
    assert abs(stats.empirical_p01 - p) <= ERROR_SIGMAS * _sigma(p), (stats.empirical_p01, p)
    assert abs(stats.empirical_q01 - q) <= ERROR_SIGMAS * _sigma(q), (stats.empirical_q01, q)


COVERAGE_SEEDS = range(23_000, 25_000)
COVERAGE_ROUNDS = 4096
COVERAGE_FALSE_ALARM = 4e-8


def _binomial_interval(n: int, p: float, false_alarm: float) -> tuple[int, int]:
    """The narrowest [lo, hi] with at most false_alarm / 2 of Binomial(n, p)
    below lo and at most that above hi."""
    pmf = [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * math.log(p) + (n - k) * math.log1p(-p))
        for k in range(n + 1)
    ]
    lo, tail = 0, pmf[0]
    while tail <= false_alarm / 2:
        lo += 1
        tail += pmf[lo]
    hi, tail = n, pmf[n]
    while tail <= false_alarm / 2:
        hi -= 1
        tail += pmf[hi]
    return lo, hi


def test_stderr_p01_covers_p01_at_its_nominal_rate():
    channel = GaussianCloneChannel(eta=BRANCH_ETA)
    p = bob_error(ALPHA, BETA, BRANCH_ETA)
    covered = 0
    for seed in COVERAGE_SEEDS:
        config = SimConfig(alpha=ALPHA, beta=BETA, channel=channel, rounds=COVERAGE_ROUNDS, seed=seed)
        stats = run_protocol(config, keep_transcript=False).stats
        covered += abs(stats.empirical_p01 - p) <= 1.96 * stats.stderr_p01
    lo, hi = _binomial_interval(len(COVERAGE_SEEDS), 0.95, COVERAGE_FALSE_ALARM)
    assert lo <= covered <= hi, (covered, lo, hi)
