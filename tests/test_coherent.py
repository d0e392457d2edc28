import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import coherent
from steerlab.coherent import (
    CutoffTooSmallError,
    MAX_TABLE_ENTRIES,
    Parity,
    ParityDistribution,
    batch_parity_is_odd,
    default_cutoff,
    displace,
    fock_probability,
    minimal_admissible_cutoff,
    parity_by_truncation,
    parity_probabilities,
    sample_parity,
    ParitySampler,
    _poisson_cutoff,
    _poisson_half_width,
    _poisson_window,
)


def _ptrs_draw(lam: float, rng: np.random.Generator) -> int:
    # Hormann's transformed rejection with squeeze (PTRS), "The transformed
    # rejection method for generating Poisson random variables" (1993):
    # exact for lam >= 10 and independent of any CDF table.
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (
            math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
            <= k * loglam - lam - math.lgamma(k + 1.0)
        ):
            return int(k)


def _poisson_quantile(lam: float, uniforms: np.ndarray) -> np.ndarray:
    # The plain inversion that the sampler must reproduce: a bisection of
    # the mean's whole window table, for every draw.
    lo, hi = coherent._checked_window(lam)
    return lo + np.searchsorted(coherent._poisson_cdf(lam, lo, hi), uniforms, side="left")


def _clone_mean(alpha: float, beta: float = 0.5) -> float:
    # Bob's (and Eve's) displaced mean at eta = pi/4: |(alpha + beta)(cos(pi/4) - 1)|^2.
    return ((alpha + beta) * (math.cos(math.pi / 4) - 1.0)) ** 2


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

    @pytest.mark.parametrize("re", [1000.0, 2000.0])
    def test_large_mean_sums_are_symmetric_and_close(self, re):
        # Above mean 700 the table is built by ratios about the mode, so the
        # even and odd sums share one rounding of p_m; exp(-2 lam) is 0 here.
        t = parity_by_truncation(re, default_cutoff(re))
        assert abs(t.p_even - t.p_odd) < 1e-15
        assert abs(t.p_even - 0.5) < 1e-8

    @pytest.mark.parametrize("lam", [1000.5, 4e6])
    def test_table_reaches_zero_where_the_pmf_underflows(self, lam):
        # A cumprod of n / lam below the mode stalled at 5e-324 while
        # n / lam > 1/2: at mean 4e6, 999,999 entries read 5e-324.
        weights, _ = coherent._poisson_weights(lam, 0, _poisson_cutoff(lam))
        m = math.floor(lam)

        def log_ratio(n):  # log(p_n / p_m)
            return (n - m) * math.log(lam) + math.lgamma(m + 1.0) - math.lgamma(n + 1.0)

        first = int(np.flatnonzero(weights)[0])
        assert log_ratio(first - 1) < math.log(5e-324) <= log_ratio(first)
        assert not weights[:first].any()
        assert np.count_nonzero(weights == 5e-324) <= 1

    def test_default_cutoff_checks_the_table_limit_before_rounding(self):
        # |1e200|^2 overflows to inf, which the cutoff formula cannot round.
        with pytest.raises(ValueError, match="mean photon number inf needs a Poisson table"):
            default_cutoff(1e200)

    def test_default_cutoff_dominates_chernoff_minimum(self):
        for lam in [0.0, 0.1, 1.0, 4.0, 16.0, 100.0, 1000.0]:
            mu = math.sqrt(lam)
            assert default_cutoff(mu) >= minimal_admissible_cutoff(lam)


class TestTableLimit:
    # Every case runs against a small patched limit, so no test builds a
    # table anywhere near MAX_TABLE_ENTRIES.
    LIMIT = 100

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(coherent, "MAX_TABLE_ENTRIES", self.LIMIT)

    @pytest.fixture
    def no_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("searched or allocated past the limit")

        monkeypatch.setattr(coherent, "minimal_admissible_cutoff", fail)
        monkeypatch.setattr(coherent, "_poisson_weights", fail)

    def test_truncation_rejects_large_mean_before_the_cutoff_search(self, no_table):
        with pytest.raises(ValueError, match="mean photon number"):
            parity_by_truncation(10.0, 10)  # lam = 100: at least 101 entries

    def test_truncation_rejects_large_cutoff_before_the_cutoff_search(self, no_table):
        with pytest.raises(ValueError, match="cutoff 100"):
            parity_by_truncation(0.0, self.LIMIT)

    def test_truncation_at_the_limit_still_runs(self):
        t = parity_by_truncation(1.0, self.LIMIT - 1)
        assert t.p_odd == pytest.approx(parity_probabilities(1.0).p_odd, abs=1e-12)

    def test_sampler_rejects_a_mean_whose_table_is_too_large(self, no_table):
        lam = 40.0  # a 138-entry table
        assert _poisson_cutoff(lam) + 1 > self.LIMIT
        with pytest.raises(ValueError, match="Poisson mean 40"):
            batch_parity_is_odd(np.full(3, lam), np.full(3, 0.5))

    def test_sampler_checks_every_distinct_mean(self):
        with pytest.raises(ValueError, match="Poisson mean 40"):
            batch_parity_is_odd(np.array([0.5, 40.0, 0.5]), np.full(3, 0.5))

    def test_sampler_below_the_limit_still_runs(self):
        lam = 10.0
        assert _poisson_cutoff(lam) + 1 <= self.LIMIT
        assert batch_parity_is_odd(np.full(4, lam), np.full(4, 0.5)).shape == (4,)


def test_table_limit_admits_the_largest_benchmark_mean():
    # Clone runs at alpha 3000, beta 0.5, eta = pi/4 tabulate Bob's and
    # Eve's displaced means |(alpha + beta)(factor - 1)|^2, about 7.7e5;
    # checked on the arithmetic alone, nothing is allocated.
    lam = ((3000.5) * (math.cos(math.pi / 4) - 1.0)) ** 2
    assert _poisson_cutoff(lam) + 1 < MAX_TABLE_ENTRIES


@pytest.mark.parametrize("alpha, fits", [(6000.0, True), (1e7, False)])
def test_table_limit_applies_to_the_sampler_window(alpha, fits):
    # Arithmetic only: at alpha 6000 the window holds about 4.2e4 entries
    # (a full 0..cutoff table would need 3.1e6), at alpha 1e7 about 7e7.
    lo, hi = _poisson_window(_clone_mean(alpha))
    assert (hi - lo + 1 <= MAX_TABLE_ENTRIES) is fits


class TestWindowedSampler:
    @pytest.fixture
    def no_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("allocated a window past the limit")

        monkeypatch.setattr(coherent, "_poisson_weights", fail)

    @pytest.mark.parametrize("lam", [3.1e10, _clone_mean(1e7), 1e40, 1e300])
    def test_oversized_window_rejected_before_it_is_built(self, no_table, lam):
        # Above about 1e33 the rounded window bounds collapse onto the
        # mean; the check must still see the window's true width.
        assert _poisson_window(lam)[0] > 0
        with pytest.raises(ValueError, match="Poisson table"):
            batch_parity_is_odd(np.full(2, lam), np.full(2, 0.5))

    def test_limit_applies_to_the_window_not_to_the_cutoff(self, monkeypatch):
        monkeypatch.setattr(coherent, "MAX_TABLE_ENTRIES", 1000)
        lo, hi = _poisson_window(1000.0)
        assert hi - lo + 1 <= 1000 < hi + 1
        assert batch_parity_is_odd(np.full(3, 1000.0), np.full(3, 0.5)).shape == (3,)
        with pytest.raises(ValueError, match="Poisson mean 2000"):
            batch_parity_is_odd(np.full(3, 2000.0), np.full(3, 0.5))

    def test_window_starts_at_zero_up_to_mean_thirty(self):
        for lam in np.linspace(0.0, 30.0, 3001).tolist():
            assert _poisson_window(lam)[0] == 0

    def test_window_width(self):
        # hi - lo + 1 = 2h + 1 + (ceil(lam + h) - (lam + h)) + (lam - h - floor(lam - h))
        # with h the half-width, so it lies in [2h + 1, 2h + 3).
        lams = np.concatenate([np.linspace(0.0, 500.0, 5001), np.geomspace(1.0, 3e10, 5001)])
        for lam in lams.tolist():
            lo, hi = _poisson_window(lam)
            h = _poisson_half_width(lam)
            assert hi == _poisson_cutoff(lam)
            assert hi - lo + 1 < 2.0 * h + 3.0
            if lo > 0:
                assert hi - lo + 1 >= 2.0 * h + 1.0 - 1e-6 * h

    @pytest.mark.parametrize("lam", [250.0, 2.1e4, 1.9e5, 7.7e5, 3.1e6])
    def test_matches_a_full_log_space_table(self, lam):
        # Reference: the Poisson CDF over n = 0..hi, each term
        # exp(n log lam - lam - lgamma(n + 1)).  Its terms carry a relative
        # error of a few eps * hi * log(hi), so a uniform that close to a
        # reference boundary may round either way; every other uniform
        # must map to the same photon number.
        lo, hi = _poisson_window(lam)
        log_pmf = np.fromiter(map(math.lgamma, np.arange(1.0, hi + 2.0)), float, hi + 1)
        np.subtract(np.arange(hi + 1) * math.log(lam) - lam, log_pmf, out=log_pmf)
        reference = np.cumsum(np.exp(log_pmf, out=log_pmf))
        assert reference[lo - 1] < math.exp(-72.0)  # the mass the window leaves out
        tol = 8.0 * np.finfo(float).eps * hi * math.log(hi)

        u = np.random.default_rng(20240611).random(20_000)
        expected = np.searchsorted(reference, u, side="left")
        drawn = _poisson_quantile(lam, u)
        lower = reference[np.maximum(expected - 1, 0)]
        upper = reference[np.minimum(expected, hi)]
        near = (u - lower < tol) | (upper - u < tol)
        assert near.mean() < 0.01
        assert np.array_equal(drawn[~near], expected[~near])
        assert np.all(np.abs(drawn[near] - expected[near]) <= 1)

    # Recorded before the sampler and the oracle shared one table builder;
    # the means straddle the window's lo = 0 edge (about 184) and mean 700.
    QUANTILE_SHA256 = {
        0.0: "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479",
        0.5: "fda3564bebba52aee01d19ec7824828c083a358c3cf303a641b4c6655669ee0b",
        9.0: "6994ae0d3387da7db4d30a497d73d9aef165786d6f18de987cab7584a3e54a70",
        150.0: "007ae1c3011227e3e9f975f4862c447eb8a36aa3a587f225cc25f1f5421f5ac6",
        183.0: "b4793042a9972e6cb69d2c158694caf80a5105322bae66b0cce3f255b1c5bdb2",
        185.0: "205481da782406fbd847c591a34e46bcaa919f32a0ba0cfb564fb80f31a4f36e",
        250.0: "bfc8a5098d6bc077021cd3d96e3dd4242f9bd934b17bef50ffb979c81bcab7ee",
        699.5: "cf00e50e2074a44bf50c2096e0e5357eaed9e5a1f90dd0f8a6d143b6f34a1ae3",
        700.5: "e02a9fb0cfacf8a63f2aaecfb640d97723161dd3084008881407ea1ad72ed3a5",
        2.1e4: "cdeb62ee6c081342bdbba9e7b5329b2ad14c1a5cdad754a18c1aeb05856eca71",
        7.7e5: "de14f59191b741af4cab03f9588f5468a34a293404a584a820a09e463f76411a",
        3.1e6: "ad21dc25b93fa621d9afa3df475a443e9d71f05759c913a528900caa8e4c9df8",
    }

    @pytest.mark.parametrize("lam", sorted(QUANTILE_SHA256))
    def test_photon_numbers_keep_their_bytes(self, lam):
        u = np.random.default_rng(9).random(4096)
        drawn = _poisson_quantile(lam, u).astype(np.int64)
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == self.QUANTILE_SHA256[lam]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_lam=st.floats(math.log(200.0), math.log(3e10)), seed=st.integers(0, 2**32 - 1))
    def test_odd_fraction_matches_the_closed_form(self, log_lam, seed):
        # Fixed before running: 5 binomial sigma (two-sided false alarm
        # about 6e-7 per example).
        lam = math.exp(log_lam)
        n = 20_000
        odd = batch_parity_is_odd(np.full(n, lam), np.random.default_rng(seed).random(n))
        p_odd = parity_probabilities(math.sqrt(lam)).p_odd
        sigma = math.sqrt(p_odd * (1.0 - p_odd) / n)
        assert abs(odd.mean() - p_odd) < 5.0 * sigma

    @pytest.mark.parametrize("lam", [40.0, 250.0, 2.1e4])
    def test_agrees_with_ptrs(self, lam):
        # Two independent exact samplers: sample means and variances agree
        # within 5 sigma of their difference.
        n = 20_000
        rng = np.random.default_rng(8)
        ptrs = np.array([_ptrs_draw(lam, rng) for _ in range(n)], dtype=float)
        table = _poisson_quantile(lam, rng.random(n)).astype(float)
        assert abs(ptrs.mean() - table.mean()) < 5.0 * math.sqrt(2.0 * lam / n)
        assert abs(ptrs.var() - table.var()) < 5.0 * lam * math.sqrt(4.0 / n)


def _edge_uniforms(lam: float) -> np.ndarray:
    # 0, 1 - 2^-53, every CDF entry of the mean's table and every guide bin
    # edge b / 1024, each with both of its floating-point neighbours.
    lo, hi = coherent._checked_window(lam)
    cdf = coherent._poisson_cdf(lam, lo, hi)
    points = np.concatenate([cdf, np.arange(coherent._GUIDE_BINS + 1) / coherent._GUIDE_BINS])
    neighbours = [np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)]
    return np.concatenate([[0.0, 1.0 - 2.0**-53], *neighbours])


class TestParitySampler:
    # The vacuum, a mean whose CDF is 1 from its first entry, means on
    # either side of the window's lo = 0 edge (about 184), and a mean whose
    # table is too long for a guide.
    MEANS = [0.0, 1e-300, 1.0, 183.0, 185.0, 1e6]
    OUT_OF_RANGE = np.array([1.0, 2.0, -0.5, math.inf, -math.inf, math.nan, 1e300, -1e300])

    def test_guides_go_to_short_tables_only(self):
        # Tables of 367, 1739, 2443 and 24043 entries, each drawn often
        # enough for a guide.
        lams = [183.0, 5e3, 1e4, 1e6]
        sampler = ParitySampler(lams)
        kinds = np.repeat(np.arange(len(lams)), coherent._GUIDE_BINS)
        sampler(kinds, np.random.default_rng(3).random(len(kinds)))
        assert [start > 0 for start in sampler._start.tolist()] == [True, True, False, False]

    @pytest.mark.parametrize("lam", MEANS)
    def test_every_cdf_entry_and_its_neighbours(self, lam):
        u = np.concatenate([_edge_uniforms(lam), self.OUT_OF_RANGE])
        odd = ParitySampler([lam])(np.zeros(len(u), np.intp), u)
        assert np.array_equal(odd, _poisson_quantile(lam, u) & 1)

    def test_mixed_kinds_in_one_call(self):
        # Repeated means share a table; each kind reads its own guide row.
        means = [*self.MEANS, 183.0, 0.0]
        edges = [_edge_uniforms(lam) for lam in means]
        kinds = np.concatenate([np.full(len(u), k) for k, u in enumerate(edges)])
        u = np.concatenate(edges)
        rng = np.random.default_rng(17)
        order = rng.permutation(len(u))
        kinds, u = kinds[order], u[order]
        u[::97] = rng.random(len(u[::97]))
        odd = ParitySampler(means)(kinds, u)
        for k, lam in enumerate(means):
            assert np.array_equal(odd[kinds == k], _poisson_quantile(lam, u[kinds == k]) & 1)

    def test_kinds_are_set_up_when_first_drawn(self, monkeypatch):
        built = []
        cdf = coherent._poisson_cdf
        monkeypatch.setattr(coherent, "_poisson_cdf", lambda lam, lo, hi: built.append(lam) or cdf(lam, lo, hi))
        sampler = ParitySampler([5.0, math.inf, 2.0, 1e40, 5.0, 1e6, 7.0])

        def draw(kinds, each=coherent._GUIDE_BINS):
            kinds = np.repeat(kinds, each)
            return sampler(kinds, np.full(len(kinds), 0.5))

        draw([4, 0, 2])
        assert built == [2.0, 5.0]  # ascending, once per mean
        draw([2, 0, 4])
        assert built == [2.0, 5.0]
        # A table too long for a guide, or first drawn fewer times than a
        # guide has bins, is built for each call that draws from it.
        draw([5, 0])
        draw([5])
        draw([6], each=2)
        draw([6])
        assert built == [2.0, 5.0, 1e6, 1e6, 7.0, 7.0]
        with pytest.raises(ValueError, match="finite and nonnegative"):
            draw([0, 1, 3, 0])
        with pytest.raises(ValueError, match="Poisson mean 1e\\+40 needs a Poisson table"):
            draw([0, 3, 3, 0])

    def test_guides_stay_within_the_draws(self):
        # Many distinct means with a few draws each: no kind gets a guide,
        # so the sampler holds no more than its tables while it bisects.
        lams = np.linspace(0.0, 50.0, 5000)
        u = np.random.default_rng(4).random(len(lams))
        sampler = ParitySampler(lams)
        odd = sampler(np.arange(len(lams)), u)
        assert len(sampler._guide) == coherent._GUIDE_BINS
        for k in range(0, len(lams), 250):
            assert odd[k] == _poisson_quantile(lams[k], u[k:k + 1])[0] & 1


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
        # sample_parity consumes one uniform per draw and lands on the same
        # photon-number parity as the table inversion fed the same uniforms.
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
        # The draws of 1e5 sample_parity(1.0, rng) calls, made in one batch
        # call; test_scalar_inversion_matches_batch_mapping covers the
        # per-draw equality of the two.
        n = 10**5
        rng = np.random.default_rng(31)
        odd = np.count_nonzero(batch_parity_is_odd(np.full(n, 1.0), rng.random(n)))
        p_odd = parity_probabilities(1.0).p_odd
        sigma = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs(odd / n - p_odd) < 4 * sigma

    def test_ptrs_regime_moments_and_parity(self):
        # The PTRS oracle itself, at the mean the scalar sampler once
        # switched to it.
        lam = 40.0
        n = 10**5
        rng = np.random.default_rng(5)
        draws = np.array([_ptrs_draw(lam, rng) for _ in range(n)])
        assert abs(draws.mean() - lam) < 4 * math.sqrt(lam / n)
        assert abs(draws.var() - lam) < 5 * lam * math.sqrt(2.0 / n)
        p_odd = parity_probabilities(math.sqrt(lam)).p_odd
        sigma = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs((draws % 2).mean() - p_odd) < 4 * sigma

    # Parities for uniforms outside [0, 1), recorded while every distinct
    # mean had a searchsorted call of its own: u = 1.0 lands on the first
    # entry whose CDF rounds to 1 (if any), and 2.0, inf and nan on hi + 1.
    EDGE_UNIFORMS = [1.0, 2.0, -0.5, math.inf, math.nan]
    EDGE_PARITIES = {
        0.0: [False, True, False, True, True],
        1e-300: [False, True, False, True, True],
        1.0: [False, True, False, True, True],
        183.0: [True, True, False, True, True],
        185.0: [False, False, True, False, False],
        1e6: [True, False, True, False, False],
    }

    @pytest.mark.parametrize("lam", sorted(EDGE_PARITIES))
    def test_uniforms_outside_the_unit_interval_keep_their_parities(self, lam):
        n = len(self.EDGE_UNIFORMS)
        odd = batch_parity_is_odd(np.full(n, lam), np.array(self.EDGE_UNIFORMS))
        assert odd.tolist() == self.EDGE_PARITIES[lam]

    def test_invalid_mean_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                batch_parity_is_odd(np.array([bad]), np.array([0.5]))
        with pytest.raises(ValueError):
            sample_parity(complex(float("nan"), 0.0), np.random.default_rng(0))
