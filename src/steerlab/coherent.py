"""Exact arithmetic for single-mode coherent states.

A coherent state is labeled by a complex amplitude mu; its photon-number
distribution is Poisson with mean |mu|^2.  Everything here follows from
that single fact:

* displacement acts as complex addition on the label (the global phase of
  the displaced state is dropped, since all observables in this package
  are phase-insensitive),
* the number-state overlap probability is exp(-|mu|^2) |mu|^(2n) / n!,
* the photon-number parity has the closed form
      p_even = (1 + exp(-2|mu|^2)) / 2,   p_odd = (1 - exp(-2|mu|^2)) / 2,
* parity can be sampled by drawing a Poisson photon number.

A brute-force truncated-sum evaluation of the parity probabilities is kept
alongside the closed form as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Parity",
    "ParityDistribution",
    "TruncatedParityDistribution",
    "CutoffTooSmallError",
    "in_excluded_region",
    "displace",
    "fock_probability",
    "parity_probabilities",
    "parity_by_truncation",
    "default_cutoff",
    "minimal_admissible_cutoff",
    "poisson_draw",
    "sample_parity",
    "batch_parity_is_odd",
]

# Joint smallness threshold below which the degenerate point of the
# fine-grained relation is flagged; shared across modules.
EXCLUDED_REGION_EPS = 1e-6


def in_excluded_region(state: complex, beta: complex) -> bool:
    """Both labels jointly within EXCLUDED_REGION_EPS of zero."""
    return abs(state) < EXCLUDED_REGION_EPS and abs(beta) < EXCLUDED_REGION_EPS


# Per-draw probability mass allowed beyond a truncation cutoff.
POISSON_TAIL_BOUND = 1e-14

# Most entries a Poisson table may have: a 2^22-entry table and its work
# arrays take a few hundred MB.  Larger means or cutoffs raise ValueError
# before anything is searched or allocated.
MAX_TABLE_ENTRIES = 2**22

# Above this mean the scalar sampler switches from sequential inversion to
# the PTRS rejection sampler.
_INVERSION_MEAN_LIMIT = 30.0

# exp(-lam) stays a normal double below this; term recursions start there.
_DIRECT_EXP_LIMIT = 700.0


class Parity(Enum):
    """Photon-number parity outcome."""

    EVEN = "even"
    ODD = "odd"

    def complement(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN


class CutoffTooSmallError(ValueError):
    """Truncation cutoff leaves more than the allowed Poisson tail.

    Carries the smallest admissible cutoff for the offending amplitude.
    """

    def __init__(self, cutoff: int, min_cutoff: int):
        self.cutoff = cutoff
        self.min_cutoff = min_cutoff
        super().__init__(
            f"cutoff {cutoff} leaves a Poisson tail above {POISSON_TAIL_BOUND:g}; "
            f"minimal admissible cutoff is {min_cutoff}"
        )


def _require_finite(value: complex, name: str = "amplitude") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


def _mean_photon_number(mu: complex) -> float:
    return mu.real * mu.real + mu.imag * mu.imag


@dataclass(frozen=True)
class ParityDistribution:
    """Probabilities of even and odd photon-number parity."""

    p_even: float
    p_odd: float

    def __post_init__(self):
        for name, p in (("p_even", self.p_even), ("p_odd", self.p_odd)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        if abs(self.p_even + self.p_odd - 1.0) > 1e-12:
            raise ValueError(
                f"parity probabilities must sum to 1, got {self.p_even + self.p_odd!r}"
            )

    def prob(self, outcome: Parity) -> float:
        return self.p_even if outcome is Parity.EVEN else self.p_odd


@dataclass(frozen=True)
class TruncatedParityDistribution:
    """Partial parity sums up to a Fock cutoff, without renormalization.

    ``tail_bound`` is the probability mass left beyond the cutoff.
    """

    p_even: float
    p_odd: float
    tail_bound: float

    def prob(self, outcome: Parity) -> float:
        return self.p_even if outcome is Parity.EVEN else self.p_odd


def displace(state: complex, gamma: complex) -> complex:
    """Displace a coherent-state label: the result is state + gamma.

    The displaced state's global phase is dropped; parity statistics and
    overlap moduli do not depend on it.
    """
    state = _require_finite(state, "state")
    gamma = _require_finite(gamma, "gamma")
    return state + gamma


def fock_probability(n: int, mu: complex) -> float:
    """Probability of finding n photons in the coherent state |mu>.

    Evaluates exp(-lam) lam^n / n! with lam = |mu|^2, switching to
    log-space above n = 30 (or when exp(-lam) would underflow) so large
    arguments neither overflow the factorial nor underflow the exponential.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"photon number must be a nonnegative integer, got {n!r}")
    n = int(n)
    mu = _require_finite(mu, "mu")
    lam = _mean_photon_number(mu)
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    if n > 30 or lam > _DIRECT_EXP_LIMIT:
        return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
    return math.exp(-lam) * lam**n / math.factorial(n)


def parity_probabilities(mu: complex) -> ParityDistribution:
    """Closed-form parity distribution of |mu>.

    Summing the Poisson weights over even and odd photon numbers gives
    p_even = (1 + exp(-2|mu|^2)) / 2 and p_odd = (1 - exp(-2|mu|^2)) / 2;
    the result depends on mu only through its modulus.
    """
    mu = _require_finite(mu, "mu")
    t = math.exp(-2.0 * _mean_photon_number(mu))
    return ParityDistribution(p_even=(1.0 + t) / 2.0, p_odd=(1.0 - t) / 2.0)


def _poisson_cutoff(lam: float) -> int:
    # ceil(lam + 12 sqrt(lam + 1) + 20): the default truncation of a
    # Poisson law with mean lam, shared by default_cutoff and the sampler.
    return math.ceil(lam + 12.0 * math.sqrt(lam + 1.0) + 20.0)


def default_cutoff(mu: complex) -> int:
    """Default Fock truncation cutoff for |mu>.

    ceil(lam + 12 sqrt(lam + 1) + 20) with lam = |mu|^2; conservative with
    respect to the Chernoff tail requirement enforced by
    minimal_admissible_cutoff.
    """
    return _poisson_cutoff(_mean_photon_number(_require_finite(mu, "mu")))


def minimal_admissible_cutoff(lam: float, tail_bound: float = POISSON_TAIL_BOUND) -> int:
    """Smallest cutoff N whose Poisson tail P(X > N) is below tail_bound.

    Uses the Chernoff bound P(X >= x) <= exp(-lam) (e lam / x)^x, valid for
    x > lam, so the returned cutoff is sufficient (possibly not tight).
    """
    if lam < 0.0:
        raise ValueError(f"Poisson mean must be nonnegative, got {lam!r}")
    if lam == 0.0:
        return 0
    log_tol = math.log(tail_bound)
    n = max(int(math.ceil(lam)), 0)
    while True:
        x = n + 1
        if x > lam:
            log_bound = -lam + x * (1.0 + math.log(lam / x))
            if log_bound < log_tol:
                return n
        n += 1


def _poisson_pmf_table(lam: float, cutoff: int) -> np.ndarray:
    """Poisson weights for n = 0..cutoff.

    For lam <= 700 the table is the multiplicative recursion
    p_0 = exp(-lam), p_n = p_{n-1} lam / n, matching the scalar sequential
    search term by term; above that the terms come from log space.
    """
    if lam == 0.0:
        table = np.zeros(cutoff + 1)
        table[0] = 1.0
        return table
    if lam <= _DIRECT_EXP_LIMIT:
        factors = np.empty(cutoff + 1)
        factors[0] = math.exp(-lam)
        if cutoff >= 1:
            factors[1:] = lam / np.arange(1, cutoff + 1)
        return np.cumprod(factors)
    n = np.arange(cutoff + 1, dtype=float)
    log_pmf = n * math.log(lam) - lam - np.array(
        [math.lgamma(k + 1.0) for k in range(cutoff + 1)]
    )
    return np.exp(log_pmf)


def _require_table_fits(last: float, what: str) -> None:
    # A table over n = 0..last has last + 1 entries.
    if last + 1 > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"{what} needs a Poisson table of at least {last + 1:.6g} entries, "
            f"above the limit of {MAX_TABLE_ENTRIES}"
        )


def parity_by_truncation(mu: complex, cutoff: int) -> TruncatedParityDistribution:
    """Parity probabilities from partial Poisson sums up to ``cutoff``.

    The partial sums are not renormalized; the unaccounted mass is
    returned in ``tail_bound``.  Raises CutoffTooSmallError when the
    requested cutoff cannot guarantee a tail below POISSON_TAIL_BOUND, and
    ValueError when the table would exceed MAX_TABLE_ENTRIES (any
    admissible cutoff is above the mean).
    """
    mu = _require_finite(mu, "mu")
    if cutoff < 0 or int(cutoff) != cutoff:
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    cutoff = int(cutoff)
    lam = _mean_photon_number(mu)
    _require_table_fits(lam, f"mean photon number {lam:g}")
    _require_table_fits(cutoff, f"cutoff {cutoff}")
    min_cutoff = minimal_admissible_cutoff(lam)
    if cutoff < min_cutoff:
        raise CutoffTooSmallError(cutoff, min_cutoff)
    pmf = _poisson_pmf_table(lam, cutoff)
    p_even = float(pmf[0::2].sum())
    p_odd = float(pmf[1::2].sum())
    tail = max(0.0, 1.0 - (p_even + p_odd))
    return TruncatedParityDistribution(p_even=p_even, p_odd=p_odd, tail_bound=tail)


def _poisson_inversion(lam: float, rng: np.random.Generator) -> int:
    # Sequential search: smallest n with u <= CDF(n); consumes one uniform.
    u = rng.random()
    p = math.exp(-lam)
    cdf = p
    n = 0
    limit = minimal_admissible_cutoff(lam) + 1
    while u > cdf and n < limit:
        n += 1
        p *= lam / n
        cdf += p
    return n


def _poisson_ptrs(lam: float, rng: np.random.Generator) -> int:
    # Hormann's transformed rejection with squeeze (PTRS); exact for
    # lam >= 10, no normal approximation involved.
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


def poisson_draw(lam: float, rng: np.random.Generator) -> int:
    """Draw one Poisson variate with mean lam from ``rng``.

    Sequential-search inversion for lam <= 30 (one uniform per draw),
    PTRS transformed rejection above.  Both are exact samplers; the split
    and the uniform-consumption pattern are part of the reproducibility
    contract.
    """
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"Poisson mean must be finite and nonnegative, got {lam!r}")
    if lam == 0.0:
        return 0
    if lam <= _INVERSION_MEAN_LIMIT:
        return _poisson_inversion(lam, rng)
    return _poisson_ptrs(lam, rng)


def sample_parity(mu: complex, rng: np.random.Generator) -> Parity:
    """Sample the photon-number parity of |mu>.

    Draws a photon number from the Poisson law with mean |mu|^2 and
    returns its parity; outcome frequencies converge to
    parity_probabilities(mu).  Mutates only the supplied generator.
    """
    mu = _require_finite(mu, "mu")
    n = poisson_draw(_mean_photon_number(mu), rng)
    return Parity.ODD if n & 1 else Parity.EVEN


def batch_parity_is_odd(lams: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized parity sampling by single-uniform CDF inversion.

    Element i draws a photon number as the smallest n with
    uniforms[i] <= CDF_{lams[i]}(n) over a table truncated at the default
    cutoff (tail below POISSON_TAIL_BOUND), then reports whether n is odd.
    For means <= 30 the mapping from uniform to photon number is identical
    to the scalar sequential search in poisson_draw.  Raises ValueError
    when a mean's table would exceed MAX_TABLE_ENTRIES.
    """
    lams = np.asarray(lams, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if lams.shape != uniforms.shape:
        raise ValueError("lams and uniforms must have matching shapes")
    if not np.all(np.isfinite(lams)) or np.any(lams < 0.0):
        raise ValueError("Poisson means must be finite and nonnegative")
    odd = np.empty(lams.shape, dtype=bool)
    for lam in np.unique(lams).tolist():
        cutoff = _poisson_cutoff(lam)
        _require_table_fits(cutoff, f"Poisson mean {lam:g}")
        mask = lams == lam
        cdf = np.cumsum(_poisson_pmf_table(lam, cutoff))
        n = np.searchsorted(cdf, uniforms[mask], side="left")
        odd[mask] = (n & 1).astype(bool)
    return odd
