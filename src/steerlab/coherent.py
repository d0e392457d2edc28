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
* parity can be sampled by drawing a Poisson photon number, here by
  inverting the Poisson CDF tabulated over a window of about 24 sqrt(lam)
  photon numbers around the mean, so a table costs O(sqrt(lam)).

ParitySampler is the one CDF inversion: it draws for a fixed tuple of
means, indexed per draw by a kind, and builds a mean's table when a draw
first needs it.  A short table also gets a guide table that starts most
draws on their answer; a long one is bisected.  batch_parity_is_odd
samples an array of means through it, one kind per distinct mean.

A brute-force truncated-sum evaluation of the parity probabilities is kept
alongside the closed form as an independent oracle.  One numpy builder,
_poisson_weights, tabulates both the oracle's 0..cutoff and the sampler's
window, so the oracle stays fast up to the table limit.
"""

from __future__ import annotations

import bisect
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
    "sample_parity",
    "batch_parity_is_odd",
    "ParitySampler",
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
# arrays take a few hundred MB.  Larger means, cutoffs or sampler windows
# raise ValueError before anything is searched or allocated.
MAX_TABLE_ENTRIES = 2**22

# exp(-lam) stays a normal double below this; term recursions start there.
_DIRECT_EXP_LIMIT = 700.0

# Natural log of the smallest positive double, 2^-1074.
_LOG_SMALLEST_DOUBLE = math.log(5e-324)


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


def _poisson_half_width(lam: float) -> float:
    # 12 sqrt(lam + 1) + 20: how far the tabulated photon numbers reach on
    # either side of the mean lam.
    return 12.0 * math.sqrt(lam + 1.0) + 20.0


def _poisson_cutoff(lam: float) -> int:
    # ceil(lam + 12 sqrt(lam + 1) + 20): the default truncation of a
    # Poisson law with mean lam, shared by default_cutoff and the sampler.
    return math.ceil(lam + _poisson_half_width(lam))


def _poisson_window(lam: float) -> tuple[int, int]:
    # Photon numbers lo..hi tabulated by the sampler: hi is the default
    # cutoff, lo = max(0, floor(lam - 12 sqrt(lam + 1) - 20)).
    return max(0, math.floor(lam - _poisson_half_width(lam))), _poisson_cutoff(lam)


def _require_table_fits(entries: float, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"{what} needs a Poisson table of at least {entries:.6g} entries, "
            f"above the limit of {MAX_TABLE_ENTRIES}"
        )


def default_cutoff(mu: complex) -> int:
    """Default Fock truncation cutoff for |mu>.

    ceil(lam + 12 sqrt(lam + 1) + 20) with lam = |mu|^2; conservative with
    respect to the Chernoff tail requirement enforced by
    minimal_admissible_cutoff.  Raises ValueError when the mean alone would
    exceed MAX_TABLE_ENTRIES, an infinite mean included.
    """
    lam = _mean_photon_number(_require_finite(mu, "mu"))
    _require_table_fits(lam + 1, f"mean photon number {lam:g}")
    return _poisson_cutoff(lam)


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


def _poisson_weights(lam: float, lo: int, hi: int) -> tuple[np.ndarray, float]:
    """Poisson weights over the photon numbers lo..hi, and their scale.

    The weights times the returned factor are the probabilities p_n.  A
    range starting at 0 with lam <= 700 is the recursion p_0 = exp(-lam),
    p_n = p_{n-1} lam / n, with factor 1.  Any other range holds the ratios
    p_n / p_m about the mode m = floor(lam), which never exceed 1, with
    factor p_m from one lgamma call.  Below the mode, every n whose
    p_n / p_m is under the smallest double gets 0: one more lgamma call
    tells whether the range reaches that far, and a bisection on lgamma
    finds where it starts.  The product recursion would stall at 5e-324
    instead, since 5e-324 * n / lam rounds back to it while n / lam
    exceeds 1/2.
    """
    weights = np.empty(hi - lo + 1)
    if lo == 0 and lam <= _DIRECT_EXP_LIMIT:
        weights[0] = math.exp(-lam)
        np.divide(lam, np.arange(1, hi + 1), out=weights[1:])
        return np.cumprod(weights, out=weights), 1.0
    m = math.floor(lam)
    above = weights[m - lo + 1:]  # p_n / p_m, n = m+1..hi
    np.cumprod(np.divide(lam, np.arange(m + 1, hi + 1), out=above), out=above)
    log_lam, log_m_factorial = math.log(lam), math.lgamma(m + 1.0)

    def log_ratio(n: int) -> float:  # log(p_n / p_m)
        return (n - m) * log_lam + log_m_factorial - math.lgamma(n + 1.0)

    start = lo  # first n whose p_n / p_m is representable
    if log_ratio(lo) < _LOG_SMALLEST_DOUBLE:
        start += bisect.bisect_left(range(lo, m), _LOG_SMALLEST_DOUBLE, key=log_ratio)
    below = weights[start - lo:m - lo][::-1]  # p_n / p_m, n = m-1..start
    np.cumprod(np.divide(np.arange(m, start, -1), lam, out=below), out=below)
    weights[:start - lo] = 0.0
    weights[m - lo] = 1.0
    return weights, math.exp(m * log_lam - lam - log_m_factorial)


def parity_by_truncation(mu: complex, cutoff: int) -> TruncatedParityDistribution:
    """Parity probabilities from partial Poisson sums up to ``cutoff``.

    The table over n = 0..cutoff comes from _poisson_weights, as the
    sampler's does.  The partial sums are not renormalized; the unaccounted
    mass is returned in ``tail_bound``.  Raises CutoffTooSmallError when the
    requested cutoff cannot guarantee a tail below POISSON_TAIL_BOUND, and
    ValueError when the table would exceed MAX_TABLE_ENTRIES (any
    admissible cutoff is above the mean).
    """
    mu = _require_finite(mu, "mu")
    if cutoff < 0 or int(cutoff) != cutoff:
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    cutoff = int(cutoff)
    lam = _mean_photon_number(mu)
    # A table over n = 0..cutoff has cutoff + 1 entries, and every
    # admissible cutoff is above the mean.
    _require_table_fits(lam + 1, f"mean photon number {lam:g}")
    _require_table_fits(cutoff + 1, f"cutoff {cutoff}")
    min_cutoff = minimal_admissible_cutoff(lam)
    if cutoff < min_cutoff:
        raise CutoffTooSmallError(cutoff, min_cutoff)
    weights, factor = _poisson_weights(lam, 0, cutoff)
    pmf = weights * factor
    p_even = float(pmf[0::2].sum())
    p_odd = float(pmf[1::2].sum())
    tail = max(0.0, 1.0 - (p_even + p_odd))
    return TruncatedParityDistribution(p_even=p_even, p_odd=p_odd, tail_bound=tail)


def sample_parity(mu: complex, rng: np.random.Generator) -> Parity:
    """Sample the photon-number parity of |mu>.

    Draws one uniform from ``rng`` and maps it to a photon number exactly
    as batch_parity_is_odd does; outcome frequencies converge to
    parity_probabilities(mu).  Mutates only the supplied generator.
    """
    mu = _require_finite(mu, "mu")
    odd = batch_parity_is_odd(np.array([_mean_photon_number(mu)]), np.array([rng.random()]))
    return Parity.ODD if odd[0] else Parity.EVEN


def _checked_window(lam: float) -> tuple[int, int]:
    # The sampler's window lo..hi, once its size is known to fit.
    lo, hi = _poisson_window(lam)
    # Far above 2^53 the rounded bounds lose the window; its half-width
    # still bounds the entry count from below.
    _require_table_fits(max(hi - lo + 1, _poisson_half_width(lam)), f"Poisson mean {lam:g}")
    return lo, hi


def _poisson_cdf(lam: float, lo: int, hi: int) -> np.ndarray:
    # The CDF over the window lo..hi, normalised to end at exactly 1 when
    # it starts above 0.
    weights = _poisson_weights(lam, lo, hi)[0]
    cdf = np.cumsum(weights, out=weights)
    if lo > 0:
        cdf /= cdf[-1]
    return cdf


# Bins of a guide table (Chen & Asau 1974; Devroye 1986, section III.2.4).
_GUIDE_BINS = 1 << 10

# Longest table that gets a guide.  A longer table would leave many entries
# per bin, so its draws go straight to a bisection of the table.
_GUIDED_ENTRIES = 1 << 11


class ParitySampler:
    """Photon-number parities of Poisson draws, one mean per draw kind.

    Draw i takes the mean ``lams[kinds[i]]`` and maps ``uniforms[i]`` to
    the smallest photon number n in that mean's window with
    ``uniforms[i] <= CDF(n)``, or to hi + 1 when no entry reaches it (a
    uniform of nan included).  A kind is set up the first time a call
    draws from it, kinds in ascending mean: the call first checks that the
    means of its new kinds are finite and nonnegative, and a window that
    would exceed MAX_TABLE_ENTRIES raises ValueError before anything is
    allocated.  So a kind that is never drawn can hold any mean.

    A table of at most _GUIDED_ENTRIES entries whose kind has at least
    _GUIDE_BINS draws in that first call (so the guide's searches and
    memory are no more than the draws') is built then, once per distinct
    mean, and gets a guide: bin b of _GUIDE_BINS holds the first entry
    whose CDF reaches b / _GUIDE_BINS.  A draw starts at the entry its bin
    names and takes at most one step up.  Since b / _GUIDE_BINS <= u
    exactly, the start is never past the answer; a draw whose entry is
    still below u after the step is searched on its own table by
    bisection.  Any other table is not kept: each call builds it, bisects
    it for every draw of its kind and drops it before the next, as a
    chunk-by-chunk run always did.  So every draw lands where a bisection
    of its table lands.
    """

    def __init__(self, lams):
        self._lams = np.asarray(lams, dtype=float)
        kinds = len(self._lams)
        # Per kind, once set up: (lo, hi, cdf), cdf None if not kept.
        self._tables: list[tuple | None] = [None] * kinds
        self._pending = kinds
        self._guided: dict[float, tuple] = {}  # mean -> (cdf, start of its guide)
        # The guided tables' CDFs end to end, each followed by +inf so that
        # a step never leaves its table; entry 0 is a nan that no uniform
        # reaches.
        self._cdf = np.array([np.nan])
        self._odd = np.zeros(1, bool)  # parity of each entry's photon number
        # The guides end to end, after one that sends every bin to the nan
        # entry; each kind's start, which is that first guide's for a kind
        # without one.
        self._guide = np.zeros(_GUIDE_BINS, np.intp)
        self._start = np.zeros(kinds, np.intp)

    def _set_up(self, kinds: np.ndarray) -> None:
        counts = np.bincount(kinds, minlength=len(self._lams))
        new = [k for k in np.flatnonzero(counts).tolist() if self._tables[k] is None]
        if not new:
            return
        lams = self._lams[new]
        if not np.all(np.isfinite(lams)) or np.any(lams < 0.0):
            raise ValueError("Poisson means must be finite and nonnegative")
        for k in sorted(new, key=self._lams.item):
            lam = self._lams.item(k)
            lo, hi = _checked_window(lam)
            cdf = None
            if hi - lo < _GUIDED_ENTRIES and (lam in self._guided or counts[k] >= _GUIDE_BINS):
                if lam not in self._guided:
                    self._guided[lam] = self._add_guide(_poisson_cdf(lam, lo, hi), lo)
                cdf, self._start[k] = self._guided[lam]
            self._tables[k] = (lo, hi, cdf)
            self._pending -= 1

    def _add_guide(self, cdf: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
        first = len(self._cdf)
        self._cdf = np.concatenate((self._cdf, cdf, [np.inf]))
        photons = np.arange(lo, lo + len(cdf) + 1)
        self._odd = np.concatenate((self._odd, (photons & 1).astype(bool)))
        guide = first + np.searchsorted(cdf, np.arange(_GUIDE_BINS) / _GUIDE_BINS)
        start = len(self._guide)
        self._guide = np.concatenate((self._guide, guide))
        return cdf, start

    def _bisect(self, odd: np.ndarray, kinds: np.ndarray, uniforms: np.ndarray) -> None:
        # Fill odd by a bisection of each draw's own table.
        present = np.flatnonzero(np.bincount(kinds, minlength=len(self._tables))).tolist()
        for k in present:
            draws = kinds == k if len(present) > 1 else slice(None)
            lo, hi, cdf = self._tables[k]
            if cdf is None:
                cdf = _poisson_cdf(self._lams.item(k), lo, hi)
            odd[draws] = (lo + np.searchsorted(cdf, uniforms[draws], side="left")) & 1

    def __call__(self, kinds: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Whether each draw's photon number is odd; ``kinds`` index the means."""
        if self._pending:
            self._set_up(kinds)
        if not self._guided:
            odd = np.empty(len(kinds), bool)
            self._bisect(odd, kinds, uniforms)
            return odd
        # Bins clamped to the guide, so uniforms outside [0, 1) read a
        # start that is still never past their answer; nan reads bin 0.
        bins = uniforms * _GUIDE_BINS
        np.fmax(bins, 0.0, out=bins)
        np.fmin(bins, _GUIDE_BINS - 1, out=bins)
        entry = self._guide[self._start.take(kinds) + bins.astype(np.intp)]
        entry += self._cdf[entry] < uniforms
        odd = self._odd[entry]
        short = np.flatnonzero(~(self._cdf[entry] >= uniforms))
        if short.size:
            found = np.empty(short.size, bool)
            self._bisect(found, kinds[short], uniforms[short])
            odd[short] = found
        return odd


def batch_parity_is_odd(lams: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized parity sampling by single-uniform CDF inversion.

    Element i draws a photon number as the smallest n with
    uniforms[i] <= CDF_{lams[i]}(n), then reports whether n is odd.  Each
    distinct mean lam gets one table over the window
    lo = max(0, floor(lam - 12 sqrt(lam + 1) - 20)) to hi = default cutoff,
    about 24 sqrt(lam) entries.  By the Chernoff bounds the mass above hi
    is below POISSON_TAIL_BOUND and the mass below lo below exp(-72).
    The table comes from _poisson_weights, as the oracle's does.  Windows
    starting at 0 (every mean up to about 184) hold the CDF from the
    recursion p_0 = exp(-lam), p_n = p_{n-1} lam / n; higher windows are
    built by ratios about the mode and normalised to end at exactly 1.
    The distinct means become the kinds of one ParitySampler.  Raises
    ValueError when a mean's window would exceed MAX_TABLE_ENTRIES,
    before it is allocated.
    """
    lams = np.asarray(lams, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if lams.shape != uniforms.shape:
        raise ValueError("lams and uniforms must have matching shapes")
    means, kinds = np.unique(lams.ravel(), return_inverse=True)
    return ParitySampler(means)(kinds.ravel(), uniforms.ravel()).reshape(lams.shape)
