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

batch_parity_is_odd inverts double uniforms, one search per distinct mean.
ParitySampler inverts the same tables for the raw 64-bit Philox words of
the protocol, for a fixed tuple of means indexed per draw by a kind: one
table per distinct mean, built when the sampler is made, and for a table
drawn often enough one parity code per bin of the words' top bits, which
settles most draws at once; the rest are searched.

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
    "parity_closed_form",
    "parity_probabilities",
    "parity_by_truncation",
    "default_cutoff",
    "minimal_admissible_cutoff",
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

# Photon numbers counted at once while a table is built.
_COUNT_BLOCK = 1 << 16

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


def _mean_photon_number(mu):
    # |mu|^2 of a complex, a float or a numpy array of either, elementwise.
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


def _mapped(function, values: np.ndarray) -> np.ndarray:
    # A math function of each element of an array, in an array of its shape.
    # A memoryview yields the elements as floats one at a time, where
    # tolist() would hold them all.
    flat = np.fromiter(map(function, memoryview(values.ravel())), float, values.size)
    return flat.reshape(values.shape)


def parity_closed_form(lams):
    """Even and odd parity probabilities of mean photon numbers lam.

    Summing the Poisson weights over even and odd photon numbers gives
    p_even = (1 + exp(-2 lam)) / 2 and p_odd = (1 - exp(-2 lam)) / 2.
    ``lams`` is a float, giving two floats, or a numpy array, giving two
    float64 arrays of its shape.  Over an array math.exp is mapped, so
    each element is bitwise a float's value (np.exp can differ from it in
    the last bit).  Raises ValueError unless every mean is nonnegative (nan
    included); an infinite mean gives 1/2 and 1/2.
    """
    if isinstance(lams, np.ndarray):
        if not (lams >= 0.0).all():
            raise ValueError(_NEGATIVE_MEANS)
        with np.errstate(over="ignore"):  # -inf beyond -DBL_MAX, as for a float
            exponents = -2.0 * lams
        t = _mapped(math.exp, exponents)
    elif lams >= 0.0:
        t = math.exp(-2.0 * lams)
    else:
        raise ValueError(_NEGATIVE_MEANS)
    return (1.0 + t) / 2.0, (1.0 - t) / 2.0


_NEGATIVE_MEANS = "mean photon numbers must be nonnegative"


def parity_probabilities(mu: complex) -> ParityDistribution:
    """Closed-form parity distribution of |mu>: parity_closed_form of |mu|^2.

    The result depends on mu only through its modulus.
    """
    mu = _require_finite(mu, "mu")
    p_even, p_odd = parity_closed_form(_mean_photon_number(mu))
    return ParityDistribution(p_even=p_even, p_odd=p_odd)


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


def _counted(out: np.ndarray, first: int, step: int) -> np.ndarray:
    # first, first + step, ... in ``out`` as doubles, as np.arange would give
    # them, with at most _COUNT_BLOCK integers held at a time.
    for start in range(0, len(out), _COUNT_BLOCK):
        stop = min(start + _COUNT_BLOCK, len(out))
        out[start:stop] = np.arange(first + start * step, first + stop * step, step)
    return out


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
    exceeds 1/2.  The photon numbers are counted in the weights' own array,
    so a long table allocates little beside it (the array of a parallel
    build would stay in its thread's malloc arena).
    """
    weights = np.empty(hi - lo + 1)
    if lo == 0 and lam <= _DIRECT_EXP_LIMIT:
        weights[0] = math.exp(-lam)
        np.divide(lam, _counted(weights[1:], 1, 1), out=weights[1:])
        return np.cumprod(weights, out=weights), 1.0
    m = math.floor(lam)
    above = weights[m - lo + 1:]  # p_n / p_m, n = m+1..hi
    np.cumprod(np.divide(lam, _counted(above, m + 1, 1), out=above), out=above)
    log_lam, log_m_factorial = math.log(lam), math.lgamma(m + 1.0)

    def log_ratio(n: int) -> float:  # log(p_n / p_m)
        return (n - m) * log_lam + log_m_factorial - math.lgamma(n + 1.0)

    start = lo  # first n whose p_n / p_m is representable
    if log_ratio(lo) < _LOG_SMALLEST_DOUBLE:
        start += bisect.bisect_left(range(lo, m), _LOG_SMALLEST_DOUBLE, key=log_ratio)
    below = weights[start - lo:m - lo][::-1]  # p_n / p_m, n = m-1..start
    np.cumprod(np.divide(_counted(below, m, -1), lam, out=below), out=below)
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


def _checked_window(lam: float) -> tuple[int, int]:
    # The sampler's window lo..hi, once its size is known to fit.
    lo, hi = _poisson_window(lam)
    # Far above 2^53 the rounded bounds lose the window; its half-width
    # still bounds the entry count from below.
    _require_table_fits(max(hi - lo + 1, _poisson_half_width(lam)), f"Poisson mean {lam:g}")
    return lo, hi


def _checked_windows(lams: list[float]) -> list[tuple[int, int]]:
    # The windows of ascending means.  ValueError when a mean is not finite
    # and nonnegative, else for the first mean whose window does not fit.
    if not all(0.0 <= lam < math.inf for lam in lams):
        raise ValueError("Poisson means must be finite and nonnegative")
    return [_checked_window(lam) for lam in lams]


def _poisson_cdf(lam: float, lo: int, hi: int) -> np.ndarray:
    # The CDF over the window lo..hi, normalised to end at exactly 1 when
    # it starts above 0.
    weights = _poisson_weights(lam, lo, hi)[0]
    cdf = np.cumsum(weights, out=weights)
    if lo > 0:
        cdf /= cdf[-1]
    return cdf


# Bins of the narrowest guide row (Chen & Asau 1974; Devroye 1986, section
# III.2.4).  A row of 2^k bins reads a word's top k bits: bin b holds the
# words w >> (64 - k) == b, uniforms in [b, b + 1) / 2^k.
_GUIDE_BINS = 1 << 10
_BIN_SHIFT = 64 - 10
_BISECT = 2  # a bin's code when a CDF entry falls inside it; 0 and 1 are parities

# Most entries a sampler's kept tables hold together: the four means of a
# clone run, each with as long a window as a table may have.
_KEPT_ENTRIES = 4 * MAX_TABLE_ENTRIES

# Widest guide row.  Rows of 2^22 bins (tables of 2.1e6 entries, alpha 3e5)
# made a long clone run slower and larger, where rows of 2^20 and 2^21
# bins still saved time.
_MAX_GUIDE_BINS = 1 << 21


def _uniforms(words: np.ndarray) -> np.ndarray:
    # The doubles Generator.random() makes of raw 64-bit words.
    return (words >> 11) * 2.0**-53


def _guide_bins(entries: int) -> int:
    # A table's row width: the least power of two at least its entries and
    # at least _GUIDE_BINS.
    return max(_GUIDE_BINS, 1 << (entries - 1).bit_length())


def _parity_bins(cdf: np.ndarray, lo: int, bins: int) -> np.ndarray:
    # Per bin of a row of ``bins``, the parity of both its first and last
    # word's entry, or _BISECT.
    first = np.searchsorted(cdf, np.arange(bins) / bins)
    last = np.searchsorted(cdf, np.arange(1, bins + 1) / bins - 2.0**-53)
    return np.where(first == last, (lo + first) & 1, _BISECT).astype(np.uint8)


class ParitySampler:
    """Photon-number parities of Poisson draws, one mean per draw kind.

    Draw i takes the mean ``lams[kinds[i]]`` and the raw 64-bit Philox
    word ``words[i]``, whose uniform is u = (words[i] >> 11) * 2**-53 as
    ``Generator.random()`` makes it, and maps u to the smallest photon
    number n in that mean's window with u <= CDF(n), or to hi + 1 when no
    entry reaches it.  Every kind is set up at construction, in ascending
    mean.  A kind whose mean is not finite and nonnegative, or whose
    window would exceed MAX_TABLE_ENTRIES, gets no table, and every call
    that draws it raises the ValueError batch_parity_is_odd raises for
    the call's failing means.  So a kind that is never drawn can hold any
    mean.

    Each distinct mean gets one table, kept for the sampler's life while
    the kept tables hold at most _KEPT_ENTRIES entries; a table past that
    is built for each call that draws it.  A kept table of n entries gets
    a guide row of 2^k one-byte codes, 2^k the least power of two at
    least n and _GUIDE_BINS, if ``draws`` (the most draws of one kind the
    caller will make: a run's rounds) is at least 2^k and 2^k is at most
    _MAX_GUIDE_BINS.  Per bin of a word's top k bits, the row holds the
    parity every word in it maps to, or _BISECT where a CDF entry falls
    inside the bin.  Draws in such bins, and on tables without a row, are
    bisected as doubles, so every draw lands where a bisection of its
    table lands.

    A call only reads the sampler, so threads may share one.
    """

    def __init__(self, lams, draws: int):
        self._lams = np.asarray(lams, dtype=float)
        # Per kind (lo, hi, cdf or None), or None for a kind without a
        # window; the rows end to end after one that bisects every bin
        # (the row of every kind without a row of its own); the kinds' row
        # offsets; and their shift, an int when all are equal, else an array.
        windows = [None] * len(self._lams)
        rows = [np.full(_GUIDE_BINS, _BISECT, np.uint8)]
        offsets = np.zeros(len(self._lams), np.int64)
        shifts = [_BIN_SHIFT] * len(self._lams)
        kept: dict[float, tuple] = {}  # mean -> (cdf or None, row offset, shift)
        kept_entries = 0
        for k in np.argsort(self._lams, kind="stable").tolist():  # nan last
            lam = self._lams.item(k)
            try:
                lo, hi = _checked_windows([lam])[0]
            except ValueError:  # raised again by every call that draws the kind
                continue
            if lam not in kept:
                cdf, offset, shift = None, 0, _BIN_SHIFT
                entries = hi - lo + 1
                if kept_entries + entries <= _KEPT_ENTRIES:
                    kept_entries += entries
                    cdf, bins = _poisson_cdf(lam, lo, hi), _guide_bins(entries)
                    if bins <= min(draws, _MAX_GUIDE_BINS):
                        offset, shift = sum(map(len, rows)), 64 - (bins.bit_length() - 1)
                        rows.append(_parity_bins(cdf, lo, bins))
                kept[lam] = cdf, offset, shift
            cdf, offsets[k], shifts[k] = kept[lam]
            windows[k] = lo, hi, cdf
        self._windows = tuple(windows)
        self._rows = np.concatenate(rows)
        self._offsets = offsets
        self._shift = shifts[0] if len(set(shifts)) == 1 else np.array(shifts, np.uint64)

    def _bisect(self, odd: np.ndarray, kinds: np.ndarray, uniforms: np.ndarray) -> None:
        # Fill odd by a bisection of each draw's own table.
        present = np.flatnonzero(np.bincount(kinds, minlength=len(self._windows))).tolist()
        failed = [k for k in present if self._windows[k] is None]
        if failed:
            _checked_windows(np.sort(self._lams[failed]).tolist())
        for k in present:
            draws = kinds == k if len(present) > 1 else slice(None)
            lo, hi, cdf = self._windows[k]
            if cdf is None:
                cdf = _poisson_cdf(self._lams.item(k), lo, hi)
            odd[draws] = (lo + np.searchsorted(cdf, uniforms[draws], side="left")) & 1

    def __call__(self, kinds: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Whether each draw's photon number is odd; ``kinds`` index the means."""
        if len(self._rows) == _GUIDE_BINS:  # no kept row
            odd = np.empty(len(kinds), bool)
            self._bisect(odd, kinds, _uniforms(words))
            return odd
        shift = self._shift
        bins = (words >> (shift if isinstance(shift, int) else shift.take(kinds))).view(np.int64)
        bins += self._offsets.take(kinds)
        codes = self._rows.take(bins)
        odd = codes == 1
        rest = np.flatnonzero(codes == _BISECT)
        if rest.size:
            found = np.empty(rest.size, bool)
            self._bisect(found, kinds[rest], _uniforms(words[rest]))
            odd[rest] = found
        return odd


def batch_parity_is_odd(lams: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized parity sampling by single-uniform CDF inversion.

    Element i draws a photon number as the smallest n with
    uniforms[i] <= CDF_{lams[i]}(n), or hi + 1 if none (nan included),
    then reports whether n is odd.  Each distinct mean lam gets one table,
    searched once, over the window
    lo = max(0, floor(lam - 12 sqrt(lam + 1) - 20)) to hi = default cutoff,
    about 24 sqrt(lam) entries.  By the Chernoff bounds the mass above hi
    is below POISSON_TAIL_BOUND and the mass below lo below exp(-72).
    The table comes from _poisson_weights, as the oracle's does.  Windows
    starting at 0 (every mean up to about 184) hold the CDF from the
    recursion p_0 = exp(-lam), p_n = p_{n-1} lam / n; higher windows are
    built by ratios about the mode and normalised to end at exactly 1.
    Raises ValueError when a mean is not finite and nonnegative, or when
    its window would exceed MAX_TABLE_ENTRIES, before any is allocated.
    """
    lams = np.asarray(lams, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if lams.shape != uniforms.shape:
        raise ValueError("lams and uniforms must have matching shapes")
    means, counts = np.unique(lams, return_counts=True)
    windows = _checked_windows(means.tolist())
    order = np.argsort(lams, axis=None, kind="stable")  # the draws of each mean in turn
    u = uniforms.ravel()[order]
    odd = np.empty(lams.size, bool)
    stops = np.cumsum(counts).tolist()
    for lam, (lo, hi), start, stop in zip(means.tolist(), windows, [0, *stops], stops):
        odd[order[start:stop]] = (lo + np.searchsorted(_poisson_cdf(lam, lo, hi), u[start:stop])) & 1
    return odd.reshape(lams.shape)
