"""Phase-space uncertainty relations for beam profiles and parity statistics.

Four statements are evaluated, all in the dimensionless variables
X = sqrt(2) x / sigma and P = sigma p / (sqrt(2) lambdabar):

* variance product:      (dX^2)(dP^2) >= 1/4, saturated by the
  minimum-uncertainty Gaussian family, the only profiles modelled here,
* entropic relation:     H(X) + H(P) >= ln(pi e) in nats, with H the
  differential Shannon entropy of |Psi|^2 in position and wave-vector
  space, saturated by the same family,
* fine-grained relation: a convex combination of displaced-parity outcome
  probabilities, nominally confined to [1/4, 3/4] away from the degenerate
  point where both the state and the displacement vanish; like the
  steering sum (and, by linearity of parity in the density operator, a
  mixture's branch probabilities), it mixes two branches by p_beta,
* min-entropy chain:     H_inf(+beta) + H_inf(-beta) >= -2 log2(3/4),
  with H_inf = -log2 of the most likely parity outcome.

Differential entropies are reported in nats (the ln(pi e) bound fixes the
unit); min-entropies are in bits.  Measuring parity displaced by beta is
implemented as back-displacement of the state by beta followed by a bare
parity measurement, which is the same operation by conjugation.

The fine-grained window is not asserted here: direct evaluation puts the
even-outcome combination above 3/4 for small displacements even at
nonzero amplitude.  Callers get the value plus a flag for the degenerate
region and decide what to do with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import (
    Parity,
    ParityDistribution,
    displace,
    in_excluded_region,
    parity_probabilities,
)

__all__ = [
    "ENTROPIC_BOUND",
    "MIN_ENTROPY_BOUND",
    "GaussianBeamProfile",
    "GriddedWavefunction",
    "FineGrainedResult",
    "EntropicSumResult",
    "MinEntropyResult",
    "variance_product",
    "gaussian_wavefunction",
    "profile_wavefunction",
    "fourier_to_wavevector",
    "differential_entropy",
    "entropic_sum_check",
    "fine_grained_sum",
    "min_entropy_bound_check",
]

ENTROPIC_BOUND = math.log(math.pi * math.e)

MIN_ENTROPY_BOUND = -2.0 * math.log2(0.75)

# Standard evaluation grid: wide and fine enough that Riemann sums meet the
# 1e-4 entropy tolerance across sigma_x in [0.25, 4].
STANDARD_GRID_POINTS = 4096
STANDARD_GRID_SPAN_SIGMAS = 12.0

# sigma_x accepted by profile_wavefunction.  The standard grid reaches
# 12 sigma_x in position and about 536 / sigma_x in wave vector, and the
# squares of both must stay finite (below about 1.8e308): sigma_x from
# about 4e-152 to 1e153.  The range stays a factor of 25 or more inside.
STANDARD_GRID_SIGMA_X_RANGE = (1e-150, 1e150)

_NORM_TOL = 1e-8
_COVERAGE_SIGMAS = 10.0
_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class GaussianBeamProfile:
    """Minimum-uncertainty Gaussian beam in the dimensionless phase-space
    variables: its momentum width is 1 / (2 sigma_x)."""

    x0: float = 0.0
    k0: float = 0.0
    sigma_x: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.k0)):
            raise ValueError("profile means must be finite")
        if not (math.isfinite(self.sigma_x) and self.sigma_x > 0.0):
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x!r}")


def variance_product(profile: GaussianBeamProfile) -> float:
    """(dX^2)(dP^2) for the profile: 1/4, since every profile saturates it."""
    return 0.25


@dataclass(frozen=True, eq=False)
class GriddedWavefunction:
    """Complex wavefunction sampled on a uniform grid.

    Invariants checked at construction: the Riemann-sum L2 norm is 1
    within 1e-8 and the grid covers at least +-10 standard deviations of
    the probability density.
    """

    samples: np.ndarray
    x_min: float
    dx: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-d array with at least two points")
        if not np.all(np.isfinite(samples.real)) or not np.all(np.isfinite(samples.imag)):
            raise ValueError("samples must be finite")
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if not math.isfinite(self.x_min):
            raise ValueError("x_min must be finite")
        norm = float(np.sum(np.abs(samples) ** 2) * self.dx)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"wavefunction is not normalized: L2 norm {norm!r}")
        x = self.x
        rho = np.abs(samples) ** 2 * self.dx
        mean = float(np.sum(x * rho))
        std = math.sqrt(max(float(np.sum((x - mean) ** 2 * rho)), 0.0))
        if std > 0.0:
            lo_needed = mean - _COVERAGE_SIGMAS * std
            hi_needed = mean + _COVERAGE_SIGMAS * std
            if x[0] > lo_needed or x[-1] < hi_needed:
                raise ValueError(
                    "grid does not cover +-10 standard deviations of the density"
                )

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.samples.size)

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


def gaussian_wavefunction(
    x0: float = 0.0,
    k0: float = 0.0,
    sigma_x: float = 1.0,
    n: int = STANDARD_GRID_POINTS,
    span_sigmas: float = STANDARD_GRID_SPAN_SIGMAS,
) -> GriddedWavefunction:
    """Normalized Gaussian wavepacket on the standard grid.

    The density |Psi|^2 has mean x0 and standard deviation sigma_x; the
    carrier exp(i k0 x) centers the wave-vector density at k0.
    """
    if not (math.isfinite(sigma_x) and sigma_x > 0.0):
        raise ValueError(f"sigma_x must be positive and finite, got {sigma_x!r}")
    half = span_sigmas * sigma_x
    dx = 2.0 * half / n
    # sigma_x * sigma_x overflows to inf where sigma_x**2 raises OverflowError.
    if not (0.0 < dx < math.inf and 0.0 < sigma_x * sigma_x < math.inf):
        raise ValueError(
            f"sigma_x {sigma_x!r} is out of range: the grid spacing or sigma_x**2 "
            "is 0 or not finite"
        )
    x = (x0 - half) + dx * np.arange(n)
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(
            f"x0 {x0!r} is too far from 0 for a grid spacing of {dx!r}: "
            "the grid points are not strictly increasing"
        )
    variance = sigma_x**2
    envelope = (2.0 * math.pi * variance) ** -0.25 * np.exp(-((x - x0) ** 2) / (4.0 * variance))
    samples = envelope * np.exp(1j * k0 * x)
    samples = samples / math.sqrt(float(np.sum(np.abs(samples) ** 2) * dx))
    return GriddedWavefunction(samples=samples, x_min=float(x[0]), dx=dx)


def profile_wavefunction(profile: GaussianBeamProfile) -> GriddedWavefunction:
    """Standard-grid wavefunction realizing the profile."""
    lo, hi = STANDARD_GRID_SIGMA_X_RANGE
    if not lo <= profile.sigma_x <= hi:
        raise ValueError(
            f"sigma_x must lie in [{lo:g}, {hi:g}] on the standard grid, got {profile.sigma_x!r}"
        )
    return gaussian_wavefunction(
        x0=profile.x0, k0=profile.k0, sigma_x=profile.sigma_x
    )


def fourier_to_wavevector(psi: GriddedWavefunction) -> GriddedWavefunction:
    """Continuous Fourier transform to wave-vector space, on-grid.

    Uses the unitary convention
        Psi(k) = (2 pi)^{-1/2} integral Psi(x) exp(-i k x) dx
    discretized with the FFT and the grid's phase reference, so Parseval
    holds to rounding and the output grid spacing is 2 pi / (n dx).
    Applying the transform twice reflects the wavefunction through the
    origin.
    """
    n = psi.n
    dk = 2.0 * math.pi / (n * psi.dx)
    spectrum = np.fft.fft(psi.samples)
    k_unshifted = 2.0 * math.pi * np.fft.fftfreq(n, d=psi.dx)
    phased = (psi.dx / math.sqrt(2.0 * math.pi)) * np.exp(
        -1j * k_unshifted * psi.x_min
    ) * spectrum
    samples = np.fft.fftshift(phased)
    k = np.fft.fftshift(k_unshifted)
    return GriddedWavefunction(samples=samples, x_min=float(k[0]), dx=dk)


def differential_entropy(density_grid: GriddedWavefunction) -> float:
    """Riemann-sum differential entropy -integral rho ln rho, in nats.

    Grid cells with density below 1e-300 contribute zero.
    """
    rho = density_grid.density
    mask = rho >= _DENSITY_FLOOR
    contrib = np.zeros_like(rho)
    contrib[mask] = rho[mask] * np.log(rho[mask])
    return float(-np.sum(contrib) * density_grid.dx)


@dataclass(frozen=True)
class EntropicSumResult:
    h_x: float
    h_p: float
    sum: float
    bound: float = ENTROPIC_BOUND
    satisfied: bool = True


def entropic_sum_check(psi: GriddedWavefunction) -> EntropicSumResult:
    """Evaluate H(X) + H(P) against the ln(pi e) lower bound."""
    h_x = differential_entropy(psi)
    h_p = differential_entropy(fourier_to_wavevector(psi))
    total = h_x + h_p
    return EntropicSumResult(
        h_x=h_x,
        h_p=h_p,
        sum=total,
        bound=ENTROPIC_BOUND,
        satisfied=total >= ENTROPIC_BOUND - 1e-4,
    )


@dataclass(frozen=True)
class FineGrainedResult:
    value: float
    excluded_region: bool


def _displaced_parity(state: complex, beta: complex) -> ParityDistribution:
    # Parity displaced by beta == bare parity of the state back-displaced
    # by beta.
    return parity_probabilities(displace(state, -beta))


def fine_grained_sum(
    state: complex, beta: complex, p_beta: float, outcome: Parity
) -> FineGrainedResult:
    """Convex combination of displaced-parity outcome probabilities.

    The parity displaced by +beta is measured with probability ``p_beta``
    and the one displaced by -beta otherwise:

        p_beta P(outcome | state - beta) + (1 - p_beta) P(outcome | state + beta)

    The result carries a flag marking the degenerate point where both the
    state and the displacement vanish.
    """
    if not (0.0 <= p_beta <= 1.0):
        raise ValueError(f"p_beta must lie in [0, 1], got {p_beta!r}")
    if not isinstance(outcome, Parity):
        raise ValueError(f"outcome must be a Parity, got {outcome!r}")
    state = complex(state)
    beta = complex(beta)
    p_plus_branch = _displaced_parity(state, beta).prob(outcome)
    p_minus_branch = _displaced_parity(state, -beta).prob(outcome)
    value = p_beta * p_plus_branch + (1.0 - p_beta) * p_minus_branch
    return FineGrainedResult(value=value, excluded_region=in_excluded_region(state, beta))


@dataclass(frozen=True)
class MinEntropyResult:
    h_inf_plus: float
    h_inf_minus: float
    sum: float
    bound: float = MIN_ENTROPY_BOUND
    satisfied: bool = True
    excluded_region: bool = False


def min_entropy_bound_check(state: complex, beta: complex) -> MinEntropyResult:
    """Min-entropy sum of the two displaced-parity measurements, in bits.

    H_inf(+-beta) = -log2 max_b P(b); the sum is compared against
    -2 log2(3/4) and the verdict reported, not asserted, since the bound
    inherits the fine-grained window's caveats.
    """
    state = complex(state)
    beta = complex(beta)
    dist_plus = _displaced_parity(state, beta)
    dist_minus = _displaced_parity(state, -beta)
    h_plus = -math.log2(max(dist_plus.p_even, dist_plus.p_odd))
    h_minus = -math.log2(max(dist_minus.p_even, dist_minus.p_odd))
    total = h_plus + h_minus
    return MinEntropyResult(
        h_inf_plus=h_plus,
        h_inf_minus=h_minus,
        sum=total,
        bound=MIN_ENTROPY_BOUND,
        satisfied=total >= MIN_ENTROPY_BOUND - 1e-12,
        excluded_region=in_excluded_region(state, beta),
    )
