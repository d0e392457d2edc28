"""Temporal steering game with displaced-parity measurements.

Alice prepares |alpha + beta> with probability p_plus and |alpha - beta>
otherwise (beta real), sends the system through a channel, and announces
which displacement (gamma1 for the plus branch, gamma2 for the minus
branch) the receiver should apply before measuring parity.  The figure of
merit is

    S = p_plus P(b | gamma1, alpha + beta)
        + (1 - p_plus) P(b | gamma2, alpha - beta)

which preparation-independent (unsteerable) channel models nominally keep
inside [1/4, 3/4]; a value outside the window is a steering violation.

Channels: Ideal passes the state through, GaussianClone keeps the
cos-scaled copy (Eve the sin-scaled one), and LhsMixture replaces the
state by a fixed mixture of coherent states regardless of the
preparation.  A channel's ``components`` maps prepared amplitudes (a
scalar or a numpy array) to the mixture (weight, Bob's amplitude, Eve's
amplitude or None); the protocol samples the same map.  Mixtures enter
through convex combination of parity probabilities (parity is linear in
the density operator), so no density-matrix machinery is needed.

``branch_probabilities`` gives the two terms b1, b2 of S before the p_plus
weighting.  With the canonical displacements gamma1 = -(alpha + beta) and
gamma2 = -(alpha - beta) they depend on beta alone, so a region sweep
evaluates them for all betas at once, as arrays from
coherent.parity_closed_form, and forms p b1 + (1 - p) b2 over the p grid,
bitwise what steering_sum gives; it returns the sums as one (beta, p)
array and leaves verdicts to the caller (``verdict_codes`` over the array).
By the same linearity in the density operator, the branch probabilities
of a mixture whose weights vary with p are each state's branch
probabilities, taken once and mixed over p.

The closed-form boundary of the steerable region in the (beta, p) plane
is provided for comparison; the model it derives from is not reproduced
by the direct mixture construction, so sweeps and the formula are only
ever compared side by side, never asserted against each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coherent import (
    Parity,
    _mean_photon_number,
    in_excluded_region,
    parity_closed_form,
)
# Unused here: perfbench/selftest.py checks that the benchmark's tracer
# wraps this name in this module.
from .coherent import parity_probabilities  # noqa: F401
from .keyrate import bob_amplitude_factor, eve_amplitude_factor

__all__ = [
    "LOWER_BOUND",
    "UPPER_BOUND",
    "Verdict",
    "PreparationEnsemble",
    "SteeringScenario",
    "IdealChannel",
    "GaussianCloneChannel",
    "LhsMixtureChannel",
    "Channel",
    "SteeringEvaluation",
    "RegionBoundary",
    "verdict_codes",
    "steering_verdict",
    "branch_probabilities",
    "steering_sum",
    "steerable_region_bounds",
    "region_sweep",
]

LOWER_BOUND = 0.25
UPPER_BOUND = 0.75

# Values within this distance of a bound count as inside it.
TIE_TOL = 1e-12

_BOUNDARY_SINGULAR_EPS = 1e-6


class Verdict(Enum):
    WITHIN_BOUNDS = "within_bounds"
    VIOLATES_UPPER = "violates_upper"
    VIOLATES_LOWER = "violates_lower"


@dataclass(frozen=True)
class PreparationEnsemble:
    """Alice's game parameters: real alpha, real beta, branch probability."""

    alpha: float
    beta: float
    p_plus: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not (0.0 <= self.p_plus <= 1.0):
            raise ValueError(f"p_plus must lie in [0, 1], got {self.p_plus!r}")


@dataclass(frozen=True)
class SteeringScenario:
    ensemble: PreparationEnsemble
    gamma1: complex
    gamma2: complex
    outcome: Parity

    def __post_init__(self):
        if not isinstance(self.outcome, Parity):
            raise ValueError(f"outcome must be a Parity, got {self.outcome!r}")
        object.__setattr__(self, "gamma1", complex(self.gamma1))
        object.__setattr__(self, "gamma2", complex(self.gamma2))
        for g in (self.gamma1, self.gamma2):
            if not (math.isfinite(g.real) and math.isfinite(g.imag)):
                raise ValueError("displacements must be finite")


@dataclass(frozen=True)
class IdealChannel:
    """Noiseless pass-through."""

    def components(self, prepared):
        """One component: the prepared amplitude itself, no eavesdropper."""
        return ((1.0, prepared, None),)


@dataclass(frozen=True)
class GaussianCloneChannel:
    """Receiver keeps the cos-scaled clone of the transmitted amplitude."""

    eta: float

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")

    def components(self, prepared):
        """One component: Bob's cos|eta| clone and Eve's sin(eta) clone."""
        bob, eve = bob_amplitude_factor(self.eta), eve_amplitude_factor(self.eta)
        return ((1.0, prepared * bob, prepared * eve),)


@dataclass(frozen=True)
class LhsMixtureChannel:
    """Preparation-independent output: a fixed mixture of coherent states."""

    states: tuple[complex, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        states = tuple(complex(s) for s in self.states)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        if len(states) != len(weights) or not states:
            raise ValueError("states and weights must be equal-length and nonempty")
        if not all(math.isfinite(w) and w >= 0.0 for w in weights):
            raise ValueError(f"weights must be finite and nonnegative, got {weights!r}")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")

    def components(self, prepared):
        """The fixed states, whatever was prepared.

        That independence is exactly what makes the model unsteerable.
        """
        return tuple((w, s, None) for w, s in zip(self.weights, self.states))


Channel = IdealChannel | GaussianCloneChannel | LhsMixtureChannel


def _conditional_probability(channel: Channel, prepared, gamma, outcome: Parity):
    """P(outcome | gamma, prepared): the channel components' parity
    probabilities, weighted and summed in component order.

    ``prepared`` and ``gamma`` are complex numbers or numpy arrays; over
    arrays, element k is bitwise the value at their elements k.  Raises
    ValueError where a displaced output, Bob's amplitude plus gamma, is not
    finite.
    """
    index = 0 if outcome is Parity.EVEN else 1
    total = 0.0
    # Overflow gives inf silently, as in float arithmetic, and is then refused.
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, bob, _ in channel.components(prepared):
            delta = bob + gamma
            finite = np.isfinite(delta)
            if not finite.all():
                value = np.ravel(delta)[np.argmin(finite)].item()
                raise ValueError(f"a displaced channel output is not finite: {value!r}")
            total = total + weight * parity_closed_form(_mean_photon_number(delta))[index]
    return total


def branch_probabilities(scenario: SteeringScenario, channel: Channel) -> tuple[float, float]:
    """P(b | gamma1, alpha + beta) and P(b | gamma2, alpha - beta); p_plus does not enter."""
    ens, outcome = scenario.ensemble, scenario.outcome
    plus = _conditional_probability(channel, complex(ens.alpha + ens.beta), scenario.gamma1, outcome)
    minus = _conditional_probability(channel, complex(ens.alpha - ens.beta), scenario.gamma2, outcome)
    return plus, minus


def verdict_codes(totals) -> np.ndarray:
    """Classify probability sums against the [1/4, 3/4] window.

    Returns int8 codes of the same shape, indexing ``tuple(Verdict)``: 0
    within bounds, 1 above, 2 below.  Bounds are inclusive; equality at
    either edge (within TIE_TOL) is within bounds.
    """
    totals = np.asarray(totals, dtype=float)
    codes = np.zeros(totals.shape, np.int8)
    codes[totals > UPPER_BOUND + TIE_TOL] = 1
    codes[totals < LOWER_BOUND - TIE_TOL] = 2
    return codes


_VERDICTS = tuple(Verdict)


def steering_verdict(total: float) -> Verdict:
    """The verdict_codes classification of one sum, as a Verdict."""
    return _VERDICTS[int(verdict_codes(total))]


@dataclass(frozen=True)
class SteeringEvaluation:
    sum: float
    verdict: Verdict
    excluded_region: bool
    lower: float = LOWER_BOUND
    upper: float = UPPER_BOUND


def steering_sum(scenario: SteeringScenario, channel: Channel) -> SteeringEvaluation:
    """Evaluate the steering combination for a scenario and channel.

    Each branch conditions on the announced displacement being applied to
    the channel output of that branch's preparation; for LhsMixture both
    branches see the same mixture.
    """
    ens = scenario.ensemble
    p_branch1, p_branch2 = branch_probabilities(scenario, channel)
    total = ens.p_plus * p_branch1 + (1.0 - ens.p_plus) * p_branch2
    return SteeringEvaluation(
        sum=total,
        verdict=steering_verdict(total),
        excluded_region=in_excluded_region(ens.alpha, ens.beta),
    )


@dataclass(frozen=True)
class RegionBoundary:
    """Closed-form steerable-region bounds at one beta.

    ``is_real`` is False where the square-root argument turns negative
    (small beta); there the two bounds are complex conjugates and the
    stored values are their common real part.
    """

    p_low: float
    p_high: float
    is_real: bool


def steerable_region_bounds(beta: float) -> RegionBoundary:
    """Evaluate the closed-form region boundary at a real displacement.

    With E = exp(-4 beta^2):

        p_low  = ( sqrt(2) sqrt(2 E^2 - 3 E + 1) + 2 E - 2) / (4 (E - 1))
        p_high = (-sqrt(2) sqrt(2 E^2 - 3 E + 1) + 2 E - 2) / (4 (E - 1))

    The two expressions sum to 1 identically.  The formula has a removable
    singularity at beta = 0; inputs that close to zero are rejected.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if abs(beta) < _BOUNDARY_SINGULAR_EPS:
        raise ValueError(
            f"boundary formula is singular at beta = 0 (|beta| = {abs(beta)!r})"
        )
    e = math.exp(-4.0 * beta * beta)
    arg = 2.0 * e * e - 3.0 * e + 1.0
    root = cmath.sqrt(arg)
    denom = 4.0 * (e - 1.0)
    p_low = (math.sqrt(2.0) * root + 2.0 * e - 2.0) / denom
    p_high = (-math.sqrt(2.0) * root + 2.0 * e - 2.0) / denom
    return RegionBoundary(p_low=p_low.real, p_high=p_high.real, is_real=arg >= 0.0)


def _validate_grid(grid: list[float], name: str) -> None:
    if not grid:
        raise ValueError(f"{name} must be nonempty")
    if any(later < earlier for earlier, later in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be sorted ascending")


def region_sweep(
    beta_grid: list[float],
    p_grid: list[float],
    alpha: float,
    channel: Channel,
) -> np.ndarray:
    """Steering sums over a (beta, p) grid with the canonical displacements.

    Uses gamma1 = -(alpha + beta), gamma2 = -(alpha - beta) and the even
    outcome at every grid point.  Returns a float64 array of shape
    (len(beta_grid), len(p_grid)); entry [i, j] is bitwise steering_sum's
    value at (beta_grid[i], p_grid[j]), from two branch probabilities per
    beta (see the module docstring).  Raises ValueError for a non-finite
    alpha or beta, or where alpha + beta, alpha - beta or a displaced
    channel output is not finite.
    """
    beta_grid = [float(b) for b in beta_grid]
    p_grid = [float(p) for p in p_grid]
    _validate_grid(beta_grid, "beta_grid")
    _validate_grid(p_grid, "p_grid")
    if not all(0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("p_grid must lie in [0, 1]")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    betas = np.array(beta_grid)
    finite = np.isfinite(betas)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"displacement beta is not finite: beta_grid[{k}] is {beta_grid[k]!r}")
    with np.errstate(over="ignore"):  # inf where it overflows, refused below
        displacements = (("+", alpha + betas), ("-", alpha - betas))
    branches = []
    for sign, prepared in displacements:
        finite = np.isfinite(prepared)
        if not finite.all():
            beta = beta_grid[np.argmin(finite)]
            raise ValueError(
                f"displacement alpha {sign} beta overflows at alpha {alpha!r} and beta {beta!r}"
            )
        branches.append(_conditional_probability(channel, prepared, -prepared, Parity.EVEN))
    ps = np.array(p_grid)
    sums = ps * branches[0][:, None]
    sums += (1.0 - ps) * branches[1][:, None]
    return sums
