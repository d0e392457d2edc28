"""Gaussian-cloning attack and BB84-style key-rate analysis.

The cloning map splits a transmitted amplitude between Bob and Eve:

    |mu>|0>_E  ->  |mu cos|eta|>_B |mu (eta/|eta|) sin|eta|>_E

For real eta the phase factor reduces to a sign, so Bob's factor is
cos(eta) and Eve's is sin(eta).  After the announced corrective
displacement, Bob holds |delta> with delta = (alpha +- beta)(cos eta - 1)
and Eve holds |delta'> with delta' = (alpha +- beta)(sin eta - 1); odd
parity on a prepared-even target is an error, with probability

    p_odd(delta) = (1 - exp(-2 |delta|^2)) / 2

averaged over the two equiprobable preparations.  A sinh-based variant of
that probability, sinh(|delta|^2) exp(-|delta|^2 / 2), is evaluated
alongside for the discrepancy report; it does not agree with the
squared-overlap sum (which forces the closed form above) and can exceed 1.

Mutual informations are I(A:B) = 1 - H2(P01) and I(A:E) = 1 - H2(Q01)
with H2 the binary entropy in bits (equiprobable preparation makes
H(A) = 1 bit), and the rate is their difference.  At eta = pi/4 the two
amplitude factors coincide, the error probabilities are equal, and the
rate vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coherent import (
    EXCLUDED_REGION_EPS,
    default_cutoff,
    parity_by_truncation,
    parity_probabilities,
)

__all__ = [
    "HALF_PI",
    "CloneOutput",
    "KeyRatePoint",
    "EveOptimum",
    "clone",
    "bob_amplitude_factor",
    "eve_amplitude_factor",
    "odd_parity_closed_form",
    "odd_parity_sinh_form",
    "bob_error",
    "eve_error",
    "bob_error_sinh_form",
    "eve_error_sinh_form",
    "bob_error_truncated",
    "eve_error_truncated",
    "binary_entropy",
    "key_rate_point",
    "optimize_eve",
    "key_rate_curve",
]

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CloneOutput:
    bob: complex
    eve: complex


def bob_amplitude_factor(eta: float) -> float:
    return math.cos(abs(eta))


def eve_amplitude_factor(eta: float) -> float:
    # sin(eta) evaluated as cos(pi/2 - eta): bitwise equal to Bob's factor
    # at eta = pi/4 and exactly 1 at eta = pi/2, which makes the rate
    # pivot and the endpoint identities exact in floating point.
    return math.cos(HALF_PI - eta)


def clone(state: complex, eta: float) -> CloneOutput:
    """Split an amplitude between Bob (cos factor) and Eve (sin factor).

    eta = 0 maps to (state, 0) by continuity.
    """
    state = complex(state)
    if not (math.isfinite(state.real) and math.isfinite(state.imag)):
        raise ValueError(f"state must be finite, got {state!r}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    if eta == 0.0:
        return CloneOutput(bob=state, eve=0j)
    return CloneOutput(
        bob=state * bob_amplitude_factor(eta),
        eve=state * eve_amplitude_factor(eta),
    )


def odd_parity_closed_form(delta: complex) -> float:
    """(1 - exp(-2 |delta|^2)) / 2, the odd-parity probability of |delta>."""
    return parity_probabilities(delta).p_odd


def odd_parity_sinh_form(delta: complex) -> float:
    """sinh(|delta|^2) exp(-|delta|^2 / 2): the alternate printed-form value.

    Kept only for side-by-side comparison; it exceeds the closed form
    everywhere away from delta = 0 and is not a probability for large
    amplitudes.
    """
    delta = complex(delta)
    m2 = delta.real * delta.real + delta.imag * delta.imag
    return math.sinh(m2) * math.exp(-m2 / 2.0)


def _check_not_excluded(alpha: float, beta: float) -> None:
    if abs(alpha) < EXCLUDED_REGION_EPS and abs(beta) < EXCLUDED_REGION_EPS:
        raise ValueError(
            "alpha and beta are jointly inside the excluded region of the "
            "fine-grained relation"
        )


def _average_over_preparations(alpha: float, beta: float, scale: float, form) -> float:
    # delta_+- = (alpha +- beta)(scale - 1), equal preparation weights.
    shift = scale - 1.0
    return 0.5 * (form((alpha + beta) * shift) + form((alpha - beta) * shift))


def bob_error(alpha: float, beta: float, eta: float) -> float:
    """P01: Bob's odd-parity probability on a prepared-even target."""
    _check_not_excluded(alpha, beta)
    return _average_over_preparations(
        alpha, beta, bob_amplitude_factor(eta), odd_parity_closed_form
    )


def eve_error(alpha: float, beta: float, eta: float) -> float:
    """Q01: Eve's odd-parity probability under the same announced rule."""
    _check_not_excluded(alpha, beta)
    return _average_over_preparations(
        alpha, beta, eve_amplitude_factor(eta), odd_parity_closed_form
    )


def bob_error_sinh_form(alpha: float, beta: float, eta: float) -> float:
    return _average_over_preparations(
        alpha, beta, bob_amplitude_factor(eta), odd_parity_sinh_form
    )


def eve_error_sinh_form(alpha: float, beta: float, eta: float) -> float:
    return _average_over_preparations(
        alpha, beta, eve_amplitude_factor(eta), odd_parity_sinh_form
    )


def _odd_parity_truncated(delta: complex) -> float:
    return parity_by_truncation(delta, default_cutoff(delta)).p_odd


def bob_error_truncated(alpha: float, beta: float, eta: float) -> float:
    """P01 via the Fock-truncation oracle instead of the closed form."""
    return _average_over_preparations(
        alpha, beta, bob_amplitude_factor(eta), _odd_parity_truncated
    )


def eve_error_truncated(alpha: float, beta: float, eta: float) -> float:
    """Q01 via the Fock-truncation oracle instead of the closed form."""
    return _average_over_preparations(
        alpha, beta, eve_amplitude_factor(eta), _odd_parity_truncated
    )


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x) in bits, with 0 log 0 = 0."""
    if not math.isfinite(x) or x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"argument must lie in [0, 1], got {x!r}")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class KeyRatePoint:
    eta: float
    p01: float
    q01: float
    i_ab: float
    i_ae: float
    rate: float


def key_rate_point(alpha: float, beta: float, eta: float) -> KeyRatePoint:
    """Error probabilities, mutual informations, and rate at one eta."""
    p01 = bob_error(alpha, beta, eta)
    q01 = eve_error(alpha, beta, eta)
    i_ab = 1.0 - binary_entropy(p01)
    i_ae = 1.0 - binary_entropy(q01)
    return KeyRatePoint(
        eta=eta, p01=p01, q01=q01, i_ab=i_ab, i_ae=i_ae, rate=i_ab - i_ae
    )


@dataclass(frozen=True)
class EveOptimum:
    eta_star: float
    i_ae_star: float
    rate_at_star: float


def optimize_eve(
    alpha: float,
    beta: float,
    eta_lo: float = 0.0,
    eta_hi: float = HALF_PI,
) -> EveOptimum:
    """Maximize I(A:E) over eta in [eta_lo, eta_hi]: the maximum is at eta_hi.

    I(A:E) is non-decreasing in eta on [0, pi/2].  Eve's offset after the
    announced displacement, |alpha +- beta| (1 - sin eta), falls as eta
    grows; her odd-parity probability (1 - exp(-2 |delta|^2)) / 2 rises
    with the offset and stays below 1/2; and H2 is increasing on [0, 1/2].
    So her error Q01 falls, H2(Q01) falls and I(A:E) = 1 - H2(Q01) rises.
    On the full interval the maximum sits at eta = pi/2 where Eve keeps
    everything; capping the interval at pi/4 (Eve's clone no better than
    Bob's) yields the symmetric-clone optimum.
    """
    if not (0.0 <= eta_lo < eta_hi <= HALF_PI + 1e-12):
        raise ValueError(
            f"need 0 <= eta_lo < eta_hi <= pi/2, got [{eta_lo!r}, {eta_hi!r}]"
        )
    point = key_rate_point(alpha, beta, eta_hi)
    return EveOptimum(eta_star=eta_hi, i_ae_star=point.i_ae, rate_at_star=point.rate)


def key_rate_curve(alpha: float, beta: float, eta_grid: list[float]) -> list[KeyRatePoint]:
    """key_rate_point evaluated over a sorted eta grid, in grid order."""
    eta_grid = [float(e) for e in eta_grid]
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    if any(later < earlier for earlier, later in zip(eta_grid, eta_grid[1:])):
        raise ValueError("eta_grid must be sorted ascending")
    return [key_rate_point(alpha, beta, eta) for eta in eta_grid]
