"""Gaussian-cloning attack and BB84-style key-rate analysis.

The cloning map splits a transmitted amplitude between Bob and Eve:

    |mu>|0>_E  ->  |mu cos|eta|>_B |mu (eta/|eta|) sin|eta|>_E

For real eta the phase factor reduces to a sign, so Bob's factor is
cos(eta) and Eve's is sin(eta).  This module holds the two factors; the
map itself is steering.GaussianCloneChannel.components, which the steering
sums and the protocol share.  After the announced corrective
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

key_rate_curve computes all of these over an eta grid as arrays, with
the two amplitude factors, math.exp and math.log2 mapped over them, so
each element is bitwise the scalar functions' value, key_rate_point's
among them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import (
    _mapped,
    _mean_photon_number,
    default_cutoff,
    in_excluded_region,
    parity_by_truncation,
    parity_closed_form,
    parity_probabilities,
)

__all__ = [
    "HALF_PI",
    "KeyRatePoint",
    "KeyRateCurve",
    "EveOptimum",
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

# Largest argument for which math.exp does not overflow.
_MAX_EXP_ARG = math.log(sys.float_info.max)


def bob_amplitude_factor(eta: float) -> float:
    return math.cos(abs(eta))


def eve_amplitude_factor(eta: float) -> float:
    # sin(eta) evaluated as cos(pi/2 - eta): bitwise equal to Bob's factor
    # at eta = pi/4 and exactly 1 at eta = pi/2, which makes the rate
    # pivot and the endpoint identities exact in floating point.
    return math.cos(HALF_PI - eta)


def odd_parity_closed_form(delta: complex) -> float:
    """(1 - exp(-2 |delta|^2)) / 2, the odd-parity probability of |delta>."""
    return parity_probabilities(delta).p_odd


def odd_parity_sinh_form(delta: complex) -> float:
    """sinh(|delta|^2) exp(-|delta|^2 / 2): the alternate printed-form value.

    Kept only for side-by-side comparison; it exceeds the closed form
    everywhere away from delta = 0 and is not a probability for large
    amplitudes.  Where math.sinh overflows (|delta|^2 above about 710) the
    same value is taken as (exp(x/2) - exp(-3x/2)) / 2 with x = |delta|^2;
    it is inf where that overflows too (x above about 1420).
    """
    return _sinh_form(_mean_photon_number(complex(delta)))


def _sinh_form(m2: float) -> float:
    # odd_parity_sinh_form of a state with mean photon number m2.
    try:
        return math.sinh(m2) * math.exp(-m2 / 2.0)
    except OverflowError:
        half = m2 / 2.0
        if half > _MAX_EXP_ARG:
            return math.inf
        return (math.exp(half) - math.exp(-3.0 * half)) / 2.0


def _check_not_excluded(alpha: float, beta: float) -> None:
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha!r} and {beta!r}")
    if in_excluded_region(alpha, beta):
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


@dataclass(frozen=True)
class KeyRateCurve:
    """KeyRatePoint's fields over an eta grid, one float64 array each.

    ``p01_sinh_form`` and ``q01_sinh_form`` are bob_error_sinh_form and
    eve_error_sinh_form at each eta; they may hold inf or nan.
    """

    eta: np.ndarray
    p01: np.ndarray
    q01: np.ndarray
    i_ab: np.ndarray
    i_ae: np.ndarray
    rate: np.ndarray
    p01_sinh_form: np.ndarray
    q01_sinh_form: np.ndarray


def _sinh_forms(m2: np.ndarray) -> np.ndarray:
    # _sinh_form of each mean: math.sinh mapped straight unless one overflows.
    try:
        sinh = _mapped(math.sinh, m2)
    except OverflowError:
        return _mapped(_sinh_form, m2)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as in float arithmetic
        return sinh * _mapped(math.exp, -m2 / 2.0)


def _binary_entropies(p: np.ndarray) -> np.ndarray:
    # binary_entropy of each error probability, all of which lie in [0, 1/2].
    h = np.zeros_like(p)
    inner = p > 0.0
    x = p[inner]
    h[inner] = -x * _mapped(math.log2, x) - (1.0 - x) * _mapped(math.log2, 1.0 - x)
    return h


def key_rate_curve(alpha: float, beta: float, eta_grid: list[float]) -> KeyRateCurve:
    """key_rate_point's values over a sorted eta grid, in grid order.

    Element k of each array is bitwise what the scalar functions give at
    eta_grid[k]: key_rate_point for the first six fields, the sinh-form
    errors for the last two.
    """
    etas = np.array(eta_grid, dtype=float)
    if not etas.size:
        raise ValueError("eta_grid must be nonempty")
    if (etas[1:] < etas[:-1]).any():
        raise ValueError("eta_grid must be sorted ascending")
    _check_not_excluded(alpha, beta)
    # Rows: Bob's and Eve's amplitude factor at each eta, minus 1.
    factors = (bob_amplitude_factor, eve_amplitude_factor)
    shift = np.array([_mapped(factor, etas) for factor in factors]) - 1.0
    # delta_+- = (alpha +- beta)(factor - 1), as _average_over_preparations,
    # indexed (preparation, Bob or Eve, eta); overflow and inf * 0 give inf
    # and nan silently, as for floats.
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = np.multiply.outer((alpha + beta, alpha - beta), shift)
        means = offsets * offsets
    finite = np.isfinite(offsets).all(axis=(0, 1))
    if not finite.all():
        raise ValueError(
            "an offset (alpha +- beta)(amplitude factor - 1) is not finite "
            f"at eta {etas.item(np.argmin(finite))!r}"
        )
    closed, sinh = parity_closed_form(means)[1], _sinh_forms(means)
    errors = 0.5 * (closed[0] + closed[1])  # rows: p01, q01
    sinh_errors = 0.5 * (sinh[0] + sinh[1])
    info = 1.0 - _binary_entropies(errors)  # rows: i_ab, i_ae
    return KeyRateCurve(
        eta=etas, p01=errors[0], q01=errors[1], i_ab=info[0], i_ae=info[1],
        rate=info[0] - info[1], p01_sinh_form=sinh_errors[0], q01_sinh_form=sinh_errors[1],
    )
