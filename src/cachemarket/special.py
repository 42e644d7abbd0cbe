"""Special functions used by the coverage closed forms.

The coverage constants need C = (2/alpha) delta^(2/alpha) B(2/alpha,
1-2/alpha), Theta = A - C + 1 and, through A, the Gauss hypergeometric
function in the fixed pattern 2F1(1, 1-2/alpha; 2-2/alpha; -delta).
Each comes from an exact identity:

- the Beta function by the reflection formula B(x, 1-x) = pi / sin(pi x);
- for delta > 2, Theta by the large-argument expansion of the 2F1
  (the connection formula, DLMF 15.8), whose leading term is exactly C:

      Theta = (2/alpha) sum_{k>=1} (-1)^(k+1) delta^-k / (k + 2/alpha),

  alternating terms of decreasing size, so nothing cancels;
- for delta <= 2, the 2F1 by its Pfaff-transformed power series.

Every series has ratio at most 2/3 on its side of delta = 2, so each
sums in at most about 100 terms.  The defining integrals survive as test
oracles only.
"""

from __future__ import annotations

import math

__all__ = ["hyp2f1_unit_a", "a_factor", "c_factor", "theta_factor"]

# Theta's large-delta series is used above this delta, the Pfaff series
# at or below it.  On either side a term falls below 1e-17 of the sum
# within the term counts below.
_SERIES_SPLIT = 2.0
_PFAFF_TERMS = 100  # term n < (2/3)^n and the sum is at least 1
_THETA_TERMS = 60  # term k < 2^(2-k) times the sum


def _check_domain(alpha: float, delta: float) -> None:
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"path-loss exponent must be finite and exceed 2, got {alpha}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"SINR threshold must be positive and finite, got {delta}")


def hyp2f1_unit_a(alpha: float, delta: float) -> float:
    """2F1(1, 1-2/alpha; 2-2/alpha; -delta) for alpha > 2, delta > 0.

    For delta <= 2 the Pfaff transformation maps the argument into
    (0, 2/3], with b = 1 - 2/alpha:

        2F1(1, b; b+1; -d) = (1+d)^-1 * 2F1(1, 1; b+1; d/(1+d)).

    For delta > 2 it is read back from Theta: A = Theta + C - 1.
    """
    _check_domain(alpha, delta)
    if delta > _SERIES_SPLIT:
        a = theta_factor(delta, alpha) + c_factor(delta, alpha) - 1.0
        return (alpha - 2.0) / (2.0 * delta) * a
    b = 1.0 - 2.0 / alpha
    w = delta / (1.0 + delta)
    # 2F1(1, 1; b+1; w) = sum_n n!/(b+1)_n w^n; each ratio is below w <= 2/3
    total = 1.0
    term = 1.0
    for n in range(1, _PFAFF_TERMS):
        term *= n / (b + n) * w
        total += term
        if term < 1e-17 * total:
            break
    return total / (1.0 + delta)


def a_factor(delta: float, alpha: float) -> float:
    """A(delta, alpha) = 2 delta / (alpha - 2) * 2F1(1, 1-2/a; 2-2/a; -delta)."""
    hyp = hyp2f1_unit_a(alpha, delta)  # checks the domain first
    return 2.0 * delta / (alpha - 2.0) * hyp


def c_factor(delta: float, alpha: float) -> float:
    """C(delta, alpha) = (2/alpha) delta^(2/alpha) pi / sin(2 pi / alpha).

    B(x, 1-x) = pi / sin(pi x) is symmetric in x and 1-x; the sine takes
    whichever of 2/alpha and (alpha-2)/alpha is at most 1/2, where it is
    well conditioned.
    """
    _check_domain(alpha, delta)
    two_over_alpha = 2.0 / alpha
    x = min(two_over_alpha, (alpha - 2.0) / alpha)
    return two_over_alpha * delta**two_over_alpha * (math.pi / math.sin(math.pi * x))


def theta_factor(delta: float, alpha: float, c: float | None = None) -> float:
    """Theta(delta, alpha) = A - C + 1, which is positive.

    c is c_factor(delta, alpha) when the caller has it already; only
    delta <= 2 reads C.
    """
    _check_domain(alpha, delta)
    if delta <= _SERIES_SPLIT:
        return a_factor(delta, alpha) - (c_factor(delta, alpha) if c is None else c) + 1.0
    two_over_alpha = 2.0 / alpha
    # sum_k (-1)^(k+1) delta^-k / (k + 2/alpha); |term| halves at least
    # every step, and the sum is at least half its first term
    total = 0.0
    power = -1.0
    for k in range(1, _THETA_TERMS):
        power /= -delta
        term = power / (k + two_over_alpha)
        total += term
        if abs(term) < 1e-17 * total:
            break
    return two_over_alpha * total
