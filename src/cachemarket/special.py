"""Special functions used by the coverage closed forms.

Only two primitives are needed: the Beta function and the Gauss
hypergeometric function in the fixed pattern 2F1(1, 1-2/alpha;
2-2/alpha; -delta).  Both are implemented in-repo so the hot pricing
loops do not pay quadrature costs; the defining integrals survive as
test oracles only.
"""

from __future__ import annotations

import math

__all__ = [
    "beta_function",
    "hyp2f1_unit_a",
    "a_factor",
    "c_factor",
    "log_gamma",
]

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_MAX_SERIES_TERMS = 500_000


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via the Lanczos approximation."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def beta_function(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), for x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"beta_function requires x, y > 0, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def _check_domain(alpha: float, delta: float) -> None:
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"path-loss exponent must be finite and exceed 2, got {alpha}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"SINR threshold must be positive and finite, got {delta}")


def hyp2f1_unit_a(alpha: float, delta: float) -> float:
    """2F1(1, 1-2/alpha; 2-2/alpha; -delta) for alpha > 2, delta > 0.

    For delta < 1 the defining power series is summed directly; its
    terms are b/(b+n) * (-delta)^n with b = 1 - 2/alpha.  For delta >= 1
    the Pfaff transformation maps the argument into (0, 1):

        2F1(1, b; b+1; -d) = (1+d)^-1 * 2F1(1, 1; b+1; d/(1+d)).
    """
    _check_domain(alpha, delta)
    b = 1.0 - 2.0 / alpha
    if delta < 1.0:
        z = -delta
        total = 1.0
        zn = 1.0
        for n in range(1, _MAX_SERIES_TERMS):
            zn *= z
            term = b / (b + n) * zn
            total += term
            if abs(term) < 1e-17 * abs(total):
                return total
        raise ArithmeticError("hypergeometric series failed to converge")
    w = delta / (1.0 + delta)
    # 2F1(1, 1; b+1; w) = sum_n n!/(b+1)_n w^n
    total = 1.0
    term = 1.0
    for n in range(1, _MAX_SERIES_TERMS):
        term *= n / (b + n) * w
        total += term
        if term < 1e-17 * total:
            return total / (1.0 + delta)
    raise ArithmeticError("hypergeometric series failed to converge")


def a_factor(delta: float, alpha: float) -> float:
    """A(delta, alpha) = 2 delta / (alpha - 2) * 2F1(1, 1-2/a; 2-2/a; -delta)."""
    _check_domain(alpha, delta)
    return 2.0 * delta / (alpha - 2.0) * hyp2f1_unit_a(alpha, delta)


def c_factor(delta: float, alpha: float) -> float:
    """C(delta, alpha) = (2/alpha) delta^(2/alpha) B(2/alpha, 1 - 2/alpha)."""
    _check_domain(alpha, delta)
    two_over_alpha = 2.0 / alpha
    return (
        two_over_alpha
        * delta**two_over_alpha
        * beta_function(two_over_alpha, 1.0 - two_over_alpha)
    )
