"""Closed-form cache-hit probability and its derived constants.

The probability that a user obtains a requested video directly from a
small cell rented by retailer v (caching the right file group) is

    Pr = tau / (C (F - tau) + A tau + tau) = tau / (Theta tau + Lambda)

with Theta = A - C + 1 and Lambda = C F.  It depends on neither the
transmit power nor the SBS intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import a_factor, c_factor

__all__ = ["CoverageConstants", "make_constants", "hit_probability"]


@dataclass(frozen=True)
class CoverageConstants:
    """Derived coverage constants A, C, Theta = A - C + 1, Lambda = C * F."""

    a: float
    c: float
    theta: float
    lambda_big: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.c <= 0:
            raise ValueError(f"A and C must be positive, got A={self.a}, C={self.c}")
        if abs(self.theta - (self.a - self.c + 1.0)) > 1e-12:
            raise ValueError("theta is inconsistent with A - C + 1")


def make_constants(delta: float, alpha: float, f_groups: float) -> CoverageConstants:
    """Build coverage constants for SINR threshold delta, path-loss alpha, F groups."""
    if not (math.isfinite(f_groups) and f_groups >= 1):
        raise ValueError(f"f_groups must be finite and >= 1, got {f_groups}")
    a = a_factor(delta, alpha)
    c = c_factor(delta, alpha)
    return CoverageConstants(a=a, c=c, theta=a - c + 1.0, lambda_big=c * f_groups)


def hit_probability(tau, constants: CoverageConstants):
    """Hit probability tau / (Theta tau + Lambda) for a rental fraction tau.

    tau may be a float or an array of fractions, evaluated elementwise.
    """
    t = np.asarray(tau)
    outside = ~((t >= 0.0) & (t <= 1.0))
    if outside.any():
        raise ValueError(f"tau must lie in [0, 1], got {t[outside].flat[0]}")
    return tau / (constants.theta * tau + constants.lambda_big)
