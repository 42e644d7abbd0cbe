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

from .special import c_factor, theta_factor

__all__ = ["CoverageConstants", "make_constants", "hit_probability"]


@dataclass(frozen=True)
class CoverageConstants:
    """Derived coverage constants C, Theta = A - C + 1, Lambda = C * F."""

    c: float
    theta: float
    lambda_big: float

    def __post_init__(self) -> None:
        if not (self.c > 0 and self.theta > 0):
            raise ValueError(
                f"C and Theta must be positive, got C={self.c}, Theta={self.theta}"
            )

    def with_lambda_big(self, lambda_big) -> CoverageConstants:
        """These C and Theta with another Lambda (a float or an array).

        C and Theta were checked when self was built, so they are not
        checked again.
        """
        constants = object.__new__(CoverageConstants)
        constants.__dict__.update(c=self.c, theta=self.theta, lambda_big=lambda_big)
        return constants


def make_constants(delta: float, alpha: float, f_groups: float) -> CoverageConstants:
    """Build coverage constants for SINR threshold delta, path-loss alpha, F groups."""
    if not (math.isfinite(f_groups) and f_groups >= 1):
        raise ValueError(f"f_groups must be finite and >= 1, got {f_groups}")
    c = c_factor(delta, alpha)
    return CoverageConstants(c=c, theta=theta_factor(delta, alpha, c), lambda_big=c * f_groups)


def hit_probability(tau, constants: CoverageConstants):
    """Hit probability tau / (Theta tau + Lambda) for a rental fraction tau.

    tau may be a float or an array of fractions, evaluated elementwise.
    """
    t = np.asarray(tau)
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=1.0) <= 1.0):  # a NaN fails both
        outside = ~((t >= 0.0) & (t <= 1.0))
        raise ValueError(f"tau must lie in [0, 1], got {t[outside].flat[0]}")
    return tau / (constants.theta * tau + constants.lambda_big)
