"""Profit model: leasing income, back-haul savings, surcharge revenue.

All money quantities are per unit area per unit period (e.g. per
month per km^2).  A retailer that is priced out of the market carries
the explicit EXCLUDED marker (None) instead of an IEEE infinity, so
serialization stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import PopularityVectors
from .coverage import CoverageConstants, hit_probability

__all__ = [
    "EXCLUDED",
    "InconsistentExclusion",
    "EconomicConfig",
    "PriceVector",
    "FractionVector",
    "gamma_vector",
    "leasing_income",
    "backhaul_saving",
    "backhaul_saving_double_sum",
    "vr_profit",
    "profit_report",
    "ProfitReport",
]

# Marker for retailers priced out of the game (the closed forms write
# these prices as infinity; data files spell them "EXCLUDED").
EXCLUDED = None


class InconsistentExclusion(ValueError):
    """A positive rental fraction was paired with an EXCLUDED price."""


@dataclass(frozen=True)
class EconomicConfig:
    """Money and intensity parameters of the market.

    backhaul_cost  - cost of one video transmission over back-haul (s^bh)
    local_surcharge - per-video surcharge for cache-served delivery (s^ld)
    requests_per_mu - average video requests per user per unit period (K)
    mu_intensity   - mobile users per km^2 (zeta)
    sbs_intensity  - small cells per km^2 (lambda)
    """

    backhaul_cost: float
    local_surcharge: float
    requests_per_mu: float
    mu_intensity: float
    sbs_intensity: float

    def __post_init__(self) -> None:
        for name in (
            "backhaul_cost",
            "local_surcharge",
            "requests_per_mu",
            "mu_intensity",
            "sbs_intensity",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # every demand density Gamma_v = q_v zeta K scales with zeta K
        if not math.isfinite(self.mu_intensity * self.requests_per_mu):
            raise ValueError(
                f"zeta * K = {self.mu_intensity} * {self.requests_per_mu} "
                "overflows a float"
            )


@dataclass(frozen=True)
class PriceVector:
    """Per-retailer SBS rental prices; EXCLUDED marks priced-out retailers."""

    prices: tuple

    def __post_init__(self) -> None:
        for i, s in enumerate(self.prices):
            if s is not EXCLUDED and s < 0:
                raise ValueError(f"price {i + 1} must be >= 0, got {s}")

    def __len__(self) -> int:
        return len(self.prices)

    def n_posted(self) -> int:
        return sum(1 for s in self.prices if s is not EXCLUDED)


@dataclass(frozen=True)
class FractionVector:
    """Per-retailer fractions of rented SBSs; the total may not exceed 1."""

    fractions: tuple

    def __post_init__(self) -> None:
        for i, tau in enumerate(self.fractions):
            if not 0.0 <= tau <= 1.0:
                raise ValueError(f"fraction {i + 1} must lie in [0, 1], got {tau}")
        if sum(self.fractions) > 1.0 + 1e-9:
            raise ValueError(
                f"fractions sum to {sum(self.fractions)}, exceeding the SBS budget"
            )

    def __len__(self) -> int:
        return len(self.fractions)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.fractions, dtype=float)


@dataclass(frozen=True)
class ProfitReport:
    """All profit aggregates for one (prices, fractions) operating point."""

    nsp_leasing: float
    nsp_backhaul_saving: float
    nsp_total: float
    vr_profits: tuple
    vr_surcharge: tuple
    vr_rent: tuple
    global_total: float


def gamma_vector(q: Sequence[float], cfg: EconomicConfig) -> np.ndarray:
    """Per-retailer demand density Gamma_v = q_v * zeta * K.

    The file-group popularities drop out because they sum to one.
    """
    return np.asarray(q, dtype=float) * cfg.mu_intensity * cfg.requests_per_mu


def leasing_income(tau: FractionVector, s: PriceVector, sbs_intensity: float) -> float:
    """NSP rental income: sum of tau_j * lambda * s_j over posted prices."""
    if len(tau) != len(s):
        raise ValueError("fraction and price vectors must have equal length")
    total = 0.0
    for j, (t, price) in enumerate(zip(tau.fractions, s.prices)):
        if price is EXCLUDED:
            if t > 0.0:
                raise InconsistentExclusion(
                    f"retailer {j + 1} is excluded but rents fraction {t}"
                )
            continue
        total += t * sbs_intensity * price
    return total


def backhaul_saving(
    tau: FractionVector,
    pops: PopularityVectors,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> float:
    """Back-haul cost avoided per unit area: sum_v Gamma_v Pr(tau_v) s^bh."""
    gammas = gamma_vector(pops.q, cfg)
    return sum(
        g * hit_probability(t, constants) * cfg.backhaul_cost
        for g, t in zip(gammas, tau.fractions)
    )


def backhaul_saving_double_sum(
    tau: FractionVector,
    pops: PopularityVectors,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> float:
    """The same saving summed explicitly over (group, retailer) pairs.

    Used as a cross-check of the Gamma-collapsed form; requires exact
    group popularities (integer N/Q).
    """
    if pops.p is None:
        raise ValueError("explicit group popularities unavailable (N/Q not integer)")
    total = 0.0
    for p_f in pops.p:
        for q_v, t in zip(pops.q, tau.fractions):
            total += (
                p_f
                * q_v
                * cfg.mu_intensity
                * cfg.requests_per_mu
                * hit_probability(t, constants)
                * cfg.backhaul_cost
            )
    return total


def vr_profit(
    tau_v: float,
    s_v: float,
    gamma_v: float,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> float:
    """Retailer profit: surcharge revenue minus rent.

    Gamma_v s^ld tau / (Theta tau + Lambda) - lambda s_v tau; concave in tau.
    """
    if not 0.0 <= tau_v <= 1.0:
        raise ValueError(f"tau_v must lie in [0, 1], got {tau_v}")
    if s_v < 0:
        raise ValueError(f"s_v must be >= 0, got {s_v}")
    surcharge = (
        gamma_v * cfg.local_surcharge * hit_probability(tau_v, constants)
    )
    return surcharge - cfg.sbs_intensity * s_v * tau_v


def profit_report(
    tau: FractionVector,
    s: PriceVector,
    pops: PopularityVectors,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> ProfitReport:
    """Assemble every profit aggregate for the given operating point."""
    if not len(tau) == len(s) == len(pops.q):
        raise ValueError("vector lengths are inconsistent")
    gammas = gamma_vector(pops.q, cfg)
    surcharges = []
    rents = []
    profits = []
    for t, price, g in zip(tau.fractions, s.prices, gammas):
        surcharge = g * cfg.local_surcharge * hit_probability(t, constants)
        if price is EXCLUDED:
            if t > 0.0:
                raise InconsistentExclusion(
                    "positive fraction paired with an EXCLUDED price"
                )
            rent = 0.0
        else:
            rent = t * cfg.sbs_intensity * price
        surcharges.append(surcharge)
        rents.append(rent)
        profits.append(surcharge - rent)
    nsp_leasing = leasing_income(tau, s, cfg.sbs_intensity)
    nsp_saving = backhaul_saving(tau, pops, cfg, constants)
    nsp_total = nsp_leasing + nsp_saving
    return ProfitReport(
        nsp_leasing=nsp_leasing,
        nsp_backhaul_saving=nsp_saving,
        nsp_total=nsp_total,
        vr_profits=tuple(profits),
        vr_surcharge=tuple(surcharges),
        vr_rent=tuple(rents),
        global_total=nsp_total + sum(profits),
    )
