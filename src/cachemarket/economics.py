"""Profit model: leasing income, back-haul savings, surcharge revenue.

All money quantities are per unit area per unit period (e.g. per
month per km^2).  Participation is a prefix of the popularity order:
prices are posted to the first u retailers and the rest are priced out.
Totals are left-to-right sums (``ordered_sum``) on every interpreter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import PopularityVectors
from .coverage import CoverageConstants, hit_probability

__all__ = [
    "InconsistentExclusion",
    "EconomicConfig",
    "PriceVector",
    "FractionVector",
    "gamma_vector",
    "ordered_sum",
    "backhaul_saving",
    "vr_profit",
    "profit_report",
    "ProfitReport",
]


class InconsistentExclusion(ValueError):
    """A positive rental fraction was paired with a priced-out retailer."""


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
        # every demand density Gamma_v = q_v zeta K scales with zeta K, and
        # every money amount with s zeta K
        demand = self.mu_intensity * self.requests_per_mu
        if not math.isfinite(demand):
            raise ValueError(
                f"zeta * K = {self.mu_intensity} * {self.requests_per_mu} "
                "overflows a float"
            )
        money = max(self.backhaul_cost, self.local_surcharge) * demand
        if not money <= sys.float_info.max / 2:
            raise ValueError(f"s * zeta * K = {money:.3g} overflows a float")


def ordered_sum(x: np.ndarray) -> float:
    """Left-to-right sum, as Python 3.11's sum() adds floats; np.sum is pairwise."""
    return float(np.add.accumulate(x)[-1]) if len(x) else 0.0


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PriceVector:
    """SBS rental prices posted to retailers 1..len(prices).

    The other n_vrs - len(prices) retailers, the least popular ones, are
    priced out.  n_vrs defaults to len(prices): every retailer is priced.
    """

    prices: np.ndarray
    n_vrs: int | None = None

    def __post_init__(self) -> None:
        prices = _read_only(self.prices)
        object.__setattr__(self, "prices", prices)
        if self.n_vrs is None:
            object.__setattr__(self, "n_vrs", prices.size)
        if not prices.size <= self.n_vrs:
            raise ValueError(f"{prices.size} prices posted to {self.n_vrs} retailers")
        if not (prices >= 0).all():
            i = np.argmin(prices >= 0)
            raise ValueError(f"price {i + 1} must be >= 0, got {prices[i]}")

    def __len__(self) -> int:
        return self.n_vrs

    def n_posted(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class FractionVector:
    """Per-retailer fractions of rented SBSs; the total may not exceed 1."""

    fractions: np.ndarray

    def __post_init__(self) -> None:
        fractions = _read_only(self.fractions)
        object.__setattr__(self, "fractions", fractions)
        inside = (fractions >= 0.0) & (fractions <= 1.0)
        if not inside.all():
            i = np.argmin(inside)
            raise ValueError(f"fraction {i + 1} must lie in [0, 1], got {fractions[i]}")
        total = ordered_sum(fractions)
        if total > 1.0 + 1e-9:
            raise ValueError(f"fractions sum to {total}, exceeding the SBS budget")

    def __len__(self) -> int:
        return self.fractions.size


@dataclass(frozen=True)
class ProfitReport:
    """All profit aggregates for one (prices, fractions) operating point."""

    nsp_leasing: float
    nsp_backhaul_saving: float
    nsp_total: float
    vr_profits: np.ndarray
    vr_surcharge: np.ndarray
    vr_rent: np.ndarray
    global_total: float


def gamma_vector(q: Sequence[float], cfg: EconomicConfig) -> np.ndarray:
    """Per-retailer demand density Gamma_v = q_v * zeta * K.

    The file-group popularities drop out because they sum to one.
    """
    return np.asarray(q, dtype=float) * cfg.mu_intensity * cfg.requests_per_mu


def backhaul_saving(
    tau: FractionVector,
    pops: PopularityVectors,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> float:
    """Back-haul cost avoided per unit area: sum_v Gamma_v Pr(tau_v) s^bh."""
    gammas = gamma_vector(pops.q, cfg)
    return ordered_sum(
        gammas * hit_probability(tau.fractions, constants) * cfg.backhaul_cost
    )


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
    """Assemble every profit aggregate for the given operating point.

    The NSP's leasing income is the rent the retailers pay.
    """
    if not len(tau) == len(s) == len(pops.q):
        raise ValueError("vector lengths are inconsistent")
    u = s.n_posted()
    if (tau.fractions[u:] > 0.0).any():
        raise InconsistentExclusion("positive fraction for a priced-out retailer")
    gammas = gamma_vector(pops.q, cfg)
    hits = hit_probability(tau.fractions, constants)
    surcharges = gammas * cfg.local_surcharge * hits
    rents = np.zeros(len(tau))
    rents[:u] = tau.fractions[:u] * cfg.sbs_intensity * s.prices
    profits = surcharges - rents
    nsp_leasing = ordered_sum(rents)
    nsp_saving = ordered_sum(gammas * hits * cfg.backhaul_cost)
    nsp_total = nsp_leasing + nsp_saving
    return ProfitReport(
        nsp_leasing=nsp_leasing,
        nsp_backhaul_saving=nsp_saving,
        nsp_total=nsp_total,
        vr_profits=profits,
        vr_surcharge=surcharges,
        vr_rent=rents,
        global_total=nsp_total + ordered_sum(profits),
    )
