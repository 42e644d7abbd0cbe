"""Profit model: leasing income, back-haul savings, surcharge revenue.

All money quantities are per unit area per unit period (e.g. per
month per km^2).  Participation is a prefix of the popularity order:
prices are posted to the first u retailers and the rest are priced out.
Totals are left-to-right sums (``ordered_sums``) on every interpreter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coverage import CoverageConstants, hit_probability

__all__ = [
    "EconomicConfig",
    "gamma_vector",
    "ordered_sums",
    "check_fraction_rows",
    "profit_report",
    "ProfitReport",
]


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
        # below the normal range every Gamma_v has lost digits, or is 0
        if demand < sys.float_info.min:
            raise ValueError(
                f"zeta * K = {self.mu_intensity} * {self.requests_per_mu} = {demand:.3g} "
                f"is below the smallest normal float, {sys.float_info.min:.3g}"
            )
        money = max(self.backhaul_cost, self.local_surcharge) * demand
        if not money <= sys.float_info.max / 2:
            raise ValueError(f"s * zeta * K = {money:.3g} overflows a float")


def ordered_sums(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each row, as Python 3.11's sum() adds floats.

    np.sum is pairwise.  Zeros after a row's last entry leave its sum
    unchanged; an empty row sums to 0.
    """
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1]


def check_fraction_rows(fractions: np.ndarray) -> None:
    """Each row of an (R, V) block is a feasible allocation, or ValueError.

    Feasible: every fraction lies in [0, 1] and the row sums to at most
    1 + 1e-9 (the SBS budget).  The error names the first offending row.
    """
    # a NaN fails both comparisons
    if not (fractions.min(initial=0.0) >= 0.0 and fractions.max(initial=1.0) <= 1.0):
        inside = (fractions >= 0.0) & (fractions <= 1.0)
        r, i = np.unravel_index(np.argmin(inside), inside.shape)
        raise ValueError(f"fraction {i + 1} must lie in [0, 1], got {fractions[r, i]}")
    totals = ordered_sums(fractions)
    if totals.max(initial=0.0) > 1.0 + 1e-9:
        total = float(totals[np.argmax(totals > 1.0 + 1e-9)])
        raise ValueError(f"fractions sum to {total}, exceeding the SBS budget")


@dataclass(frozen=True)
class ProfitReport:
    """All profit aggregates of R (prices, fractions) operating points.

    Every field is an array: the totals hold one entry per operating
    point, the per-retailer fields one row.
    """

    nsp_leasing: np.ndarray
    nsp_backhaul_saving: np.ndarray
    nsp_total: np.ndarray
    vr_profits: np.ndarray
    vr_surcharge: np.ndarray
    vr_rent: np.ndarray
    global_total: np.ndarray

    def rows(self, part: slice) -> ProfitReport:
        """The operating points in part of this report."""
        return ProfitReport(**{name: value[part] for name, value in vars(self).items()})


def gamma_vector(q: Sequence[float], cfg: EconomicConfig) -> np.ndarray:
    """Per-retailer demand density Gamma_v = q_v * zeta * K.

    The file-group popularities drop out because they sum to one.
    """
    return np.asarray(q, dtype=float) * cfg.mu_intensity * cfg.requests_per_mu


def profit_report(
    tau: np.ndarray,
    prices: np.ndarray,
    gammas: np.ndarray,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> ProfitReport:
    """Profit aggregates of R operating points at once, one per row of tau.

    prices holds 0 for a priced-out retailer, which rents nothing.
    gammas broadcasts against tau; so does constants.lambda_big, which
    may be an (R, 1) column.  Every total is a left-to-right fold along
    the last axis, so a 1-D tau is a single operating point.
    """
    hits = hit_probability(tau, constants)
    surcharges = gammas * cfg.local_surcharge * hits
    rents = tau * cfg.sbs_intensity * prices
    profits = surcharges - rents
    nsp_leasing = ordered_sums(rents)
    nsp_saving = ordered_sums(gammas * hits * cfg.backhaul_cost)
    nsp_total = nsp_leasing + nsp_saving
    return ProfitReport(
        nsp_leasing=nsp_leasing,
        nsp_backhaul_saving=nsp_saving,
        nsp_total=nsp_total,
        vr_profits=profits,
        vr_surcharge=surcharges,
        vr_rent=rents,
        global_total=nsp_total + ordered_sums(profits),
    )
