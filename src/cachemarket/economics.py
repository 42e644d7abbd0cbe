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

from .catalog import PopularityVectors
from .coverage import CoverageConstants, hit_probability

__all__ = [
    "InconsistentExclusion",
    "EconomicConfig",
    "PriceVector",
    "FractionVector",
    "gamma_vector",
    "ordered_sums",
    "check_fraction_rows",
    "profit_report",
    "profit_rows",
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

    @classmethod
    def of_checked_row(cls, row: np.ndarray, n_vrs: int) -> PriceVector:
        """The posted prices of a solve_rows row, to n_vrs retailers, not checked again."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "prices", _read_only(row))
        object.__setattr__(vector, "n_vrs", n_vrs)
        return vector

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
        check_fraction_rows(fractions[None, :])

    @classmethod
    def of_checked_row(cls, row: np.ndarray) -> FractionVector:
        """A row that check_fraction_rows has passed, not checked again."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "fractions", _read_only(row))
        return vector

    def __len__(self) -> int:
        return self.fractions.size


def check_fraction_rows(fractions: np.ndarray) -> None:
    """Each row of an (R, V) block is a valid FractionVector, or ValueError.

    The error names the first offending row.
    """
    inside = (fractions >= 0.0) & (fractions <= 1.0)
    if not inside.all():
        r, i = np.unravel_index(np.argmin(inside), inside.shape)
        raise ValueError(f"fraction {i + 1} must lie in [0, 1], got {fractions[r, i]}")
    totals = ordered_sums(fractions)
    over = totals > 1.0 + 1e-9
    if over.any():
        total = float(totals[np.argmax(over)])
        raise ValueError(f"fractions sum to {total}, exceeding the SBS budget")


@dataclass(frozen=True)
class ProfitReport:
    """All profit aggregates for one (prices, fractions) operating point.

    From profit_rows, every field holds one entry (a total) or one row
    (a per-retailer array) per operating point; row(i) picks point i.
    """

    nsp_leasing: float
    nsp_backhaul_saving: float
    nsp_total: float
    vr_profits: np.ndarray
    vr_surcharge: np.ndarray
    vr_rent: np.ndarray
    global_total: float

    def rows(self, part: slice) -> ProfitReport:
        """The operating points in part of a profit_rows report."""
        return ProfitReport(**{name: value[part] for name, value in vars(self).items()})

    def row(self, i: int) -> ProfitReport:
        """Operating point i of a profit_rows report, with float totals."""
        return ProfitReport(
            nsp_leasing=float(self.nsp_leasing[i]),
            nsp_backhaul_saving=float(self.nsp_backhaul_saving[i]),
            nsp_total=float(self.nsp_total[i]),
            vr_profits=self.vr_profits[i],
            vr_surcharge=self.vr_surcharge[i],
            vr_rent=self.vr_rent[i],
            global_total=float(self.global_total[i]),
        )


def gamma_vector(q: Sequence[float], cfg: EconomicConfig) -> np.ndarray:
    """Per-retailer demand density Gamma_v = q_v * zeta * K.

    The file-group popularities drop out because they sum to one.
    """
    return np.asarray(q, dtype=float) * cfg.mu_intensity * cfg.requests_per_mu


def profit_report(
    tau: FractionVector,
    s: PriceVector,
    pops: PopularityVectors,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> ProfitReport:
    """Assemble every profit aggregate for the given operating point.

    The NSP's leasing income is the rent the retailers pay.  This is the
    one-row case of profit_rows.
    """
    if not len(tau) == len(s) == len(pops.q):
        raise ValueError("vector lengths are inconsistent")
    u = s.n_posted()
    if (tau.fractions[u:] > 0.0).any():
        raise InconsistentExclusion("positive fraction for a priced-out retailer")
    prices = np.zeros(len(s))
    prices[:u] = s.prices
    gammas = gamma_vector(pops.q, cfg)
    return profit_rows(tau.fractions[None, :], prices[None, :], gammas, cfg, constants).row(0)


def profit_rows(
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
