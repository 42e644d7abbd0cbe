"""Price and profit oracles kept out of the library.

``posted_prices`` is the per-row posted-price pass.  ``_posted_prices``
in ``cachemarket.equilibrium`` takes one numpy root sum per distinct
participant count u of a block, and sums a Gamma row broadcast to every
row only once per u.  ``posted_prices`` is the loop it replaced: one
1-D pairwise sum and one scale per row.  Both must give the same
prices, bit for bit.

``surrogates`` is the minimisation the solver's participant count
replaced: the negated leader objective S_u of keeping the u most
popular retailers.  Its arg-min over the retailers whose threshold lies
below Q is that count, which ``solve_rows`` now takes directly.

``nups_prices_for_u``, ``backhaul_saving``, ``vr_profit`` and
``row_constants`` are the one-market views the tests read: the NUPS
prices at a given participant count, the provider's back-haul saving,
one retailer's profit, and one row's coverage constants.
"""

from __future__ import annotations

import numpy as np

from cachemarket.coverage import CoverageConstants
from cachemarket.economics import gamma_vector, profit_report
from cachemarket.equilibrium import GameRows


def row_constants(rows: GameRows, i: int = 0) -> CoverageConstants:
    """Row i's coverage constants, with its Lambda as a float."""
    return rows.constants.with_lambda_big(float(rows.constants.lambda_big[i, 0]))


def _price_scale(u: int, root_sum: float, lam_big: float, rows: GameRows) -> float:
    """Lambda s^bh root_sum^2 / (lambda (u Lambda + Theta)^2)."""
    return (
        lam_big
        * rows.econ.backhaul_cost
        * root_sum**2
        / (rows.econ.sbs_intensity * (u * lam_big + rows.constants.theta) ** 2)
    )


def posted_prices(scheme: str, rows: GameRows, u: np.ndarray) -> tuple:
    """(R, V) prices keeping exactly the u[r] most popular retailers of row r.

    Returns the prices (0 past u) and the (R, V) mask of posted retailers.
    """
    nups = scheme == "NUPS"
    roots = np.cbrt(rows.gammas) if nups else np.sqrt(rows.gammas)
    lam = rows.constants.lambda_big[:, 0].tolist()
    scales = np.array(
        [
            _price_scale(u_r, roots[r, :u_r].sum(), lam[r], rows)
            for r, u_r in enumerate(u.tolist())
        ]
    )[:, None]
    posted = np.arange(1, rows.shape[1] + 1) <= u[:, None]
    return np.where(posted, scales * roots if nups else scales, 0.0), posted


def surrogates(scheme: str, rows: GameRows, width: int) -> np.ndarray:
    """(R, width) negated leader objective of keeping u retailers, u = 1..width.

    S_u = Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/3))^3 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j                              (NUPS)
    S_u = u Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/2))^2 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j                              (UPS)
    """
    lam_big = rows.constants.lambda_big
    s_bh = rows.econ.backhaul_cost
    u = np.arange(1.0, width + 1)
    gammas = rows.gammas[:, :width]
    nups = scheme == "NUPS"
    root_sums = np.add.accumulate(np.cbrt(gammas) if nups else np.sqrt(gammas), axis=1)
    lead = lam_big**2 * s_bh * (root_sums**3 if nups else u * root_sums**2)
    denominators = (u * lam_big + rows.constants.theta) ** 2
    return lead / denominators - s_bh * np.add.accumulate(gammas, axis=1)


def nups_prices_for_u(u: int, rows: GameRows) -> np.ndarray:
    """Per-retailer prices keeping exactly the u most popular retailers.

    s_i = Lambda s^bh (sum_{j<=u} Gamma_j^(1/3))^2 Gamma_i^(1/3)
          / (lambda (u Lambda + Theta)^2)   for i <= u; the rest are priced
    out, at 0.  One price per retailer of row 0.
    """
    if not 1 <= u <= rows.shape[1]:
        raise ValueError(f"u must lie in 1..{rows.shape[1]}, got {u}")
    prices, _ = posted_prices("NUPS", rows, np.array([u]))
    return prices[0]


def backhaul_saving(tau, pops, cfg, constants) -> float:
    """Back-haul cost avoided per unit area: sum_v Gamma_v Pr(tau_v) s^bh."""
    tau = np.asarray(tau, dtype=float)
    report = profit_report(tau, np.zeros(tau.shape), gamma_vector(pops.q, cfg), cfg, constants)
    return float(report.nsp_backhaul_saving)


def vr_profit(tau_v: float, s_v: float, gamma_v: float, cfg, constants) -> float:
    """Retailer profit: surcharge revenue minus rent.

    Gamma_v s^ld tau / (Theta tau + Lambda) - lambda s_v tau; concave in tau.
    """
    if not 0.0 <= tau_v <= 1.0:
        raise ValueError(f"tau_v must lie in [0, 1], got {tau_v}")
    if s_v < 0:
        raise ValueError(f"s_v must be >= 0, got {s_v}")
    report = profit_report(np.array([tau_v]), np.array([s_v]), gamma_v, cfg, constants)
    return float(report.vr_profits[0])
