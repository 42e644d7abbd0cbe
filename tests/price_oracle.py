"""The per-row posted-price pass, kept as a test oracle.

``_posted_prices`` in ``cachemarket.equilibrium`` takes one numpy root
sum per distinct participant count u of a block, and sums a Gamma row
broadcast to every row only once per u.  This module is the loop it
replaced: one 1-D pairwise sum and one scale per row.  Both must give
the same prices, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cachemarket.equilibrium import GameRows


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
