"""The overflow guard of the NUPS/UPS solver, row by row.

``require_pricing_domain`` forms the three pricing products on every row
of a block and names the first product, then the first row, above half
the float range.  ``cachemarket.equilibrium`` decides most blocks with
one test on their extremes; it must raise exactly when this does, with
the same message.
"""

from __future__ import annotations

import sys

import numpy as np

from cachemarket.equilibrium import GameRows


def pricing_products(rows: GameRows) -> dict[str, np.ndarray]:
    """The three products the pricing guard bounds, one value per row."""
    lam = rows.constants.lambda_big[:, 0]
    s = rows.econ.backhaul_cost
    g1 = rows.gammas[:, 0]
    s3 = np.cbrt(rows.gammas).sum(axis=1)
    s2 = np.sqrt(rows.gammas).sum(axis=1)
    n_vrs = rows.gammas.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        numerator = lam * s * np.maximum(s3 * s3 * np.maximum(g1 ** (1 / 3), 1.0), s2 * s2)
        return {
            "V * Lambda^2 * s_bh * S_2^2": n_vrs * lam * lam * s * s2 * s2,
            "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2)": numerator,
            "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2)": (
                numerator / (rows.econ.sbs_intensity * rows.constants.theta**2)
            ),
        }


def require_pricing_domain(rows: GameRows) -> None:
    """s^ld = s^bh, and every row's products within half the float range."""
    econ = rows.econ
    if abs(econ.local_surcharge - econ.backhaul_cost) > 1e-12 * econ.backhaul_cost:
        raise ValueError(
            "the pricing closed forms require the local surcharge to equal "
            f"the back-haul cost, got s_ld={econ.local_surcharge}, "
            f"s_bh={econ.backhaul_cost}"
        )
    products = pricing_products(rows)
    bad = ~(np.array(list(products.values())) <= sys.float_info.max / 2)
    if bad.any():
        k, r = np.unravel_index(np.argmax(bad), bad.shape)  # first product, first row
        name = list(products)[k]
        raise ValueError(f"{name} = {products[name][r]:.3g} overflows a float")
