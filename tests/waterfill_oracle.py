"""The water-filling participant loop, kept as a test oracle.

``solve_rows`` counts water-filling's vbar participants from the Ubar
brackets, as it counts UPS's.  This module is the loop that count
replaced: lower vbar from V until the last retailer's sqrt(q_v)/eta -
Lambda is positive.  Away from a bracket edge both give the same count.
"""

from __future__ import annotations

import numpy as np

from cachemarket.equilibrium import GameRows


def waterfill_count(rows: GameRows) -> int:
    """vbar of row 0's water-filling optimum by the top-down search."""
    q = rows.q[0]
    theta = rows.constants.theta
    lam_big = float(rows.constants.lambda_big[0, 0])
    sqrt_q = np.sqrt(q)
    v_bar = q.size
    while v_bar >= 1:
        eta = sqrt_q[:v_bar].sum() / (v_bar * lam_big + theta)
        if sqrt_q[v_bar - 1] / eta - lam_big > 0.0:
            break
        v_bar -= 1
    return v_bar
