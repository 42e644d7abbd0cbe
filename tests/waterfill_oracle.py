"""The water-filling participant loop, kept as a test oracle.

``waterfill_solve`` in ``cachemarket.equilibrium`` counts its vbar
participants from the Ubar brackets, as ``solve_rows`` bounds UPS.
This module is the loop it replaced: lower vbar from V until the last
retailer's sqrt(q_v)/eta - Lambda is positive.  Away from a bracket
edge both must give the same count and the same fractions, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cachemarket.equilibrium import GameInstance


def waterfill_fractions(instance: GameInstance) -> tuple[int, np.ndarray]:
    """(vbar, fractions) of the water-filling optimum by the top-down search."""
    q = np.asarray(instance.pops.q, dtype=float)
    theta = instance.constants.theta
    lam_big = instance.constants.lambda_big
    sqrt_q = np.sqrt(q)
    v_bar = q.size
    while v_bar >= 1:
        eta = sqrt_q[:v_bar].sum() / (v_bar * lam_big + theta)
        if sqrt_q[v_bar - 1] / eta - lam_big > 0.0:
            break
        v_bar -= 1
    fractions = np.zeros(q.size)
    fractions[:v_bar] = (sqrt_q[:v_bar] / eta - lam_big) / theta
    return v_bar, np.minimum(fractions, 1.0)
