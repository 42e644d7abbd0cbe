"""The perturbation-grid equilibrium verifier in loop form, kept as a test oracle.

``verify_equilibrium`` in ``cachemarket.equilibrium`` certifies every
scheme with exact bounds: each follower's maximizer on [0, 1] and the
Frank-Wolfe gap of the leader's concave objective, which bounds the gain
of every feasible allocation.  This module tries grids instead, each
trial with a full ``profit_report``: for NUPS/UPS 13 follower fractions
per posted retailer and 10 factors per posted price (O(V^2) per
outcome), for water-filling pairwise mass transfers between fractions
(O(V^3)).  A grid finds only the deviations it tries, so it is the
reference the certificates must reject a superset of; the gap also
rejects budget left unused and priced-out retailers, which no grid
tries.  Its follower grid tries fractions above 1, which no retailer can
take, so its follower gains can exceed the certified ones.
"""

from __future__ import annotations

import math

import numpy as np

from price_oracle import row_constants

from cachemarket.economics import profit_report
from cachemarket.equilibrium import (
    GameRows,
    RowOutcomes,
    VerificationFailure,
    VerificationRecord,
    best_response_fraction,
)

_FOLLOWER_FACTORS = (0.0, 0.25, 0.5, 0.8, 0.9, 0.99, 1.01, 1.1, 1.25, 1.5, 2.0)
_LEADER_FACTORS = (0.5, 0.8, 0.9, 0.95, 0.99, 1.01, 1.05, 1.1, 1.25, 2.0)


def _vr_profit_at(tau_v: float, s_v: float, gamma_v: float, rows: GameRows) -> float:
    theta = rows.constants.theta
    lam_big = float(rows.constants.lambda_big[0, 0])
    surcharge = (
        gamma_v
        * rows.econ.local_surcharge
        * tau_v
        / (theta * tau_v + lam_big)
        if tau_v > 0
        else 0.0
    )
    return surcharge - rows.econ.sbs_intensity * s_v * tau_v


def loop_verify_equilibrium(
    outcome: RowOutcomes,
    rows: GameRows,
    rel_tol: float = 1e-6,
) -> VerificationRecord:
    """Check both equilibrium conditions of a one-row outcome by perturbation.

    Follower side: moving any retailer's fraction off its posted value
    (prices fixed) must not raise that retailer's profit.  Leader side:
    scaling any posted price (followers re-best-responding, keeping the
    SBS budget feasible) must not raise the leader's objective -- the
    provider's total profit under NUPS, the back-haul saving under UPS.
    For the water-filling allocation no prices exist; instead, mass
    transfers between fractions must not raise the sum profit.  Raises
    VerificationFailure naming the violated condition.
    """
    if outcome.scheme == "WATERFILL":
        return _loop_verify_waterfill(outcome, rows, rel_tol)
    gammas = rows.gammas[0]
    constants = row_constants(rows)
    posted = outcome.prices[0, : outcome.n_participants[0]].tolist()
    follower_gain = -math.inf
    follower_checks = 0
    # prices are posted to a prefix of the retailers; zip stops at its end
    for v, (price, tau_v) in enumerate(zip(posted, outcome.fractions[0].tolist())):
        base = _vr_profit_at(tau_v, price, gammas[v], rows)
        scale = max(abs(base), 1e-9)
        # the declared order, each distinct candidate once
        candidates = dict.fromkeys(
            [
                *(f * tau_v for f in _FOLLOWER_FACTORS),
                best_response_fraction(price, gammas[v], rows.econ, constants),
                tau_v + 0.05,
            ]
        )
        for cand in candidates:
            gain = (_vr_profit_at(cand, price, gammas[v], rows) - base) / scale
            follower_gain = max(follower_gain, gain)
            follower_checks += 1
            if gain > rel_tol:
                raise VerificationFailure(
                    f"follower condition violated: retailer {v + 1} gains "
                    f"{gain:.3e} (relative) by moving tau from {tau_v:.6g} "
                    f"to {cand:.6g}"
                )

    # UPS sets its price to maximize the back-haul saving, not the
    # provider's total profit; check the objective each scheme claims.
    if outcome.scheme == "UPS":
        objective = lambda rep: rep.nsp_backhaul_saving  # noqa: E731
        base_value = outcome.report.nsp_backhaul_saving[0]
        label = "back-haul saving"
    else:
        objective = lambda rep: rep.nsp_total  # noqa: E731
        base_value = outcome.report.nsp_total[0]
        label = "provider profit"
    profit_scale = max(abs(base_value), 1e-9)
    leader_gain = -math.inf
    leader_checks = 0
    excluded = [0.0] * (rows.shape[1] - len(posted))
    for i, price in enumerate(posted):
        for factor in _LEADER_FACTORS:
            trial = list(posted)
            trial[i] = price * factor
            fractions = []
            feasible = True
            for p, g in zip(trial, gammas):
                tau = best_response_fraction(p, g, rows.econ, constants)
                if tau > 1.0:
                    feasible = False
                    break
                fractions.append(tau)
            fractions += excluded
            if not feasible or sum(fractions) > 1.0 + 1e-9:
                continue  # outside the leader's feasible set
            report = profit_report(
                np.array(fractions),
                np.array(trial + excluded),
                gammas,
                rows.econ,
                constants,
            )
            gain = (objective(report) - base_value) / profit_scale
            leader_gain = max(leader_gain, gain)
            leader_checks += 1
            if gain > rel_tol:
                raise VerificationFailure(
                    f"leader condition violated: scaling price {i + 1} by "
                    f"{factor} gains {gain:.3e} (relative) in {label}"
                )
    return VerificationRecord(
        follower_max_gain=follower_gain,
        leader_max_gain=leader_gain,
        follower_checks=follower_checks,
        leader_checks=leader_checks,
    )


def _loop_verify_waterfill(
    outcome: RowOutcomes,
    rows: GameRows,
    rel_tol: float,
) -> VerificationRecord:
    """Pairwise mass transfers on the simplex must not raise the sum profit."""
    constants = row_constants(rows)
    base = outcome.report.global_total[0]
    scale = max(abs(base), 1e-9)
    fractions = outcome.fractions[0].tolist()
    n = len(fractions)
    max_gain = -math.inf
    checks = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for step in (1e-4, 1e-3, 1e-2):
                move = min(step, fractions[i])
                if move <= 0.0:
                    continue
                trial = list(fractions)
                trial[i] -= move
                trial[j] = min(trial[j] + move, 1.0)
                report = profit_report(
                    np.array(trial),
                    outcome.prices[0],
                    rows.gammas[0],
                    rows.econ,
                    constants,
                )
                gain = (report.global_total - base) / scale
                max_gain = max(max_gain, gain)
                checks += 1
                if gain > rel_tol:
                    raise VerificationFailure(
                        f"sum-profit condition violated: moving {move:.1e} of "
                        f"the budget from retailer {i + 1} to {j + 1} gains "
                        f"{gain:.3e} (relative)"
                    )
    return VerificationRecord(
        follower_max_gain=math.nan,
        leader_max_gain=max_gain,
        follower_checks=0,
        leader_checks=checks,
    )
