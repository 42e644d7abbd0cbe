"""Stackelberg equilibrium solvers.

The network provider (leader) posts SBS rental prices; the video
retailers (followers) respond with rental fractions.  Three schemes are
solved in closed form:

  NUPS      - per-retailer prices, maximizing the provider's profit
  UPS       - one shared price, maximizing back-haul savings
  WATERFILL - direct maximization of the sum profit over the fractions;
              its allocation coincides with the UPS one

Participation is always a prefix of the popularity order: when storage
shrinks, the least popular retailers drop out first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import PopularityVectors
from .coverage import CoverageConstants
from .economics import (
    EconomicConfig,
    FractionVector,
    PriceVector,
    ProfitReport,
    gamma_vector,
    ordered_sum,
    profit_report,
)

__all__ = [
    "GameInstance",
    "ParticipationThresholds",
    "EquilibriumOutcome",
    "VerificationFailure",
    "VerificationRecord",
    "best_response_fraction",
    "participation_thresholds",
    "nups_prices_for_u",
    "nups_solve",
    "ups_solve",
    "waterfill_solve",
    "verify_equilibrium",
]

# Equality within this margin of a participation threshold resolves to
# the lower storage bracket.
_BRACKET_TOL = 1e-12


class VerificationFailure(AssertionError):
    """An equilibrium candidate violates a best-response condition."""


@dataclass(frozen=True)
class GameInstance:
    """Everything the solvers need for one market scenario.

    Gamma and the participation thresholds are computed once, here.
    """

    pops: PopularityVectors
    econ: EconomicConfig
    constants: CoverageConstants
    n_files: int
    storage: float  # Q in [1, N]: sets Lambda = C N / Q and the brackets alike

    def __post_init__(self) -> None:
        expected = self.constants.c * self.n_files / self.storage
        if abs(expected - self.constants.lambda_big) > 1e-9 * max(expected, 1.0):
            raise ValueError("coverage constants disagree with the storage")
        gammas = gamma_vector(self.pops.q, self.econ)
        gammas.flags.writeable = False
        object.__setattr__(self, "_gammas", gammas)

    @property
    def n_vrs(self) -> int:
        return len(self.pops.q)

    def gammas(self) -> np.ndarray:
        """Demand densities Gamma_v = q_v zeta K (read-only)."""
        return self._gammas

    @cached_property
    def thresholds(self) -> ParticipationThresholds:
        return participation_thresholds(self)

    @cached_property
    def pricing_products(self) -> dict[str, float]:
        """Bounds, over u <= V, on products the NUPS/UPS closed forms form.

        S_k = sum_v Gamma_v^(1/k); Gamma_1 is the largest Gamma.  Each must
        stay below half the float range (room for the verifier's doubled
        prices).  Python floats overflow to inf without a warning.
        """
        lam, s = self.constants.lambda_big, self.econ.backhaul_cost
        g1 = float(self._gammas[0])
        s3 = float(np.cbrt(self._gammas).sum())
        s2 = float(np.sqrt(self._gammas).sum())
        numerator = lam * s * max(s3 * s3 * max(g1 ** (1 / 3), 1.0), s2 * s2)
        return {
            "Gamma_1 * Lambda * s_bh": g1 * lam * s,
            "Lambda^2 * s_bh * S_3^3": lam * lam * s * s3 * s3 * s3,
            "V * Lambda^2 * s_bh * S_2^2": self.n_vrs * lam * lam * s * s2 * s2,
            "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2)": numerator,
            "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2)": (
                numerator / (self.econ.sbs_intensity * self.constants.theta**2)
            ),
        }


@dataclass(frozen=True)
class ParticipationThresholds:
    """Minimum-storage thresholds U_v (per-VR pricing) and Ubar_v (shared price)."""

    u_values: np.ndarray
    u_bar_values: np.ndarray


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Solved prices, fractions, participant count, and profits."""

    scheme: str  # NUPS | UPS | WATERFILL
    prices: PriceVector
    fractions: FractionVector
    n_participants: int
    report: ProfitReport


def _best_responses(
    prices: np.ndarray,
    gammas: np.ndarray,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> np.ndarray:
    """Unchecked best_response_fraction, elementwise over positive prices."""
    theta = constants.theta
    lam_big = constants.lambda_big
    root = np.sqrt(
        gammas * lam_big * cfg.local_surcharge / (theta**2 * cfg.sbs_intensity * prices)
    )
    return np.maximum(root - lam_big / theta, 0.0)


def best_response_fraction(
    s_v: float,
    gamma_v: float,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> float:
    """Follower's optimal rental fraction at price s_v.

    tau* = (sqrt(Gamma Lambda s^ld / (Theta^2 lambda s_v)) - Lambda/Theta)+.
    The value is deliberately not clamped at 1: a result above 1 flags a
    price vector no leader optimum would post.
    """
    if s_v <= 0:
        raise ValueError(f"price must be positive, got {s_v}")
    return float(_best_responses(s_v, gamma_v, cfg, constants))


def participation_thresholds(instance: GameInstance) -> ParticipationThresholds:
    """Storage thresholds controlling how many retailers can stay in the game.

    U_v    = N C (sum_{j<=v} (q_j/q_v)^(1/3) - v) / Theta
    Ubar_v = same with square roots; Ubar_v >= U_v, both 0 at v = 1.
    """
    q = np.asarray(instance.pops.q, dtype=float)
    scale = instance.n_files * instance.constants.c / instance.constants.theta
    v_idx = np.arange(1, q.size + 1, dtype=float)
    # cumulative sums of (q_j / q_v)^(1/3) and ^(1/2) for each v
    cbrt_q = np.cbrt(q)
    sqrt_q = np.sqrt(q)
    u_values = scale * (np.cumsum(cbrt_q) / cbrt_q - v_idx)
    u_bar_values = scale * (np.cumsum(sqrt_q) / sqrt_q - v_idx)
    return ParticipationThresholds(u_values=u_values, u_bar_values=u_bar_values)


def _bracket_count(thresholds: np.ndarray, storage: float) -> int:
    """Largest v with threshold_v < Q (ties resolve to the lower bracket)."""
    return int(np.count_nonzero(thresholds < storage - _BRACKET_TOL))


def _require_pricing_domain(instance: GameInstance) -> None:
    """Preconditions of the NUPS and UPS closed forms: s^ld = s^bh, no overflow."""
    econ = instance.econ
    if abs(econ.local_surcharge - econ.backhaul_cost) > 1e-12 * econ.backhaul_cost:
        raise ValueError(
            "the pricing closed forms require the local surcharge to equal "
            f"the back-haul cost, got s_ld={econ.local_surcharge}, "
            f"s_bh={econ.backhaul_cost}"
        )
    for name, value in instance.pricing_products.items():
        if not value <= sys.float_info.max / 2:
            raise ValueError(f"{name} = {value:.3g} overflows a float")


def nups_prices_for_u(u: int, instance: GameInstance) -> PriceVector:
    """Per-retailer prices keeping exactly the u most popular retailers.

    s_i = Lambda s^bh (sum_{j<=u} Gamma_j^(1/3))^2 Gamma_i^(1/3)
          / (lambda (u Lambda + Theta)^2)   for i <= u; the rest are priced out.
    """
    if not 1 <= u <= instance.n_vrs:
        raise ValueError(f"u must lie in 1..{instance.n_vrs}, got {u}")
    _require_pricing_domain(instance)
    roots = np.cbrt(instance.gammas()[:u])
    return PriceVector(_price_scale(u, roots.sum(), instance) * roots, instance.n_vrs)


def _price_scale(u: int, root_sum: float, instance: GameInstance) -> float:
    """Lambda s^bh root_sum^2 / (lambda (u Lambda + Theta)^2)."""
    lam_big = instance.constants.lambda_big
    return (
        lam_big
        * instance.econ.backhaul_cost
        * root_sum**2
        / (instance.econ.sbs_intensity * (u * lam_big + instance.constants.theta) ** 2)
    )


def _outcome_from_prices(
    scheme: str, prices: PriceVector, instance: GameInstance
) -> EquilibriumOutcome:
    posted = prices.prices
    if not (posted > 0).all():
        raise ValueError(f"price must be positive, got {posted.min()}")
    u = posted.size
    gammas = instance.gammas()[:u]
    responses = _best_responses(posted, gammas, instance.econ, instance.constants)
    total = ordered_sum(responses)
    if total > 1.0 + 1e-9:
        raise ArithmeticError(
            f"{scheme} best responses sum to {total}; the posted prices are broken"
        )
    fractions = np.zeros(instance.n_vrs)
    fractions[:u] = np.minimum(responses, 1.0)
    return _outcome(scheme, prices, FractionVector(fractions), u, instance)


def _outcome(scheme, prices, tau, n_participants, instance) -> EquilibriumOutcome:
    report = profit_report(tau, prices, instance.pops, instance.econ, instance.constants)
    return EquilibriumOutcome(scheme, prices, tau, n_participants, report)


def nups_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Equilibrium under per-retailer pricing.

    Determines the feasible participant range from the U_v brackets,
    minimizes the negated-profit surrogate
    S_u = Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/3))^3 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j
    over it, and posts the closed-form prices for the winning count.
    """
    _require_pricing_domain(instance)
    t_max = _bracket_count(instance.thresholds.u_values, instance.storage)
    gammas = instance.gammas()[:t_max]
    lam_big = instance.constants.lambda_big
    s_bh = instance.econ.backhaul_cost
    u = np.arange(1, t_max + 1)
    surrogates = (
        lam_big**2 * s_bh * np.cumsum(np.cbrt(gammas)) ** 3
        / (u * lam_big + instance.constants.theta) ** 2
        - s_bh * np.cumsum(gammas)
    )
    u_hat = 1 + int(np.argmin(surrogates))  # argmin takes the smallest u on ties
    return _outcome_from_prices("NUPS", nups_prices_for_u(u_hat, instance), instance)


def ups_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Equilibrium under a single shared price.

    Same as nups_solve with the Ubar_v brackets and the surrogate
    S_u = u Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/2))^2 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j.
    """
    _require_pricing_domain(instance)
    t_max = _bracket_count(instance.thresholds.u_bar_values, instance.storage)
    gammas = instance.gammas()[:t_max]
    lam_big = instance.constants.lambda_big
    s_bh = instance.econ.backhaul_cost
    u = np.arange(1, t_max + 1)
    surrogates = (
        u * lam_big**2 * s_bh * np.cumsum(np.sqrt(gammas)) ** 2
        / (u * lam_big + instance.constants.theta) ** 2
        - s_bh * np.cumsum(gammas)
    )
    u_hat = 1 + int(np.argmin(surrogates))
    shared = _price_scale(u_hat, np.sqrt(gammas[:u_hat]).sum(), instance)
    prices = PriceVector(np.full(u_hat, float(shared)), instance.n_vrs)
    return _outcome_from_prices("UPS", prices, instance)


def waterfill_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Sum-profit maximizer over the fractions (water-filling structure).

    tau_v = ((sqrt(q_v)/eta - Lambda) / Theta)+ with the water level eta
    chosen so active fractions fill the SBS budget exactly.
    """
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
    tau = FractionVector(np.minimum(fractions, 1.0))
    # no prices are posted in the global scheme: rent is a pure transfer
    return _outcome("WATERFILL", PriceVector(np.zeros(q.size)), tau, v_bar, instance)


@dataclass(frozen=True)
class VerificationRecord:
    """Largest profit gains found by the perturbation checks (<= 0 is clean)."""

    follower_max_gain: float
    leader_max_gain: float
    follower_checks: int
    leader_checks: int


_FOLLOWER_FACTORS = (0.0, 0.25, 0.5, 0.8, 0.9, 0.99, 1.01, 1.1, 1.25, 1.5, 2.0)
_LEADER_FACTORS = (0.5, 0.8, 0.9, 0.95, 0.99, 1.01, 1.05, 1.1, 1.25, 2.0)


def _hit_probabilities(tau: np.ndarray, constants: CoverageConstants) -> np.ndarray:
    """coverage.hit_probability without its range check, elementwise.

    The leader checks evaluate it at trial best responses above 1, which
    the checked scalar version rejects, before discarding them as
    infeasible.
    """
    return tau / (constants.theta * tau + constants.lambda_big)


def _vr_profit_at(
    tau_v: float, s_v: float, gamma_v: float, instance: GameInstance
) -> float:
    # Spells out Gamma s^ld Pr(tau) in the follower check's original
    # operation order: factoring Pr out rounds differently, and relative
    # to a profit near 0 that moves follower_max_gain by about 1e-12.
    theta = instance.constants.theta
    lam_big = instance.constants.lambda_big
    surcharge = (
        gamma_v
        * instance.econ.local_surcharge
        * tau_v
        / (theta * tau_v + lam_big)
        if tau_v > 0
        else 0.0
    )
    return surcharge - instance.econ.sbs_intensity * s_v * tau_v


def verify_equilibrium(
    outcome: EquilibriumOutcome,
    instance: GameInstance,
    rel_tol: float = 1e-6,
) -> VerificationRecord:
    """Check both equilibrium conditions by perturbation.

    Follower side: moving any retailer's fraction off its posted value
    (prices fixed) must not raise that retailer's profit.  Leader side:
    scaling any posted price by each of _LEADER_FACTORS (followers
    re-best-responding) must not raise the leader's objective -- the
    provider's total profit under NUPS, the back-haul saving under UPS.
    A scaled price counts as a check only when it stays in the leader's
    feasible set: every best response at most 1 and their sum at most
    1 + 1e-9.  For the water-filling allocation no prices exist;
    instead, mass transfers between fractions must not raise the sum
    profit.  Raises VerificationFailure naming the violated condition
    and the retailers involved.

    Every checked objective is a sum of per-retailer terms, and a
    follower's best response depends only on its own price, so a
    perturbation changes one or two terms.  Each check costs O(1) array
    work: O(V) for the price checks, O(V^2) for the V (V - 1) transfer
    pairs, computed in blocks of bounded memory.  No solver closed form
    is used.
    """
    if outcome.scheme == "WATERFILL":
        return _verify_waterfill(outcome, instance, rel_tol)
    gammas = instance.gammas()
    u = outcome.prices.n_posted()
    follower_gain = -math.inf
    follower_checks = 0
    # Python floats round like numpy scalars and are cheaper in this loop
    tau = outcome.fractions.fractions.tolist()
    posted = zip(outcome.prices.prices.tolist(), tau, gammas.tolist())
    for v, (price, tau_v, gamma_v) in enumerate(posted):
        base = _vr_profit_at(tau_v, price, gamma_v, instance)
        scale = max(abs(base), 1e-9)
        candidates = {f * tau_v for f in _FOLLOWER_FACTORS}
        candidates.add(
            best_response_fraction(price, gamma_v, instance.econ, instance.constants)
        )
        candidates.add(tau_v + 0.05)
        for cand in candidates:
            if cand < 0.0:
                continue
            gain = (_vr_profit_at(cand, price, gamma_v, instance) - base) / scale
            follower_gain = max(follower_gain, gain)
            follower_checks += 1
            if gain > rel_tol:
                raise VerificationFailure(
                    f"follower condition violated: retailer {v + 1} gains "
                    f"{gain:.3e} (relative) by moving tau from {tau_v:.6g} "
                    f"to {cand:.6g}"
                )

    econ = instance.econ
    constants = instance.constants
    price = outcome.prices.prices
    gamma = gammas[:u]
    # UPS sets its price to maximize the back-haul saving, not the
    # provider's total profit; check the objective each scheme claims.
    ups = outcome.scheme == "UPS"

    def objective_terms(tau, s, g):
        saving = g * _hit_probabilities(tau, constants) * econ.backhaul_cost
        return saving if ups else tau * econ.sbs_intensity * s + saving

    if ups:
        base_value = outcome.report.nsp_backhaul_saving
        label = "back-haul saving"
    else:
        base_value = outcome.report.nsp_total
        label = "provider profit"
    profit_scale = max(abs(base_value), 1e-9)

    # rows: posted retailers; columns: _LEADER_FACTORS
    tau0 = _best_responses(price, gamma, econ, constants)
    terms0 = objective_terms(tau0, price, gamma)
    trial_price = price[:, None] * np.array(_LEADER_FACTORS)
    tau1 = _best_responses(trial_price, gamma[:, None], econ, constants)
    terms1 = objective_terms(tau1, trial_price, gamma[:, None])
    over = tau0 > 1.0
    others_over = np.count_nonzero(over) - over
    feasible = (
        (tau1 <= 1.0)
        & (others_over == 0)[:, None]
        & ((tau0.sum() - tau0)[:, None] + tau1 <= 1.0 + 1e-9)
    )
    gains = ((terms0.sum() - terms0)[:, None] + terms1 - base_value) / profit_scale
    violated = feasible & (gains > rel_tol)
    if violated.any():
        row, col = np.unravel_index(np.argmax(violated), violated.shape)
        raise VerificationFailure(
            f"leader condition violated: scaling price {row + 1} by "
            f"{_LEADER_FACTORS[col]} gains {gains[row, col]:.3e} (relative) in {label}"
        )
    return VerificationRecord(
        follower_max_gain=follower_gain,
        leader_max_gain=float(gains[feasible].max(initial=-math.inf)),
        follower_checks=follower_checks,
        leader_checks=int(np.count_nonzero(feasible)),
    )


_TRANSFER_STEPS = (1e-4, 1e-3, 1e-2)
# entries of the (source x destination x step) gain array built at once,
# so its memory stays O(V)
_TRANSFER_BLOCK = 1 << 16


def _verify_waterfill(
    outcome: EquilibriumOutcome,
    instance: GameInstance,
    rel_tol: float,
) -> VerificationRecord:
    """Pairwise mass transfers on the simplex must not raise the sum profit.

    For each step, every retailer i with tau_i > 0 moves min(step, tau_i)
    of the budget to every other retailer j (capped at 1).  The sum
    profit is sum_v f_v(tau_v) with f_v = Gamma_v (s^bh + s^ld) Pr, so a
    transfer changes it by a loss in f_i plus a gain in f_j.
    """
    tau = outcome.fractions.fractions
    n = tau.size
    constants = instance.constants
    weight = instance.gammas() * (
        instance.econ.backhaul_cost + instance.econ.local_surcharge
    )
    terms = weight * _hit_probabilities(tau, constants)
    base = outcome.report.global_total
    scale = max(abs(base), 1e-9)
    offset = terms.sum() - base  # sum profit at the outcome, relative to base
    sources = np.flatnonzero(tau > 0.0)
    checks = len(_TRANSFER_STEPS) * sources.size * (n - 1)
    if checks == 0:
        return VerificationRecord(
            follower_max_gain=math.nan,
            leader_max_gain=-math.inf,
            follower_checks=0,
            leader_checks=0,
        )

    # gains[row, j, k]: relative gain of moving step k out of rows[row] into j
    steps = np.array(_TRANSFER_STEPS)
    max_gain = -math.inf
    block = max(1, _TRANSFER_BLOCK // (n * steps.size))
    for lo in range(0, sources.size, block):
        rows = sources[lo : lo + block]
        move = np.minimum(steps, tau[rows, None])
        left = tau[rows, None] - move
        loss = weight[rows, None] * _hit_probabilities(left, constants)
        loss -= terms[rows, None]
        filled = np.minimum(tau[:, None] + move[:, None, :], 1.0)
        rise = weight[:, None] * _hit_probabilities(filled, constants) - terms[:, None]
        rise[np.arange(rows.size), rows] = -math.inf  # no transfer to oneself
        gains = (offset + loss[:, None, :] + rise) / scale
        violated = gains > rel_tol
        if violated.any():
            # report the first violation in (source, destination, step) order
            row, j, k = np.unravel_index(np.argmax(violated), violated.shape)
            raise VerificationFailure(
                f"sum-profit condition violated: moving {move[row, k]:.1e} of "
                f"the budget from retailer {rows[row] + 1} to {j + 1} gains "
                f"{gains[row, j, k]:.3e} (relative)"
            )
        max_gain = max(max_gain, float(gains.max()))
    return VerificationRecord(
        follower_max_gain=math.nan,
        leader_max_gain=max_gain,
        follower_checks=0,
        leader_checks=checks,
    )
