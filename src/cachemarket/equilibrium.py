"""Stackelberg equilibrium solvers.

The network provider (leader) posts SBS rental prices; the video
retailers (followers) respond with rental fractions.  Three schemes are
solved in closed form:

  NUPS      - per-retailer prices, maximizing the provider's profit
  UPS       - one shared price, maximizing back-haul savings
  WATERFILL - direct maximization of the sum profit over the fractions;
              its allocation is the UPS one

Participation is always a prefix of the popularity order: when storage
shrinks, the least popular retailers drop out first.  solve_rows solves
all three: each keeps the retailers whose participation threshold lies
below the storage, and takes their fractions from one budget identity
in q, Lambda and Theta, in which the prices cancel.  Only the verifier
best-responds to the posted prices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coverage import CoverageConstants
from .economics import (
    EconomicConfig,
    ProfitReport,
    check_fraction_rows,
    gamma_vector,
    ordered_sums,
    profit_report,
)

__all__ = [
    "GameRows",
    "RowOutcomes",
    "VerificationFailure",
    "VerificationRecord",
    "best_response_fraction",
    "nups_solve",
    "ups_solve",
    "solve_rows",
    "waterfill_solve",
    "verify_equilibrium",
]

# Equality within this margin of a participation threshold resolves to
# the lower storage bracket.
_BRACKET_TOL = 1e-12

# The root each scheme takes of q and of Gamma
_ROOTS = {"NUPS": np.cbrt, "UPS": np.sqrt}


class VerificationFailure(AssertionError):
    """An equilibrium candidate violates a best-response condition."""


@dataclass(frozen=True)
class GameRows:
    """R markets solved together, one per row; make_instance builds one row.

    The rows share V, N, (delta, alpha) and the economics; a sweep varies Q
    (so Lambda and the brackets) or gamma (so q, Gamma and the brackets).
    q is the (R, V) retailer preferences, possibly one row broadcast to all
    (np.broadcast_to); storage and constants.lambda_big are (R, 1)
    columns.  Gamma and the brackets are derived from q's distinct rows.
    """

    q: np.ndarray
    n_files: int
    storage: np.ndarray
    econ: EconomicConfig
    constants: CoverageConstants

    @property
    def shape(self) -> tuple[int, int]:
        return self.q.shape

    @property
    def _distinct_q(self) -> np.ndarray:
        return self.q[:1] if self.q.strides[0] == 0 else self.q

    @cached_property
    def distinct_gammas(self) -> np.ndarray:
        """Gamma_v = q_v zeta K of q, or of its first row when that row is broadcast.

        Roots, row sums and prefix sums taken on it broadcast back to
        every row bit for bit: each is computed along a row.
        """
        return gamma_vector(self._distinct_q, self.econ)

    @cached_property
    def gammas(self) -> np.ndarray:
        """The (R, V) demand densities: distinct_gammas, broadcast to every row."""
        gammas = self.distinct_gammas
        return gammas if gammas.shape == self.shape else np.broadcast_to(gammas, self.shape)

    def _per_scheme(self, name: str, scheme: str, make) -> np.ndarray:
        """make(scheme), formed on the first call for that scheme and kept."""
        kept = self.__dict__.setdefault(name, {})
        if scheme not in kept:
            kept[scheme] = make(scheme)
        return kept[scheme]

    def q_roots(self, scheme: str) -> np.ndarray:
        """q^(1/3) (NUPS) or q^(1/2) (UPS) of q's distinct rows.

        The brackets and the fractions read them.
        """
        return self._per_scheme("_q_roots", scheme, lambda k: _ROOTS[k](self._distinct_q))

    def brackets(self, scheme: str) -> np.ndarray:
        """U_v (NUPS) or Ubar_v (UPS) of q's distinct rows (_thresholds_of).

        They broadcast against gammas; a solve reads its scheme's.
        """
        return self._per_scheme(
            "_brackets",
            scheme,
            lambda k: _thresholds_of(self.q_roots(k), self.n_files, self.constants),
        )

    def roots(self, scheme: str) -> np.ndarray:
        """Gamma^(1/3) (NUPS) or Gamma^(1/2) (UPS) of distinct_gammas.

        The posted prices and the pricing-product bounds read them.
        """
        return self._per_scheme("_roots", scheme, lambda k: _ROOTS[k](self.distinct_gammas))

    @cached_property
    def pricing_products(self) -> dict[str, np.ndarray]:
        """Bounds, over u <= V, on products the NUPS/UPS closed forms form.

        One value per row.  Each must stay below half the float range
        (room for the verifier's doubled prices).  Only _require_pricing_domain's
        per-row pass forms them, for a block its bounds do not accept.
        """
        # an overflow, or lambda Theta^2 underflowing to 0, shows as inf or
        # nan in the bound, which fails its check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sums = [self.roots(name).sum(axis=1) for name in ("NUPS", "UPS")]
            lam, g1 = self.constants.lambda_big[:, 0], self.distinct_gammas[:, 0]
            return _pricing_formulas(self, lam, g1, *sums, np.maximum)


def _pricing_formulas(rows: GameRows, lam, g1, s3, s2, maximum) -> dict:
    """The pricing products by name, from arrays (np.maximum) or floats (max).

    The other products the closed forms form are bounded by these:
    Gamma_1 Lambda s_bh by the numerator (S_3 >= Gamma_1^(1/3)) and
    Lambda^2 s_bh S_3^3 by V Lambda^2 s_bh S_2^2 (power means).
    """
    s = rows.econ.backhaul_cost
    numerator = lam * s * maximum(s3 * s3 * maximum(g1 ** (1 / 3), 1.0), s2 * s2)
    return {
        "V * Lambda^2 * s_bh * S_2^2": rows.shape[1] * lam * lam * s * s2 * s2,
        "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2)": numerator,
        "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2)": (
            numerator / (rows.econ.sbs_intensity * rows.constants.theta**2)
        ),
    }


@dataclass(frozen=True)
class RowOutcomes:
    """Solved outcomes of R markets, one per row, with their profits.

    scheme is NUPS, UPS or WATERFILL.  solve_rows has checked every row:
    its u participants are the ones with a positive fraction and, under
    NUPS and UPS, the retailers with a posted price.  WATERFILL posts no
    prices: every price is 0, and u and the fractions are UPS's.
    """

    scheme: str
    n_participants: np.ndarray  # (R,): u of each row
    prices: np.ndarray  # (R, V): the posted prices, 0 past u
    fractions: np.ndarray  # (R, V): every row passed check_fraction_rows
    report: ProfitReport  # profit_report of every row


def best_response_fraction(
    prices: np.ndarray | float,
    gammas: np.ndarray | float,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> np.ndarray | float:
    """Followers' optimal rental fractions at the given prices, elementwise.

    verify_equilibrium's follower check; solve_rows forms its fractions
    from the budget identity instead (_budget_fractions).

    tau* = (sqrt(Gamma Lambda s^ld / (Theta^2 lambda s_v)) - Lambda/Theta)+.
    prices, gammas and constants.lambda_big broadcast against each other;
    scalars give a scalar.  Every price must be positive (a NaN is not).
    The value is deliberately not clamped at 1: a result above 1 flags a
    price vector no leader optimum would post.
    """
    prices_array = np.asarray(prices)
    if not prices_array.min(initial=math.inf) > 0:  # a NaN fails too
        bad = prices_array.flat[np.argmin(prices_array > 0)]
        raise ValueError(f"price must be positive, got {bad}")
    theta = constants.theta
    lam_big = constants.lambda_big
    root = np.sqrt(
        gammas * lam_big * cfg.local_surcharge / (theta**2 * cfg.sbs_intensity * prices)
    )
    return np.maximum(root - lam_big / theta, 0.0)


def _thresholds_of(
    roots: np.ndarray, n_files: int, constants: CoverageConstants
) -> np.ndarray:
    """U_v (roots = q^(1/3)) or Ubar_v (roots = q^(1/2)) of each row of roots.

    U_v    = N C (sum_{j<=v} (q_j/q_v)^(1/3) - v) / Theta
    Ubar_v = same with square roots; Ubar_v >= U_v, both 0 at v = 1.
    Retailer v can take part under NUPS (UPS) only when U_v (Ubar_v)
    lies below Q.  A retailer whose weight q_v underflowed to 0 can
    never take part: its thresholds are +inf.  An overflowing
    N C / Theta raises first.
    """
    scale = n_files * constants.c / constants.theta
    if not scale <= sys.float_info.max:
        raise ValueError(f"N * C / Theta = {scale:.3g} overflows a float")
    # cumulative sums of (q_j / q_v)^(1/3) or ^(1/2) for each v
    ratios = np.full(roots.shape, np.inf)
    np.divide(np.add.accumulate(roots, axis=-1), roots, out=ratios, where=roots > 0)
    ratios -= np.arange(1, roots.shape[-1] + 1, dtype=float)
    ratios *= scale
    return ratios


def _bracket_count(brackets: np.ndarray, storage) -> np.ndarray:
    """How many thresholds along the last axis lie below the storage Q.

    Thresholds rise along a row, so these are the first ones.  Equality
    within _BRACKET_TOL resolves to the lower storage bracket.
    """
    return (brackets < storage - _BRACKET_TOL).sum(axis=-1)


def _require_pricing_domain(rows: GameRows) -> None:
    """Preconditions of the NUPS and UPS closed forms: s^ld = s^bh, no overflow."""
    econ = rows.econ
    if abs(econ.local_surcharge - econ.backhaul_cost) > 1e-12 * econ.backhaul_cost:
        raise ValueError(
            "the pricing closed forms require the local surcharge to equal "
            f"the back-haul cost, got s_ld={econ.local_surcharge}, "
            f"s_bh={econ.backhaul_cost}"
        )
    # Each product at the block's largest Lambda and Gamma_v, with S_3 and S_2
    # bounded by V Gamma_max^(1/3) and V Gamma_max^(1/2), bounds it on every
    # row, up to the ulps by which Python's pow may differ from numpy's roots
    # and sums: the 1e-9 margin covers them.  A NaN bound, or lambda Theta^2
    # = 0 (Python's division refuses it), leaves it to the rows.
    n_vrs = rows.shape[1]
    lam = float(rows.constants.lambda_big.max())
    g_max = float(rows.distinct_gammas.max())
    try:
        bounds = _pricing_formulas(
            rows, lam, g_max, n_vrs * g_max ** (1 / 3), n_vrs * g_max**0.5, max
        )
        if all(bound <= sys.float_info.max / 2 * (1 - 1e-9) for bound in bounds.values()):
            return
    except ZeroDivisionError:
        pass
    products = rows.pricing_products
    bad = ~(np.array(list(products.values())) <= sys.float_info.max / 2)
    if bad.any():
        k, r = np.unravel_index(np.argmax(bad), bad.shape)  # first product, first row
        name = list(products)[k]
        raise ValueError(f"{name} = {products[name][r]:.3g} overflows a float")


def _root_sums(roots: np.ndarray, u: np.ndarray) -> list:
    """sum_{j<=u[r]} roots[r, j] for each row r, one numpy sum per distinct u.

    Each value is numpy's pairwise sum of roots[r, :u[r]], bit for bit.
    roots with a single row stands for that row broadcast to every row,
    and is summed once per distinct u.  Otherwise the rows are sorted by
    u once, and the rows sharing a u are summed as one contiguous
    (rows x u) slice along axis 1, which numpy sums row by row exactly
    as it sums one row.
    """
    counts = u.tolist()
    if roots.shape[0] == 1:
        sum_of = {k: float(roots[0, :k].sum()) for k in set(counts)}
        return [sum_of[k] for k in counts]
    order = np.argsort(u, kind="stable")
    ordered = u[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1]))).tolist()
    by_u = roots[order]
    sums = np.empty(u.size)
    for lo, hi in zip(starts, starts[1:] + [u.size]):
        sums[order[lo:hi]] = by_u[lo:hi, : ordered[lo]].sum(axis=1)
    return sums.tolist()


def _posted_prices(scheme: str, rows: GameRows, u: np.ndarray) -> np.ndarray:
    """(R, V) prices keeping exactly the u[r] most popular retailers of row r.

    NUPS: s_i = Lambda s^bh (sum_{j<=u} Gamma_j^(1/3))^2 Gamma_i^(1/3)
                / (lambda (u Lambda + Theta)^2);
    UPS:  the shared s = Lambda s^bh (sum_{j<=u} Gamma_j^(1/2))^2
                / (lambda (u Lambda + Theta)^2).
    Retailers past u get 0.  The root sums are numpy's pairwise sums of
    each row's first u roots, taken once per distinct u (_root_sums).
    Each scale is formed from Python floats, whose squares are libm's
    pow: numpy's array square rounds otherwise.
    """
    roots = rows.roots(scheme)
    s_bh = rows.econ.backhaul_cost
    intensity = rows.econ.sbs_intensity
    theta = rows.constants.theta
    scales = [
        lam * s_bh * root_sum**2 / (intensity * (u_r * lam + theta) ** 2)
        for u_r, root_sum, lam in zip(
            u.tolist(), _root_sums(roots, u), rows.constants.lambda_big[:, 0].tolist()
        )
    ]
    scales = np.array(scales)[:, None]
    posted = np.arange(1, rows.shape[1] + 1) <= u[:, None]
    return np.where(posted, scales * roots if scheme == "NUPS" else scales, 0.0)


def _budget_fractions(roots: np.ndarray, u: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """(R, V) fractions of the u[r] retailers row r keeps, 0 past u.

    The followers' best responses to the posted prices, with the prices
    substituted: tau_v = r_v / R + (Lambda/Theta) (u d_v - D) / R, where r
    is the row of roots (q^(1/3) under NUPS, q^(1/2) under UPS and
    water-filling), R = sum_{j<=u} r_j, d_v = r_v - r_1 and
    D = sum_{j<=u} d_j.  ratio is the (R, 1) column Lambda/Theta.  No
    money enters, and the terms (u d_v - D) sum to exactly 0 over v <= u,
    so a row fills the budget up to rounding at any Lambda/Theta; u = 1
    gives tau_1 = 1 exactly.  Each term is at most R in size, so nothing
    overflows.  A fraction that rounds below 0 is 0.
    """
    count = u[:, None]
    posted = np.arange(1, roots.shape[1] + 1) <= count
    total = np.where(posted, roots, 0.0).sum(axis=1, keepdims=True)
    spread = np.where(posted, roots - roots[:, :1], 0.0)
    at_u = spread.sum(axis=1, keepdims=True)
    tau = roots / total + ratio * (count * spread - at_u) / total
    return np.where(posted, np.maximum(tau, 0.0), 0.0)


def solve_rows(scheme: str | tuple, rows: GameRows) -> RowOutcomes | tuple:
    """NUPS, UPS or water-filling equilibrium of every row of a GameRows.

    Each row keeps the u retailers whose U_v (NUPS) or Ubar_v (UPS and
    water-filling) lies below Q (_bracket_count), posts the closed-form
    prices for u (none under water-filling), takes the followers'
    fractions from the budget identity (_budget_fractions) and reports
    every row's profits.  That count is the leader's optimum: its
    objective is concave and separable in the fractions, so its
    maximiser keeps exactly the retailers whose KKT fraction is positive
    (Boyd & Vandenberghe, Convex Optimization, 5.5.3).  With
    Lambda = C N / Q, U_v < Q  <=>  Lambda (R_v / r_v - v) < Theta  <=>
    tau_v > 0 in the v-participant solution, where r_v is q_v^(1/3) (NUPS)
    or q_v^(1/2) (UPS) and R_v the sum of r_j over j <= v.  U_1 = 0 and
    Q >= 1, so u >= 1.  Water-filling maximises the sum profit over the
    fractions directly; its allocation is the UPS one, and as it uses no
    pricing closed form, s^ld may differ from s^bh there.  Raises on the
    first failed check, with the message of the first failing row; a row
    whose count of positive fractions is not its u raises
    VerificationFailure.

    scheme may also be a tuple of schemes, such as ("NUPS", "UPS"): they
    are solved in one pass and one RowOutcomes is returned per scheme, in
    order, each the same as its own call would give.  Each scheme counts
    its u, posts its prices and forms its fractions; the checks after
    that run once, on the schemes' rows stacked in order, so a failure
    names the first failing row of the first check that fails (and the
    budget message the scheme of that row) rather than the first scheme's
    error.
    """
    schemes = (scheme,) if isinstance(scheme, str) else tuple(scheme)
    bases = ["UPS" if name == "WATERFILL" else name for name in schemes]
    # an overflowing N C / Theta raises before the pricing checks
    brackets = [rows.brackets(base) for base in bases]
    if set(schemes) != {"WATERFILL"}:
        _require_pricing_domain(rows)
    theta_lam = rows.constants.theta**2 * rows.econ.sbs_intensity
    heads = []
    for name, base, bracket in zip(schemes, bases, brackets):
        u = _bracket_count(bracket, rows.storage)
        if name == "WATERFILL":
            prices = np.zeros(rows.shape)
        else:
            prices = _posted_prices(name, rows, u)
            # Gamma, and so the price, falls along a row: s_u is the smallest
            # posted price, and Theta^2 lambda s_u the smallest divisor of the
            # verifier's best responses.  A subnormal one has lost digits.
            smallest = prices[np.arange(u.size), u - 1] * min(1.0, theta_lam)
            if not smallest.min() >= sys.float_info.min:  # a NaN fails too
                r = int(np.argmin(smallest >= sys.float_info.min))
                raise ValueError(
                    f"min(s_u, Theta^2 * lambda * s_u) = {smallest[r]:.3g} at u = {u[r]} is below "
                    f"the smallest normal float, {sys.float_info.min:.3g}"
                )
        heads.append((u, prices, rows.q_roots(base)))
    # Past the heads, one pass over the schemes' rows stacked in order.
    # Gamma stays one broadcast row when the rows share it; the schemes'
    # roots differ, so stacked they take one row per market.
    gammas, constants = rows.distinct_gammas, rows.constants
    if len(schemes) == 1:
        u, prices, roots = heads[0]
    else:
        u, prices, roots = map(np.concatenate, zip(*heads))
        if gammas.shape[0] == 1:
            roots = np.repeat(roots, rows.shape[0], axis=0)
        else:
            gammas = np.concatenate([gammas] * len(schemes))
        constants = constants.with_lambda_big(
            np.concatenate([constants.lambda_big] * len(schemes))
        )
    fractions = _budget_fractions(roots, u, constants.lambda_big / constants.theta)
    totals = ordered_sums(fractions)
    if np.fmax.reduce(totals) > 1.0 + 1e-9:  # fmax skips NaNs, as the comparison does
        r = int(np.argmax(totals > 1.0 + 1e-9))
        raise ArithmeticError(
            f"{schemes[r // rows.shape[0]]} best responses sum to {float(totals[r])}; "
            "the posted prices are broken"
        )
    fractions = np.minimum(fractions, 1.0)
    check_fraction_rows(fractions)
    # prices past u are 0 and s_u > 0, so each row posts exactly u prices
    positive = (fractions > 0).sum(axis=1)
    if positive.tolist() != u.tolist():
        r = int(np.argmax(positive != u))
        raise VerificationFailure(
            f"inconsistent outcome: participants={u[r]}, "
            f"posted prices={u[r]}, positive fractions={positive[r]}"
        )
    report = profit_report(fractions, prices, gammas, rows.econ, constants)
    if len(schemes) == 1:
        return RowOutcomes(scheme, u, prices, fractions, report)
    n_rows = rows.shape[0]
    outcomes = []
    for k, name in enumerate(schemes):
        part = slice(k * n_rows, (k + 1) * n_rows)
        outcomes.append(
            RowOutcomes(name, u[part], prices[part], fractions[part], report.rows(part))
        )
    return tuple(outcomes)


def nups_solve(rows: GameRows) -> RowOutcomes:
    """Equilibrium under per-retailer pricing (solve_rows, scheme NUPS)."""
    return solve_rows("NUPS", rows)


def ups_solve(rows: GameRows) -> RowOutcomes:
    """Equilibrium under a single shared price (solve_rows, scheme UPS)."""
    return solve_rows("UPS", rows)


def waterfill_solve(rows: GameRows) -> RowOutcomes:
    """Sum-profit maximizer over the fractions (solve_rows, scheme WATERFILL)."""
    return solve_rows("WATERFILL", rows)


@dataclass(frozen=True)
class VerificationRecord:
    """Certified bounds of verify_equilibrium, relative to the checked objective.

    follower_max_gain is the largest gain a posted retailer can make by
    moving its own fraction, from follower_checks = u retailers (nan and
    0 under water-filling, which posts no prices).  leader_max_gain is
    the Frank-Wolfe gap of the leader's objective (>= 0, an upper bound
    on any feasible gain), from leader_checks = V gradient entries.
    """

    follower_max_gain: float
    leader_max_gain: float
    follower_checks: int
    leader_checks: int


def _frank_wolfe_gap(grad: np.ndarray, tau: np.ndarray) -> tuple[float, int]:
    """Frank-Wolfe gap of a concave objective at tau, and its best retailer.

    grad is the objective's gradient at tau.  On the budget
    B = max(1, sum tau) that check_fraction_rows allows, the gap
    G = B max(g_j, 0) - g . tau, with g_j the largest entry, bounds
    f(s) - f(tau) for every s with 0 <= s <= 1 and sum s <= B, so it
    bounds every mass transfer, every use of budget left idle and, where
    every marginal is negative, every cut.  It is formed as the sum of
    the non-negative terms (top - g_v) tau_v and top (B - sum tau), with
    top = max(g_j, 0).
    """
    j = int(grad.argmax())
    top = max(grad[j], 0.0)
    total = tau.sum()
    return (top - grad) @ tau + top * (max(1.0, total) - total), j


def verify_equilibrium(
    outcome: RowOutcomes,
    rows: GameRows,
    i: int = 0,
    rel_tol: float = 1e-6,
) -> VerificationRecord:
    """Certify row i's equilibrium conditions, or water-filling's optimality.

    The candidate is row i of outcome: its u posted prices, its fractions
    and its profit totals.  The market is row i of rows: its Gamma row,
    the economics and the coverage constants at that row's Lambda.  No
    solver closed form is used.

    Follower side (NUPS/UPS): a posted retailer's profit
    Gamma s^ld t / (Theta t + Lambda) - lambda s_v t is concave in t, so
    min(best response, 1) is its exact maximizer on [0, 1]; its gain over
    the retailer's fraction, relative to max(|profit|, 1e-9), must not
    exceed rel_tol.

    Leader side: the objective, as a function of the fractions the
    followers take, is concave and separable, so its Frank-Wolfe gap
    (_frank_wolfe_gap), one O(V) pass over its gradient, bounds the gain
    of every feasible allocation, priced-out retailers included.  With
    x = Theta t + Lambda:
      NUPS      the provider profit.  The price that buys fraction t is
                s_v(t) = Gamma_v s^ld Lambda / (lambda x^2), so
                g_v = Gamma_v Lambda [s^ld (Lambda - Theta t) / x^3
                + s^bh / x^2].  It is concave on [0, 1] when
                (2 s^ld + s^bh) Lambda >= Theta (s^ld - s^bh), which is
                checked before anything else.  A posted price below
                s_v(tau_v) (a follower clamped at 1) forgoes rent, which
                is added to the gap.
      UPS       the back-haul saving, g_v = Gamma_v s^bh Lambda / x^2:
                the shared price's allocation must be the water-filling
                one.
      WATERFILL the sum profit, g_v = Gamma_v (s^bh + s^ld) Lambda / x^2.
    The gap is taken relative to max(|objective|, 1e-9).

    Raises VerificationFailure naming the first retailer that gains,
    else the gap and the retailer of largest marginal objective.
    """
    econ = rows.econ
    constants = rows.constants.with_lambda_big(float(rows.constants.lambda_big[i, 0]))
    theta, lam_big = constants.theta, constants.lambda_big
    s_ld, s_bh = econ.local_surcharge, econ.backhaul_cost
    gammas = rows.gammas[i]
    tau = outcome.fractions[i]
    u = int(outcome.n_participants[i])
    price = outcome.prices[i, :u]
    # the one condition under which the NUPS leader's objective is concave
    if outcome.scheme == "NUPS" and not (2 * s_ld + s_bh) * lam_big >= theta * (s_ld - s_bh):
        raise VerificationFailure(
            "leader condition uncertified: the provider profit is not concave in the "
            f"fractions, (2 s_ld + s_bh) Lambda < Theta (s_ld - s_bh) at s_ld={s_ld}, "
            f"s_bh={s_bh}"
        )
    # x = Theta t + Lambda, the hit probability's denominator at each fraction
    theta_tau = theta * tau
    x = theta_tau + lam_big
    follower_gain, follower_checks = math.nan, 0
    if outcome.scheme != "WATERFILL":
        gamma, t = gammas[:u], tau[:u]
        best = np.minimum(best_response_fraction(price, gamma, econ, constants), 1.0)
        surcharge = gamma * s_ld
        rent = econ.sbs_intensity * price
        base = surcharge * t / x[:u] - rent * t
        moved = surcharge * best / (theta * best + lam_big) - rent * best
        gains = (moved - base) / np.maximum(np.abs(base), 1e-9)
        top_gain = gains.max(initial=-math.inf)
        if not top_gain <= rel_tol:  # a NaN gain certifies nothing
            v = int(np.argmax(~(gains <= rel_tol)))
            raise VerificationFailure(
                f"follower condition violated: retailer {v + 1} gains "
                f"{gains[v]:.3e} (relative) by moving tau from {t[v]:.6g} to {best[v]:.6g}"
            )
        follower_gain, follower_checks = float(top_gain), u

    # Lambda / x^2 first: it is at most 1 / Lambda, while Gamma Lambda may overflow
    marginal_hit = lam_big / x**2
    shortfall = 0.0
    if outcome.scheme == "NUPS":
        grad = gammas * (marginal_hit * (s_ld * (lam_big - theta_tau) / x + s_bh))
        condition, label, total = "leader", "provider profit", outcome.report.nsp_total[i]
        # the rent each posted fraction would fetch at the price that buys it,
        # less the rent paid: positive only where a price sits below that one
        shortfall = np.maximum(t * (surcharge * marginal_hit[:u] - rent), 0.0).sum()
    elif outcome.scheme == "UPS":
        grad = gammas * s_bh * marginal_hit
        condition, label = "leader", "back-haul saving"
        total = outcome.report.nsp_backhaul_saving[i]
    else:
        grad = gammas * (s_bh + s_ld) * marginal_hit
        condition, label, total = "sum-profit", "sum profit", outcome.report.global_total[i]
    gap, j = _frank_wolfe_gap(grad, tau)
    gap = (gap + shortfall) / max(abs(total), 1e-9)
    if not gap <= rel_tol:  # a NaN gap certifies nothing
        raise VerificationFailure(
            f"{condition} condition violated: Frank-Wolfe gap {gap:.3e} (relative); "
            f"retailer {j + 1} has the largest marginal {label}"
        )
    return VerificationRecord(
        follower_max_gain=follower_gain,
        leader_max_gain=float(gap),
        follower_checks=follower_checks,
        leader_checks=tau.size,
    )
