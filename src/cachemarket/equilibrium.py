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
in q, Lambda and Theta, in which the prices cancel.  The same masked
pass over q's roots prices NUPS and UPS: each price is the money scale
s^bh zeta K / lambda times a value free of money, so the solver forms no
product that could overflow before the price itself does.  One check on
the money cells then names any price or profit cell out of range.  Only
the verifier best-responds to the posted prices.
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

# The root each scheme takes of q
_ROOTS = {"NUPS": np.cbrt, "UPS": np.sqrt}
# Prices stay below half the float range, room for the verifier's doubled prices
_PRICE_MAX = sys.float_info.max / 2


class VerificationFailure(AssertionError):
    """An equilibrium candidate violates a best-response condition."""


@dataclass(frozen=True)
class GameRows:
    """R markets solved together, one per row; make_instance builds one row.

    The rows share V, N, (delta, alpha) and the economics; a sweep varies Q
    (so Lambda and the brackets) or gamma (so q, Gamma and the brackets).
    q is the (R, V) retailer preferences, possibly one row broadcast to all
    (np.broadcast_to); storage and constants.lambda_big are (R, 1)
    columns.  The roots of q, the brackets and Gamma are derived from q's
    distinct rows; u, the fractions and the prices read the roots, and
    only the profits and the verifier read Gamma.
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

        Profits taken on it broadcast back to every row bit for bit: each
        is computed along a row.
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

        The brackets, the fractions and the prices read them.
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
    from the budget identity instead (_fractions_and_prices).

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


def _fractions_and_prices(scheme: str, rows: GameRows, u: np.ndarray) -> tuple:
    """(R, V) fractions and prices of the u[r] retailers row r keeps, 0 past u.

    One masked pass over r, the row of q's roots (q^(1/3) under NUPS,
    q^(1/2) under UPS and water-filling), with R = sum_{j<=u} r_j.

    Fractions: the followers' best responses to the posted prices, with
    the prices substituted: tau_v = r_v / R + (Lambda/Theta) (u d_v - D) / R,
    where d_v = r_v - r_1 and D = sum_{j<=u} d_j.  No money enters, and
    the terms (u d_v - D) sum to exactly 0 over v <= u, so a row fills
    the budget up to rounding at any Lambda/Theta; u = 1 gives tau_1 = 1
    exactly.  Each term is at most R in size, so nothing overflows.  A
    fraction that rounds below 0 is 0.

    Prices: s_v = (m / lambda) p_v with the money scale m = s^bh zeta K
    and p_v = [Lambda / (u Lambda + Theta)] [R^2 / (u Lambda + Theta)] r_v
    under NUPS; UPS drops the factor r_v, and water-filling posts none
    (every price 0).  p_v is at most R^2 / (u Lambda), and no Lambda^2 is
    formed.  m / lambda is applied as a fraction times a power of 2
    (frexp, ldexp), so no step before the price itself overflows or
    leaves the normal range; _require_money_cells names a price that does.
    """
    roots = rows.q_roots("UPS" if scheme == "WATERFILL" else scheme)
    lam_big, theta = rows.constants.lambda_big, rows.constants.theta
    count = u[:, None]
    posted = np.arange(1, roots.shape[1] + 1) <= count
    total = np.where(posted, roots, 0.0).sum(axis=1, keepdims=True)
    spread = np.where(posted, roots - roots[:, :1], 0.0)
    at_u = spread.sum(axis=1, keepdims=True)
    tau = roots / total + lam_big / theta * (count * spread - at_u) / total
    fractions = np.where(posted, np.maximum(tau, 0.0), 0.0)
    if scheme == "WATERFILL":
        return fractions, np.zeros(fractions.shape)
    level = count * lam_big + theta
    price = lam_big / level * (total * total / level)
    if scheme == "NUPS":
        price = price * roots
    econ = rows.econ
    s_bh, e_s = math.frexp(econ.backhaul_cost)
    demand, e_d = math.frexp(econ.mu_intensity * econ.requests_per_mu)
    intensity, e_i = math.frexp(econ.sbs_intensity)
    with np.errstate(over="ignore"):
        price = np.ldexp(price * (s_bh * demand / intensity), e_s + e_d - e_i)
    return fractions, np.where(posted, price, 0.0)


def _require_money_cells(
    schemes: tuple, u: np.ndarray, prices: np.ndarray, report: ProfitReport, theta_lam: float
) -> None:
    """The solved rows' money: cells the CSV can print and the verifier can divide by.

    Every price is at most half the float range, which leaves room for the
    verifier's doubled prices, and every profit cell is finite.  A cell
    that is not finite reaches s_glb, whose terms hold every rent, saving
    and profit, and each surcharge through its profit, so two reductions
    pass a sound block; otherwise the error names the first failing row's
    first failing cell, with its scheme and u.  Then, on the priced rows:
    q, and so the price, falls along a row, so s_u is the smallest posted
    price and Theta^2 lambda s_u the smallest divisor of the verifier's
    best responses.  A subnormal one has lost digits.
    """
    if not (prices.max(initial=0.0) <= _PRICE_MAX and np.isfinite(report.global_total).all()):
        cells = dict(
            price=prices, surcharge=report.vr_surcharge, rent=report.vr_rent,
            profit=report.vr_profits, s_rt=report.nsp_leasing, s_bh=report.nsp_backhaul_saving,
            s_nsp=report.nsp_total, s_glb=report.global_total,
        )  # fmt: skip
        cells = {name: cell.reshape(u.size, -1) for name, cell in cells.items()}
        bad = {  # a NaN fails too
            name: ~(np.abs(cell) <= (_PRICE_MAX if name == "price" else sys.float_info.max))
            for name, cell in cells.items()
        }
        r = int(np.argmax(np.any([b.any(axis=1) for b in bad.values()], axis=0)))
        name = next(name for name, b in bad.items() if b[r].any())
        v = int(np.argmax(bad[name][r]))
        cell = name if name.startswith("s_") else f"{name} {v + 1}"
        limit = f"at most half the float range, {_PRICE_MAX:.3g}" if name == "price" else "finite"
        raise ValueError(
            f"{schemes[r * len(schemes) // u.size]} {cell} = {cells[name][r, v]:.3g} "
            f"at u = {u[r]} is not {limit}"
        )
    if set(schemes) == {"WATERFILL"}:
        return
    smallest = prices[np.arange(u.size), u - 1] * min(1.0, theta_lam)
    if "WATERFILL" in schemes:  # it posts no prices
        smallest[np.repeat([name == "WATERFILL" for name in schemes], u.size // len(schemes))] = 1
    if not smallest.min() >= sys.float_info.min:
        r = int(np.argmin(smallest >= sys.float_info.min))
        raise ValueError(
            f"min(s_u, Theta^2 * lambda * s_u) = {smallest[r]:.3g} at u = {u[r]} is below "
            f"the smallest normal float, {sys.float_info.min:.3g}"
        )


def solve_rows(scheme: str | tuple, rows: GameRows) -> RowOutcomes | tuple:
    """NUPS, UPS or water-filling equilibrium of every row of a GameRows.

    Each row keeps the u retailers whose U_v (NUPS) or Ubar_v (UPS and
    water-filling) lies below Q (_bracket_count), takes the followers'
    fractions from the budget identity and posts the closed-form prices
    for u (none under water-filling) in one pass (_fractions_and_prices),
    and reports every row's profits, a posted retailer's in the form
    without a subtraction (profit_report's best_response).  That count
    is the leader's optimum: its objective is concave and separable in
    the fractions, so its maximiser keeps exactly the retailers whose
    KKT fraction is positive (Boyd & Vandenberghe, Convex Optimization,
    5.5.3).  With
    Lambda = C N / Q, U_v < Q  <=>  Lambda (R_v / r_v - v) < Theta  <=>
    tau_v > 0 in the v-participant solution, where r_v is q_v^(1/3) (NUPS)
    or q_v^(1/2) (UPS) and R_v the sum of r_j over j <= v.  U_1 = 0 and
    Q >= 1, so u >= 1.  Water-filling maximises the sum profit over the
    fractions directly; its allocation is the UPS one, and as it uses no
    pricing closed form, s^ld may differ from s^bh there.  Raises on the
    first failed check, with the message of the first failing row: the
    budget, the fractions, the count of positive fractions (a row whose
    count is not its u raises VerificationFailure), then the money cells
    (_require_money_cells).

    scheme may also be a tuple of schemes, such as ("NUPS", "UPS"): they
    are solved in one pass and one RowOutcomes is returned per scheme, in
    order, each the same as its own call would give.  Each scheme counts
    its u and forms its fractions and prices; the checks after
    that run once, on the schemes' rows stacked in order, so a failure
    names the first failing row of the first check that fails (and the
    budget message the scheme of that row) rather than the first scheme's
    error.
    """
    schemes = (scheme,) if isinstance(scheme, str) else tuple(scheme)
    bases = ["UPS" if name == "WATERFILL" else name for name in schemes]
    # an overflowing N C / Theta raises before the pricing checks
    brackets = [rows.brackets(base) for base in bases]
    econ = rows.econ
    # the pricing closed forms' precondition; water-filling uses none
    pricing = set(schemes) != {"WATERFILL"}
    if pricing and abs(econ.local_surcharge - econ.backhaul_cost) > 1e-12 * econ.backhaul_cost:
        raise ValueError(
            "the pricing closed forms require the local surcharge to equal "
            f"the back-haul cost, got s_ld={econ.local_surcharge}, "
            f"s_bh={econ.backhaul_cost}"
        )
    heads = []
    for name, bracket in zip(schemes, brackets):
        u = _bracket_count(bracket, rows.storage)
        heads.append((u, *_fractions_and_prices(name, rows, u)))
    # Past the heads, one pass over the schemes' rows stacked in order.
    # Gamma stays one broadcast row when the rows share it.
    gammas, constants = rows.distinct_gammas, rows.constants
    n_rows = rows.shape[0]
    if len(schemes) == 1:
        u, fractions, prices = heads[0]
    else:
        u, fractions, prices = map(np.concatenate, zip(*heads))
        if gammas.shape[0] != 1:
            gammas = np.concatenate([gammas] * len(schemes))
        constants = constants.with_lambda_big(
            np.concatenate([constants.lambda_big] * len(schemes))
        )
    totals = ordered_sums(fractions)
    if np.fmax.reduce(totals) > 1.0 + 1e-9:  # fmax skips NaNs, as the comparison does
        r = int(np.argmax(totals > 1.0 + 1e-9))
        raise ArithmeticError(
            f"{schemes[r // n_rows]} best responses sum to {float(totals[r])}; "
            "the posted prices are broken"
        )
    fractions = np.minimum(fractions, 1.0)
    check_fraction_rows(fractions)
    # prices past u are 0 and _require_money_cells keeps s_u > 0, so each
    # row posts exactly u prices
    positive = (fractions > 0).sum(axis=1)
    if positive.tolist() != u.tolist():
        r = int(np.argmax(positive != u))
        raise VerificationFailure(
            f"inconsistent outcome: participants={u[r]}, "
            f"posted prices={u[r]}, positive fractions={positive[r]}"
        )
    # a priced row's fractions are the best responses to its prices
    priced = [name != "WATERFILL" for name in schemes]
    best_response = priced[0] if len(set(priced)) == 1 else np.repeat(priced, n_rows)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # _require_money_cells names an overflow
        report = profit_report(fractions, prices, gammas, econ, constants, best_response)
    _require_money_cells(schemes, u, prices, report, rows.constants.theta**2 * econ.sbs_intensity)
    if len(schemes) == 1:
        return RowOutcomes(scheme, u, prices, fractions, report)
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


def _require_no_overflow(value, where: str, *inputs) -> None:
    """ValueError if a certificate value is not finite though its inputs are.

    Then the verifier's own products left the float range, and the value
    certifies nothing either way.
    """
    if not math.isfinite(value) and all(np.isfinite(x).all() for x in inputs):
        raise ValueError(f"{where} overflows a float")


# a product past the float range makes a gain or the gap inf or NaN,
# which _require_no_overflow names
@np.errstate(over="ignore", invalid="ignore")
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
    else the gap and the retailer of largest marginal objective.  A gain
    or gap that is not finite, from a finite candidate and market, is the
    verifier's own overflow: ValueError names the check.
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
        # an overflowing Gamma Lambda s^ld would read as a best response above
        # 1; the largest Gamma_v's product overflows if any does
        if gamma.max(initial=0.0) * lam_big * s_ld == math.inf:
            raise ValueError("Gamma * Lambda * s_ld = inf overflows a float")
        best = np.minimum(best_response_fraction(price, gamma, econ, constants), 1.0)
        surcharge = gamma * s_ld
        rent = econ.sbs_intensity * price
        base = surcharge * t / x[:u] - rent * t
        moved = surcharge * best / (theta * best + lam_big) - rent * best
        gains = (moved - base) / np.maximum(np.abs(base), 1e-9)
        top_gain = gains.max(initial=-math.inf)
        if not top_gain <= rel_tol:  # a NaN gain certifies nothing
            v = int(np.argmax(~(gains <= rel_tol)))
            where = f"retailer {v + 1}'s follower check"
            _require_no_overflow(gains[v], where, gamma, t, price)
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
        _require_no_overflow(gap, f"the marginal {label}", gammas, tau, price)
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
