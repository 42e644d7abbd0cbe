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
    check_fraction_rows,
    gamma_vector,
    ordered_sums,
    profit_report,
    profit_rows,
)

__all__ = [
    "GameInstance",
    "GameRows",
    "RowOutcomes",
    "ParticipationThresholds",
    "EquilibriumOutcome",
    "VerificationFailure",
    "VerificationRecord",
    "best_response_fraction",
    "participation_threshold_rows",
    "nups_solve",
    "ups_solve",
    "solve_rows",
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
        """This market's U_v and Ubar_v: the one row of self.rows.thresholds."""
        th = self.rows.thresholds
        return ParticipationThresholds(th.u_values[0], th.u_bar_values[0])

    @cached_property
    def rows(self) -> GameRows:
        """This market as the one row of a GameRows."""
        q = np.asarray(self.pops.q, dtype=float)
        return GameRows(
            gammas=self._gammas[None, :],
            thresholds=participation_threshold_rows(q[None, :], self.n_files, self.constants),
            storage=np.array([[self.storage]], dtype=float),
            econ=self.econ,
            constants=self.constants.with_lambda_big(np.array([[self.constants.lambda_big]])),
        )


@dataclass(frozen=True)
class ParticipationThresholds:
    """Minimum-storage thresholds U_v (per-VR pricing) and Ubar_v (shared price)."""

    u_values: np.ndarray
    u_bar_values: np.ndarray


@dataclass(frozen=True)
class GameRows:
    """R markets solved together, one per row: the batch form of GameInstance.

    The rows share V, (delta, alpha) and the economics; a sweep varies Q
    (so Lambda and the brackets) or gamma (so Gamma and the thresholds).
    gammas is (R, V), possibly one row broadcast to all (np.broadcast_to);
    the threshold arrays broadcast against it; storage and
    constants.lambda_big are (R, 1) columns.
    """

    gammas: np.ndarray
    thresholds: ParticipationThresholds
    storage: np.ndarray
    econ: EconomicConfig
    constants: CoverageConstants

    @property
    def shape(self) -> tuple[int, int]:
        return self.gammas.shape

    @property
    def distinct_gammas(self) -> np.ndarray:
        """gammas, or its first row when one row is broadcast to every row.

        Roots, row sums and prefix sums taken on it broadcast back to
        every row bit for bit: each is computed along a row.
        """
        return self.gammas[:1] if self.gammas.strides[0] == 0 else self.gammas

    @cached_property
    def roots(self) -> dict[str, np.ndarray]:
        """Gamma^(1/3) (NUPS) and Gamma^(1/2) (UPS) of distinct_gammas, by scheme.

        The pricing bounds, the surrogates and the posted prices all read
        them, so each is taken once per GameRows.
        """
        gammas = self.distinct_gammas
        return {"NUPS": np.cbrt(gammas), "UPS": np.sqrt(gammas)}

    @cached_property
    def pricing_products(self) -> dict[str, np.ndarray]:
        """Bounds, over u <= V, on products the NUPS/UPS closed forms form.

        One value per row.  S_k = sum_v Gamma_v^(1/k); Gamma_1 is the
        largest Gamma.  Each must stay below half the float range (room
        for the verifier's doubled prices).
        """
        lam = self.constants.lambda_big[:, 0]
        s = self.econ.backhaul_cost
        g1 = self.distinct_gammas[:, 0]
        s3 = self.roots["NUPS"].sum(axis=1)
        s2 = self.roots["UPS"].sum(axis=1)
        n_vrs = self.gammas.shape[1]
        # an overflow, or lambda Theta^2 underflowing to 0, shows as inf or
        # nan in the bound, which fails its check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            numerator = lam * s * np.maximum(s3 * s3 * np.maximum(g1 ** (1 / 3), 1.0), s2 * s2)
            return {
                "Gamma_1 * Lambda * s_bh": g1 * lam * s,
                "Lambda^2 * s_bh * S_3^3": lam * lam * s * s3 * s3 * s3,
                "V * Lambda^2 * s_bh * S_2^2": n_vrs * lam * lam * s * s2 * s2,
                "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2)": numerator,
                "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2)": (
                    numerator / (self.econ.sbs_intensity * self.constants.theta**2)
                ),
            }


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Solved prices, fractions, participant count, and profits."""

    scheme: str  # NUPS | UPS | WATERFILL
    prices: PriceVector
    fractions: FractionVector
    n_participants: int
    report: ProfitReport


@dataclass(frozen=True)
class RowOutcomes:
    """NUPS or UPS equilibria of every row of a GameRows, with their profits.

    solve_rows has checked every row: its u participants are the
    retailers with a posted price and the ones with a positive fraction.
    """

    scheme: str
    n_participants: np.ndarray  # (R,): u of each row
    prices: np.ndarray  # (R, V): the posted prices, 0 past u
    fractions: np.ndarray  # (R, V): every row passed check_fraction_rows
    report: ProfitReport  # profit_rows of every row

    def outcome(self, i: int) -> EquilibriumOutcome:
        """Row i as an EquilibriumOutcome."""
        u = int(self.n_participants[i])
        prices = PriceVector.of_checked_row(self.prices[i, :u], self.prices.shape[1])
        fractions = FractionVector.of_checked_row(self.fractions[i])
        return EquilibriumOutcome(self.scheme, prices, fractions, u, self.report.row(i))


def best_response_fraction(
    prices: np.ndarray | float,
    gammas: np.ndarray | float,
    cfg: EconomicConfig,
    constants: CoverageConstants,
) -> np.ndarray | float:
    """Followers' optimal rental fractions at the given prices, elementwise.

    tau* = (sqrt(Gamma Lambda s^ld / (Theta^2 lambda s_v)) - Lambda/Theta)+.
    prices, gammas and constants.lambda_big broadcast against each other;
    scalars give a scalar.  Every price must be positive (a NaN is not).
    The value is deliberately not clamped at 1: a result above 1 flags a
    price vector no leader optimum would post.
    """
    positive = np.asarray(prices) > 0
    if not positive.all():
        bad = np.asarray(prices).flat[np.argmin(positive)]
        raise ValueError(f"price must be positive, got {bad}")
    theta = constants.theta
    lam_big = constants.lambda_big
    root = np.sqrt(
        gammas * lam_big * cfg.local_surcharge / (theta**2 * cfg.sbs_intensity * prices)
    )
    return np.maximum(root - lam_big / theta, 0.0)


def participation_threshold_rows(
    q: np.ndarray, n_files: int, constants: CoverageConstants
) -> ParticipationThresholds:
    """Storage thresholds of each row of an (R, V) block of preferences.

    U_v    = N C (sum_{j<=v} (q_j/q_v)^(1/3) - v) / Theta
    Ubar_v = same with square roots; Ubar_v >= U_v, both 0 at v = 1.
    Retailer v can take part under NUPS (UPS) only when U_v (Ubar_v)
    lies below Q.  A retailer whose weight q_v underflowed to 0 can
    never take part: its thresholds are +inf.
    """
    scale = n_files * constants.c / constants.theta
    if not scale <= sys.float_info.max:
        raise ValueError(f"N * C / Theta = {scale:.3g} overflows a float")
    v_idx = np.arange(1, q.shape[1] + 1, dtype=float)
    roots = np.stack((np.cbrt(q), np.sqrt(q)))
    # cumulative sums of (q_j / q_v)^(1/3) and ^(1/2) for each v
    ratios = np.divide(
        np.cumsum(roots, axis=-1), roots, out=np.full(roots.shape, np.inf), where=roots > 0
    )
    u_values, u_bar_values = scale * (ratios - v_idx)
    return ParticipationThresholds(u_values=u_values, u_bar_values=u_bar_values)


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


def _posted_prices(scheme: str, rows: GameRows, u: np.ndarray) -> tuple:
    """(R, V) prices keeping exactly the u[r] most popular retailers of row r.

    NUPS: s_i = Lambda s^bh (sum_{j<=u} Gamma_j^(1/3))^2 Gamma_i^(1/3)
                / (lambda (u Lambda + Theta)^2);
    UPS:  the shared s = Lambda s^bh (sum_{j<=u} Gamma_j^(1/2))^2
                / (lambda (u Lambda + Theta)^2).
    Retailers past u get 0.  The root sums are numpy's pairwise sums of
    each row's first u roots, taken once per distinct u (_root_sums).
    Each scale is formed from Python floats, whose squares are libm's
    pow: numpy's array square rounds otherwise.  Returns the prices and
    the (R, V) mask of posted retailers.
    """
    roots = rows.roots[scheme]
    s_bh = rows.econ.backhaul_cost
    intensity = rows.econ.sbs_intensity
    theta = rows.constants.theta
    scales = np.array(
        [
            lam * s_bh * root_sum**2 / (intensity * (u_r * lam + theta) ** 2)
            for u_r, root_sum, lam in zip(
                u.tolist(), _root_sums(roots, u), rows.constants.lambda_big[:, 0].tolist()
            )
        ]
    )[:, None]
    posted = np.arange(1, rows.shape[1] + 1) <= u[:, None]
    return np.where(posted, scales * roots if scheme == "NUPS" else scales, 0.0), posted


def _surrogates(schemes: tuple, rows: GameRows, widths: list) -> list:
    """Negated leader objective of keeping u retailers, u = 1..widths[k], for schemes[k].

    One (R, widths[k]) array per scheme.  The terms the schemes share,
    Lambda^2, (u Lambda + Theta)^2 and s^bh sum_{j<=u} Gamma_j, are
    formed once, at the widest width; a prefix of their columns is what
    a narrower width forms.
    """
    width = max(widths)
    lam_big = rows.constants.lambda_big
    s_bh = rows.econ.backhaul_cost
    u = np.arange(1, width + 1)
    # Lambda^2 as CPython forms it (pow), which numpy's square may round otherwise
    lam_sq = np.array([lam**2 for lam in lam_big[:, 0].tolist()])[:, None]
    denominators = (u * lam_big + rows.constants.theta) ** 2
    demand = s_bh * np.cumsum(rows.distinct_gammas[:, :width], axis=1)
    surrogates = []
    for scheme, w in zip(schemes, widths):
        root_sums = np.cumsum(rows.roots[scheme][:, :w], axis=1)
        if scheme == "NUPS":
            lead = lam_sq * s_bh * root_sums**3
        else:
            lead = u[:w] * lam_sq * s_bh * root_sums**2
        surrogates.append(lead / denominators[:, :w] - demand[:, :w])
    return surrogates


def solve_rows(scheme: str | tuple, rows: GameRows) -> RowOutcomes | tuple:
    """NUPS or UPS equilibrium of every row of a GameRows.

    Each row determines its feasible participant range from the U_v
    (NUPS) or Ubar_v (UPS) brackets, minimizes the surrogate
    S_u = Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/3))^3 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j                              (NUPS)
    S_u = u Lambda^2 s^bh (sum_{j<=u} Gamma_j^(1/2))^2 / (u Lambda + Theta)^2
          - s^bh sum_{j<=u} Gamma_j                              (UPS)
    over it, posts the closed-form prices for the winning count u, lets
    the followers best-respond and reports every row's profits.  Raises
    on the first failed check, with the message of the first failing row;
    a row whose count of positive fractions is not its u raises
    VerificationFailure.

    scheme may also be a tuple of schemes, such as ("NUPS", "UPS"): they
    are solved in one pass and one RowOutcomes is returned per scheme, in
    order, each the same as its own call would give.  Each scheme picks
    its u and posts its prices; the checks and best responses after that
    run once, on the schemes' rows stacked in order, so a failure names
    the first failing row of the first check that fails (and the budget
    message the scheme of that row) rather than the first scheme's error.
    """
    schemes = (scheme,) if isinstance(scheme, str) else tuple(scheme)
    _require_pricing_domain(rows)
    t_max, widths = [], []
    for name in schemes:
        brackets = rows.thresholds.u_values if name == "NUPS" else rows.thresholds.u_bar_values
        counts = _bracket_count(brackets, rows.storage)
        if not counts.all():
            raise ValueError("no retailer lies below the first participation threshold")
        t_max.append(counts)
        # no column past the widest bracket: a lone row forms what it always formed
        widths.append(int(counts.max()))
    heads = []
    for name, counts, surrogates in zip(schemes, t_max, _surrogates(schemes, rows, widths)):
        surrogates[np.arange(1, surrogates.shape[1] + 1) > counts[:, None]] = np.inf
        u = 1 + surrogates.argmin(axis=1)  # argmin takes the smallest u on ties
        heads.append((u, rows.gammas[np.arange(u.size), u - 1], *_posted_prices(name, rows, u)))
    # Past the heads, one pass over the schemes' rows stacked in order.
    # Gamma stays one broadcast row when the rows share it.
    gammas, constants = rows.distinct_gammas, rows.constants
    if len(schemes) == 1:
        u, gamma_u, prices, posted = heads[0]
    else:
        u, gamma_u, prices, posted = map(np.concatenate, zip(*heads))
        if gammas.shape[0] > 1:
            gammas = np.concatenate([gammas] * len(schemes))
        constants = constants.with_lambda_big(
            np.concatenate([constants.lambda_big] * len(schemes))
        )
    econ = rows.econ
    # Gamma, and so the price, falls along a row: s_u is the smallest posted price
    s_u = prices[np.arange(u.size), u - 1]
    if not (s_u > 0).all():
        r = int(np.argmin(s_u > 0))
        raise ValueError(f"price must be positive, got {prices[r, : u[r]].min()}")
    # The best responses' numerator and denominator at retailer u of each
    # row.  Gamma and the price, and so both products, are smallest there.
    # If both are normal floats (at least sys.float_info.min), no posted
    # retailer's best response divides by 0 or loses digits of its
    # numerator or denominator to underflow.
    floors = {
        "Gamma_u * Lambda * s_ld": gamma_u * constants.lambda_big[:, 0] * econ.local_surcharge,
        "Theta^2 * lambda * s_u": constants.theta**2 * econ.sbs_intensity * s_u,
    }
    for name, values in floors.items():
        if not values.all():
            r = int(np.argmin(values != 0))
            raise ValueError(f"{name} underflows to 0 at u = {u[r]}")
    # a subnormal product has lost digits: the best responses built on it
    # can break the budget or vanish although a price is posted
    for name, values in floors.items():
        subnormal = values < sys.float_info.min
        if subnormal.any():
            r = int(np.argmax(subnormal))
            raise ValueError(
                f"{name} = {values[r]:.3g} at u = {u[r]} is below the smallest "
                f"normal float, {sys.float_info.min:.3g}"
            )
    # past u a row repeats its last posted price, which keeps those entries finite
    responses = best_response_fraction(
        np.where(posted, prices, s_u[:, None]), gammas, econ, constants
    )
    responses = np.where(posted, responses, 0.0)
    totals = ordered_sums(responses)
    over = totals > 1.0 + 1e-9
    if over.any():
        r = int(np.argmax(over))
        raise ArithmeticError(
            f"{schemes[r // rows.shape[0]]} best responses sum to {float(totals[r])}; "
            "the posted prices are broken"
        )
    fractions = np.minimum(responses, 1.0)
    check_fraction_rows(fractions)
    # prices past u are 0 and s_u > 0, so each row posts exactly u prices
    positive = (fractions > 0).sum(axis=1)
    bad = positive != u
    if bad.any():
        r = int(np.argmax(bad))
        raise VerificationFailure(
            f"inconsistent outcome: participants={u[r]}, "
            f"posted prices={u[r]}, positive fractions={positive[r]}"
        )
    report = profit_rows(fractions, prices, gammas, econ, constants)
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


def nups_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Equilibrium under per-retailer pricing (solve_rows, scheme NUPS)."""
    return solve_rows("NUPS", instance.rows).outcome(0)


def ups_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Equilibrium under a single shared price (solve_rows, scheme UPS)."""
    return solve_rows("UPS", instance.rows).outcome(0)


def waterfill_solve(instance: GameInstance) -> EquilibriumOutcome:
    """Sum-profit maximizer over the fractions (water-filling structure).

    tau_v = (sqrt(q_v)/eta - Lambda) / Theta for the vbar retailers
    whose Ubar_v lies below Q (the UPS bracket count), 0 for the rest;
    the water level eta = sum_{v<=vbar} sqrt(q_v) / (vbar Lambda + Theta)
    makes them fill the SBS budget exactly.  In exact arithmetic
    sqrt(q_v)/eta > Lambda holds exactly when Ubar_v < Q.
    """
    q = np.asarray(instance.pops.q, dtype=float)
    theta = instance.constants.theta
    lam_big = instance.constants.lambda_big
    sqrt_q = np.sqrt(q)
    v_bar = int(_bracket_count(instance.thresholds.u_bar_values, instance.storage))
    eta = sqrt_q[:v_bar].sum() / (v_bar * lam_big + theta)
    fractions = np.zeros(q.size)
    fractions[:v_bar] = (sqrt_q[:v_bar] / eta - lam_big) / theta
    tau = FractionVector(np.minimum(fractions, 1.0))
    # no prices are posted in the global scheme: rent is a pure transfer
    prices = PriceVector(np.zeros(q.size))
    report = profit_report(tau, prices, instance.pops, instance.econ, instance.constants)
    return EquilibriumOutcome("WATERFILL", prices, tau, v_bar, report)


@dataclass(frozen=True)
class VerificationRecord:
    """Margins of verify_equilibrium, relative to the checked objective.

    NUPS/UPS: the largest gains the follower and leader perturbations
    found (-inf when there was no check of that kind).  WATERFILL:
    leader_max_gain is the Frank-Wolfe gap (>= 0, an upper bound on any
    feasible gain) from leader_checks = V gradient entries; there is no
    follower check (follower_max_gain nan, follower_checks 0).
    """

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


def verify_equilibrium(
    outcome: EquilibriumOutcome,
    rows: GameRows,
    i: int = 0,
    rel_tol: float = 1e-6,
) -> VerificationRecord:
    """Check both equilibrium conditions, or water-filling's optimality.

    The market is row i of rows: its Gamma row, the economics and the
    coverage constants at that row's Lambda.

    Follower side: moving a posted retailer's fraction tau (prices
    fixed) to each of _FOLLOWER_FACTORS times tau, to its best response
    or to tau + 0.05 must not raise that retailer's profit; equal
    candidates are one check.  Leader side: scaling any posted price by
    each of _LEADER_FACTORS (followers re-best-responding) must not
    raise the leader's objective -- the provider's total profit under
    NUPS, the back-haul saving under UPS.  A scaled price counts as a
    check only when it stays in the leader's feasible set: every best
    response at most 1 and their sum at most 1 + 1e-9.  Raises
    VerificationFailure naming the first violation in the order the
    checks are listed here, and the retailers involved.

    Every checked objective is a sum of per-retailer terms, and a
    follower's best response depends only on its own price, so a
    perturbation changes one or two terms.  For u posted retailers the
    follower checks are one (u x 13) array pass and the leader checks
    one (u x 10) pass.

    The water-filling allocation posts no prices.  Its sum profit is
    concave, so its Frank-Wolfe gap (_verify_waterfill), one O(V) pass
    over the gradient, bounds the gain of every feasible allocation:
    mass moved between retailers and budget left unused alike.  A gap
    above rel_tol raises VerificationFailure naming the gap and the
    retailer of largest marginal sum profit.  No solver closed form is
    used.
    """
    econ = rows.econ
    constants = rows.constants.with_lambda_big(float(rows.constants.lambda_big[i, 0]))
    if outcome.scheme == "WATERFILL":
        return _verify_waterfill(outcome, rows.gammas[i], econ, constants, rel_tol)
    price = outcome.prices.prices
    u = price.size
    gamma = rows.gammas[i, :u]
    tau = outcome.fractions.fractions[:u]
    tau0 = best_response_fraction(price, gamma, econ, constants)

    # Follower side.  rows: posted retailers; columns: _FOLLOWER_FACTORS,
    # the best response, then tau + 0.05 (equal candidates are one check)
    candidates = np.column_stack((tau[:, None] * _FOLLOWER_FACTORS, tau0, tau + 0.05))
    surcharge = (gamma * econ.local_surcharge)[:, None]
    rent = (econ.sbs_intensity * price)[:, None]

    def vr_profits(t):
        # Gamma s^ld t / (Theta t + Lambda) - lambda s t, in this order:
        # factoring Pr out rounds differently, and relative to a profit
        # near 0 that moves follower_max_gain by about 1e-12
        return surcharge * t / (constants.theta * t + constants.lambda_big) - rent * t

    base = vr_profits(tau[:, None])
    follower_gains = (vr_profits(candidates) - base) / np.maximum(np.abs(base), 1e-9)
    violated = follower_gains > rel_tol
    if violated.any():
        row, col = np.unravel_index(np.argmax(violated), violated.shape)
        raise VerificationFailure(
            f"follower condition violated: retailer {row + 1} gains "
            f"{follower_gains[row, col]:.3e} (relative) by moving tau from "
            f"{tau[row]:.6g} to {candidates[row, col]:.6g}"
        )
    ordered = np.sort(candidates, axis=1)
    follower_checks = u + int(np.count_nonzero(ordered[:, 1:] != ordered[:, :-1]))

    # Leader side.  UPS sets its price to maximize the back-haul saving,
    # not the provider's total profit; check the objective each scheme claims.
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
    terms0 = objective_terms(tau0, price, gamma)
    trial_price = price[:, None] * np.array(_LEADER_FACTORS)
    tau1 = best_response_fraction(trial_price, gamma[:, None], econ, constants)
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
        follower_max_gain=float(follower_gains.max(initial=-math.inf)),
        leader_max_gain=float(gains[feasible].max(initial=-math.inf)),
        follower_checks=follower_checks,
        leader_checks=int(np.count_nonzero(feasible)),
    )


def _verify_waterfill(
    outcome: EquilibriumOutcome,
    gammas: np.ndarray,
    econ: EconomicConfig,
    constants: CoverageConstants,
    rel_tol: float,
) -> VerificationRecord:
    """The Frank-Wolfe gap of the sum profit must not exceed rel_tol.

    The sum profit F(tau) = sum_v w_v tau_v / (Theta tau_v + Lambda),
    w_v = Gamma_v (s^bh + s^ld), is concave and separable, with gradient
    g_v = w_v Lambda / (Theta tau_v + Lambda)^2 >= 0.  On the budget
    B = max(1, sum tau) that check_fraction_rows allows, the gap
    G = B max_j g_j - g . tau bounds F(s) - F(tau) for every s with
    0 <= s <= 1 and sum s <= B, so it bounds every mass transfer and
    every use of budget left idle.  It is formed as the sum of the
    non-negative terms (g_j - g_v) tau_v and g_j (B - sum tau).
    """
    tau = outcome.fractions.fractions
    lam_big = constants.lambda_big
    weight = gammas * (econ.backhaul_cost + econ.local_surcharge)
    # Lambda / (...)^2 first: it is at most 1 / Lambda, while w Lambda may overflow
    grad = weight * (lam_big / (constants.theta * tau + lam_big) ** 2)
    j = int(np.argmax(grad))
    total = tau.sum()
    gap = (grad[j] - grad) @ tau + grad[j] * (max(1.0, total) - total)
    gap /= max(abs(outcome.report.global_total), 1e-9)
    if not gap <= rel_tol:  # a NaN gap certifies nothing
        raise VerificationFailure(
            f"sum-profit condition violated: Frank-Wolfe gap {gap:.3e} (relative); "
            f"retailer {j + 1} has the largest marginal sum profit"
        )
    return VerificationRecord(
        follower_max_gain=math.nan,
        leader_max_gain=float(gap),
        follower_checks=0,
        leader_checks=tau.size,
    )
