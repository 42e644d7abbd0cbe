"""The equilibrium certificates against the perturbation-grid loop oracle.

verify_equilibrium certifies every scheme with exact bounds: each
follower's own maximizer and the leader's Frank-Wolfe gap.  The oracle
tries a grid of follower fractions and leader prices (NUPS/UPS) or of
transfers (water-filling), so it finds only the deviations it tries.
Whatever it rejects the certificates must reject, and when both pass
each certified bound must be at least the oracle's largest gain.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cachemarket.economics import FractionVector, PriceVector, profit_report
from cachemarket.equilibrium import (
    VerificationFailure,
    best_response_fraction,
    nups_solve,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from cachemarket.harness import ExperimentConfig, make_instance
from verifier_oracle import loop_verify_equilibrium

SOLVERS = {"nups": nups_solve, "ups": ups_solve, "waterfill": waterfill_solve}
# how each scheme's certificate fails
FAILURES = {
    "NUPS": ("follower condition violated: ", "leader condition violated: Frank-Wolfe gap "),
    "UPS": ("follower condition violated: ", "leader condition violated: Frank-Wolfe gap "),
    "WATERFILL": ("sum-profit condition violated: Frank-Wolfe gap ",),
}


def seeded_markets(count, seed):
    """Markets over the physical domain."""
    rng = np.random.default_rng(seed)
    markets = []
    while len(markets) < count:
        cfg = ExperimentConfig(
            alpha=float(rng.uniform(2.2, 6.0)),
            delta=float(10 ** rng.uniform(-3.0, 2.0)),
            n_vrs=int(rng.integers(1, 41)),
            storage=int(rng.integers(10, 501)),
            gamma=float(rng.uniform(0.0, 2.0)),
            beta=float(rng.uniform(0.3, 1.5)),
        )
        markets.append(make_instance(cfg))
    return markets


def verdict(verify, outcome, market, rel_tol):
    try:
        return verify(outcome, market, rel_tol=rel_tol), None
    except VerificationFailure as exc:
        return None, str(exc)


def assert_certificate_bounds_oracle(outcome, instance, rel_tol=1e-6):
    """The certificate's record against the oracle's grids.

    Whatever the oracle rejects the certificate rejects, and when both
    pass each certified bound is at least the oracle's largest gain of
    that kind.  Returns the record (None when rejected) and the oracle's
    record (None when rejected).
    """
    record, failure = verdict(verify_equilibrium, outcome, instance.rows, rel_tol)
    oracle, oracle_failure = verdict(loop_verify_equilibrium, outcome, instance, rel_tol)
    if failure is not None:
        assert failure.startswith(FAILURES[outcome.scheme])
        return None, oracle
    assert oracle_failure is None
    posted = 0 if outcome.scheme == "WATERFILL" else outcome.prices.n_posted()
    assert (record.follower_checks, record.leader_checks) == (posted, instance.n_vrs)
    # json.dumps rejects numpy ints
    assert type(record.follower_checks) is type(record.leader_checks) is int
    assert 0.0 <= record.leader_max_gain <= rel_tol
    # the oracle's gains carry the rounding of two profit totals
    assert oracle.leader_max_gain <= record.leader_max_gain + 1e-12
    # the oracle's follower candidates include fractions above 1, which
    # no retailer can take, so only the verdicts bound its follower gains
    if outcome.scheme == "WATERFILL":
        assert math.isnan(record.follower_max_gain)
    else:
        assert record.follower_max_gain <= rel_tol
    return record, oracle


def with_fractions(outcome, instance, tau):
    """The outcome at other fractions, prices unchanged."""
    fractions = FractionVector(tuple(tau))
    report = profit_report(
        fractions, outcome.prices, instance.pops, instance.econ, instance.constants
    )
    return replace(outcome, fractions=fractions, report=report)


def shifted(outcome, instance, source, dest, amount):
    """The outcome with amount of the budget moved from source to dest."""
    tau = list(outcome.fractions.fractions)
    tau[source] -= amount
    tau[dest] += amount
    return with_fractions(outcome, instance, tau)


def repriced(outcome, instance, retailer, factor):
    """The outcome with one price scaled and every follower re-best-responding.

    None when the best responses leave the SBS budget.
    """
    prices = outcome.prices.prices.tolist()
    prices[retailer] *= factor
    tau = [
        best_response_fraction(p, g, instance.econ, instance.constants)
        for p, g in zip(prices, instance.gammas())
    ]
    tau += [0.0] * (instance.n_vrs - len(prices))  # the priced-out retailers
    if sum(tau) > 1.0:
        return None
    fractions = FractionVector(tuple(tau))
    prices = PriceVector(tuple(prices), instance.n_vrs)
    report = profit_report(
        fractions, prices, instance.pops, instance.econ, instance.constants
    )
    return replace(outcome, prices=prices, fractions=fractions, report=report)


@pytest.mark.parametrize("scheme", sorted(SOLVERS))
def test_matches_loop_oracle_on_seeded_markets(scheme):
    # every solved outcome passes, with bounds above the oracle's gains
    solve = SOLVERS[scheme]
    for instance in seeded_markets(300, seed=2016):
        record, _ = assert_certificate_bounds_oracle(solve(instance), instance)
        assert record is not None


def test_lone_retailer_above_one_skips_lower_prices():
    # one of three retailers participates; its unclamped best response
    # rounds above 1.  A lower price asks for tau > 1: the oracle skips
    # those price factors, and the certificate takes the follower's
    # maximizer on [0, 1], its fraction 1
    cfg = ExperimentConfig(n_vrs=3, alpha=4.0, delta=1.0, storage=10)
    instance = make_instance(cfg)
    outcome = nups_solve(instance)
    assert outcome.n_participants == 1
    tau0 = best_response_fraction(
        outcome.prices.prices[0], instance.gammas()[0], instance.econ, instance.constants
    )
    assert tau0 > 1.0
    record, oracle = assert_certificate_bounds_oracle(outcome, instance)
    assert oracle.leader_checks == 5  # the oracle's five factors above 1
    assert (record.follower_checks, record.leader_checks) == (1, 3)
    assert record.follower_max_gain == 0.0


def test_retailer_above_one_makes_the_other_rows_infeasible():
    # posted best responses 1 + 1e-11 and 1e-11: perturbing retailer 2
    # leaves retailer 1 above 1, so none of the oracle's rows for
    # retailer 2 is a check.  The certificate clamps retailer 1's
    # maximizer at 1, and its gap still sees retailer 2's marginal.
    instance = make_instance(ExperimentConfig(n_vrs=2))
    con, econ = instance.constants, instance.econ
    gammas = instance.gammas()
    # invert tau = sqrt(Gamma * scale / s) - shift for the target fractions
    shift = con.lambda_big / con.theta
    scale = con.lambda_big * econ.local_surcharge / (con.theta**2 * econ.sbs_intensity)
    prices = tuple(
        float(g * scale / (t + shift) ** 2) for g, t in zip(gammas, (1 + 1e-11, 1e-11))
    )
    tau0 = [best_response_fraction(p, g, econ, con) for p, g in zip(prices, gammas)]
    assert tau0[0] > 1.0 and 0.0 < tau0[1] and sum(tau0) < 1.0 + 1e-9
    outcome = with_fractions(
        replace(nups_solve(instance), prices=PriceVector(prices), n_participants=2),
        instance,
        (1.0, tau0[1]),
    )
    record, oracle = assert_certificate_bounds_oracle(outcome, instance, math.inf)
    assert oracle.leader_checks == 5  # retailer 1's factors above 1
    assert (record.follower_checks, record.leader_checks) == (2, 2)
    assert record.follower_max_gain == 0.0


def test_underpriced_retailer_at_one_fails_the_leader_check():
    # the lone participant's price at 0.8 of the solved one: its follower
    # still takes the whole budget, so the fractions and the gradient are
    # those of the solved outcome, but the provider forgoes a fifth of its
    # rent.  The bound adds the rent below the price that buys each fraction.
    instance = make_instance(ExperimentConfig(n_vrs=3, alpha=4.0, delta=1.0, storage=10))
    outcome = nups_solve(instance)
    prices = PriceVector(outcome.prices.prices * 0.8, instance.n_vrs)
    under = with_fractions(replace(outcome, prices=prices), instance, outcome.fractions.fractions)
    assert under.fractions.fractions.tolist() == [1.0, 0.0, 0.0]
    record = verify_equilibrium(under, instance.rows, rel_tol=math.inf)
    forgone = 0.25 * under.report.nsp_leasing / under.report.nsp_total
    assert record.leader_max_gain == pytest.approx(forgone, rel=1e-9)
    with pytest.raises(VerificationFailure, match="leader condition violated"):
        verify_equilibrium(under, instance.rows)
    assert assert_certificate_bounds_oracle(under, instance) == (None, None)


def test_gap_covers_priced_out_retailers():
    # two equal retailers, only the first priced, at the price that buys
    # the whole budget: the oracle's grid scales that one price and
    # passes, but moving budget to the priced-out retailer 2, whose
    # marginal at 0 is the larger, gains first order
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=0.0))
    con, econ = instance.constants, instance.econ
    gamma = instance.gammas()[0]
    price = gamma * econ.local_surcharge * con.lambda_big / (
        econ.sbs_intensity * (con.theta + con.lambda_big) ** 2
    )
    tau0 = best_response_fraction(price, gamma, econ, con)
    assert tau0 == pytest.approx(1.0, abs=1e-12)
    lone = with_fractions(
        replace(nups_solve(instance), prices=PriceVector((price,), 2), n_participants=1),
        instance,
        (min(tau0, 1.0), 0.0),
    )
    assert loop_verify_equilibrium(lone, instance).leader_checks > 0
    with pytest.raises(VerificationFailure, match="retailer 2 has the largest"):
        verify_equilibrium(lone, instance.rows)


def test_follower_violation_names_the_first_candidate_in_declared_order():
    # retailer 3 at 0.3 of its best response: every oracle candidate from
    # 1.01 tau up to the best response gains, and 1.01 tau is the first of
    # them in its declared order.  The certificate names the retailer's
    # maximizer, its best response.
    instance = make_instance(ExperimentConfig())
    outcome = nups_solve(instance)
    tau = list(outcome.fractions.fractions)
    tau[2] *= 0.3
    perturbed = with_fractions(outcome, instance, tau)
    with pytest.raises(VerificationFailure, match=r"retailer 3 .* to 0\.0297723$"):
        loop_verify_equilibrium(perturbed, instance)
    best = re.escape(f"{outcome.fractions.fractions[2]:.6g}")
    with pytest.raises(VerificationFailure, match=rf"retailer 3 .* to {best}$"):
        verify_equilibrium(perturbed, instance.rows)
    assert assert_certificate_bounds_oracle(perturbed, instance)[0] is None


def test_follower_gain_is_relative_to_the_retailers_profit():
    # money scaled down to 1e-4 leaves every fraction as it was and every
    # profit well below 1; retailer 3 at 0.3 of its best response
    instance = make_instance(ExperimentConfig(s_bh=1e-4))
    outcome = nups_solve(instance)
    tau = outcome.fractions.fractions.copy()
    tau[2] *= 0.3
    perturbed = with_fractions(outcome, instance, tau)
    profit, best = perturbed.report.vr_profits[2], outcome.report.vr_profits[2]
    assert 0.0 < profit < best < 1e-2
    record = verify_equilibrium(perturbed, instance.rows, rel_tol=math.inf)
    assert record.follower_max_gain == pytest.approx((best - profit) / profit, rel=1e-9)


def test_follower_checks_count_tied_candidates_once():
    # the oracle counts equal candidates once; the certificate checks one
    # maximizer per posted retailer
    instance = make_instance(ExperimentConfig())
    outcome = nups_solve(instance)
    assert outcome.n_participants == 15
    # retailer 3 at tau = 0: its 11 factor candidates are all 0
    tau = list(outcome.fractions.fractions)
    tau[2] = 0.0
    idle = with_fractions(outcome, instance, tau)
    # retailer 5 priced so high that its best response is 0, as is 0.0 tau
    prices = outcome.prices.prices.copy()
    prices[4] *= 1e3
    econ, con = instance.econ, instance.constants
    assert best_response_fraction(prices[4], instance.gammas()[4], econ, con) == 0.0
    priced_out = with_fractions(
        replace(outcome, prices=PriceVector(prices, instance.n_vrs)),
        instance,
        outcome.fractions.fractions,
    )
    records = [
        assert_certificate_bounds_oracle(tied, instance, math.inf)
        for tied in (idle, priced_out)
    ]
    assert [oracle.follower_checks for _, oracle in records] == [14 * 13 + 3, 14 * 13 + 12]
    assert [record.follower_checks for record, _ in records] == [15, 15]


def test_nups_gap_requires_a_concave_provider_profit():
    # with s_ld = 10 s_bh and Theta about 6 Lambda the provider profit,
    # as a function of the fractions, is convex near tau = 1, so its
    # Frank-Wolfe gap would certify nothing
    skewed = make_instance(ExperimentConfig(s_ld=10.0))
    con, econ = skewed.constants, skewed.econ
    assert (2 * econ.local_surcharge + econ.backhaul_cost) * con.lambda_big < con.theta * (
        econ.local_surcharge - econ.backhaul_cost
    )
    outcome = nups_solve(make_instance(ExperimentConfig()))
    with pytest.raises(VerificationFailure, match="provider profit is not concave"):
        verify_equilibrium(outcome, skewed.rows, rel_tol=math.inf)


def test_gap_sees_a_cut_when_every_marginal_is_negative():
    # s_ld = 100 s_bh and Theta = 1.2 Lambda: the provider profit is
    # concave but falls at tau = 1, so a lone retailer priced to take the
    # whole budget should be priced higher, to take less of it
    instance = make_instance(ExperimentConfig(n_vrs=1, s_bh=0.01, s_ld=1.0, storage=112))
    con, econ = instance.constants, instance.econ
    gamma, theta, lam = instance.gammas()[0], con.theta, con.lambda_big
    price = gamma * econ.local_surcharge * lam / (econ.sbs_intensity * (theta + lam) ** 2)
    tau0 = best_response_fraction(price, gamma, econ, con)
    lone = with_fractions(
        replace(nups_solve(make_instance(ExperimentConfig(n_vrs=1))), prices=PriceVector((price,))),
        instance,
        (min(tau0, 1.0),),
    )
    t = np.linspace(0.0, 1.0, 10_001)
    x = theta * t + lam
    profit = gamma * (econ.local_surcharge * lam * t / x**2 + econ.backhaul_cost * t / x)
    gain = (profit.max() - profit[-1]) / lone.report.nsp_total
    record = verify_equilibrium(lone, instance.rows, rel_tol=math.inf)
    assert 1e-6 < gain <= record.leader_max_gain
    with pytest.raises(VerificationFailure, match="leader condition violated"):
        verify_equilibrium(lone, instance.rows)


def test_concavity_condition_matches_the_second_derivative():
    # h(t) = s_ld Lambda t / x^2 + s_bh t / x, x = Theta t + Lambda, is the
    # provider's profit per unit Gamma when the follower takes t; the
    # condition holds exactly when no second difference on [0, 1] is
    # positive.  Both outcomes occur on this grid.
    t = np.linspace(0.0, 1.0, 2001)
    seen = set()
    for storage in (20, 100, 500):
        con = make_instance(ExperimentConfig(storage=storage)).constants
        theta, lam, s_bh = con.theta, con.lambda_big, 1.0
        for s_ld in (0.2, 1.0, 3.0, 10.0, 40.0):
            x = theta * t + lam
            h = s_ld * lam * t / x**2 + s_bh * t / x
            second = h[2:] - 2 * h[1:-1] + h[:-2]
            concave = (2 * s_ld + s_bh) * lam >= theta * (s_ld - s_bh)
            assert concave == bool((second <= 1e-15 * h.max()).all()), (storage, s_ld)
            seen.add(concave)
    assert seen == {True, False}


@pytest.mark.parametrize("scheme", sorted(SOLVERS))
def test_nan_certifies_nothing(scheme):
    # a NaN demand for retailer 2 makes its gain, or the gap, NaN
    instance = make_instance(ExperimentConfig())
    gammas = instance.gammas().copy()
    gammas[1] = math.nan
    rows = replace(instance.rows, gammas=gammas[None, :])
    condition = "sum-profit" if scheme == "waterfill" else "follower"
    with pytest.raises(VerificationFailure, match=f"{condition} condition violated"):
        verify_equilibrium(SOLVERS[scheme](instance), rows)


def test_waterfill_partial_moves():
    # a fraction below every step moves all of itself in the oracle, not
    # the step; the gap bounds those moves too, from one gradient entry
    # per retailer
    instance = make_instance(ExperimentConfig(n_vrs=6, gamma=0.5625, storage=100))
    outcome = waterfill_solve(instance)
    tau = np.array(outcome.fractions.fractions)
    assert ((tau > 0) & (tau < 1e-4)).any()
    record, oracle = assert_certificate_bounds_oracle(outcome, instance)
    assert record.leader_checks == tau.size
    n_active = np.count_nonzero(tau > 0)
    assert oracle.leader_checks == 3 * n_active * (tau.size - 1)


def test_waterfill_lone_source_has_no_transfer_to_itself():
    # the only source holds 1e-3: each of the oracle's 3 transfers (none
    # to itself) loses first-order profit, so the oracle passes.  The gap
    # also sees the 0.999 of the budget left idle, which retailer 1 would
    # turn into profit at its marginal rate g_1.
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=1.5))
    lone = with_fractions(waterfill_solve(instance), instance, (1e-3, 0.0))
    record, oracle = assert_certificate_bounds_oracle(lone, instance, math.inf)
    assert oracle.leader_checks == 3 and oracle.leader_max_gain < 0.0
    con = instance.constants
    weight = instance.gammas()[0] * (instance.econ.backhaul_cost + instance.econ.local_surcharge)
    marginal = weight * con.lambda_big / (con.theta * 1e-3 + con.lambda_big) ** 2
    expected = marginal * (1.0 - 1e-3) / lone.report.global_total
    assert record.leader_max_gain == pytest.approx(expected, rel=1e-12)
    # at the default tolerance the oracle passes and the gap rejects
    assert loop_verify_equilibrium(lone, instance).leader_checks == 3
    with pytest.raises(VerificationFailure, match="retailer 1 has the largest"):
        verify_equilibrium(lone, instance.rows)


def test_waterfill_transfer_caps_destination_at_one():
    # the budget check allows a sum of 1 + 1e-9, so the gap is taken on
    # the budget B = sum tau = 1 + 5e-10.  The oracle caps a transfer
    # into retailer 1 at 1 and misses the feasible point (1, 5e-10), whose
    # gain a gap on the budget 1 would not bound.
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=2.0, delta=10.0))
    edge = with_fractions(waterfill_solve(instance), instance, (1.0 - 5e-10, 1e-9))
    record, oracle = assert_certificate_bounds_oracle(edge, instance, math.inf)
    assert oracle.leader_checks == 6
    filled = with_fractions(edge, instance, (1.0, 5e-10))
    gain = (filled.report.global_total - edge.report.global_total) / edge.report.global_total
    assert oracle.leader_max_gain < gain <= record.leader_max_gain


def test_waterfill_gap_rejects_unused_budget():
    # no transfer adds to the fractions' total, so the oracle passes
    # outcomes that leave budget unused; the gap rejects them
    instance = make_instance(ExperimentConfig())
    idle = with_fractions(waterfill_solve(instance), instance, np.zeros(instance.n_vrs))
    assert idle.report.global_total == 0.0
    lone = make_instance(ExperimentConfig(n_vrs=1))
    half = with_fractions(waterfill_solve(lone), lone, (0.5,))
    assert waterfill_solve(lone).report.global_total > half.report.global_total
    for outcome, market in ((idle, instance), (half, lone)):
        assert loop_verify_equilibrium(outcome, market).leader_checks == 0
        with pytest.raises(VerificationFailure, match="sum-profit condition violated"):
            verify_equilibrium(outcome, market.rows)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("scheme", sorted(SOLVERS))
def test_verifies_a_large_market(scheme, gamma):
    # every certificate is O(V): 10^5 retailers cost a few array passes
    instance = make_instance(ExperimentConfig(n_vrs=100_000, gamma=gamma))
    outcome = SOLVERS[scheme](instance)
    record = verify_equilibrium(outcome, instance.rows)
    posted = 0 if scheme == "waterfill" else outcome.n_participants
    assert (record.follower_checks, record.leader_checks) == (posted, 100_000)
    assert 0.0 <= record.leader_max_gain <= 1e-6
    if scheme != "waterfill":
        assert record.follower_max_gain <= 1e-6


def test_corrupted_waterfill_fails_sum_profit_check():
    instance = make_instance(ExperimentConfig())
    corrupted = shifted(waterfill_solve(instance), instance, 0, -1, 0.05)
    with pytest.raises(VerificationFailure, match="sum-profit"):
        verify_equilibrium(corrupted, instance.rows)
    assert assert_certificate_bounds_oracle(corrupted, instance)[0] is None


def test_corrupted_outcomes_match_loop_oracle():
    # one price scaled by 0.8-1.25 or by 1 +- 1e-3 (followers
    # re-best-responding), a follower's fraction scaled down, or budget
    # moved between water-filling fractions.  With no tolerance each leader
    # bound is at least the oracle's largest gain, positive ones included;
    # at the default one the certificates reject whatever the oracle
    # rejects, and more.
    rng = np.random.default_rng(1602)
    corrupted = []
    for instance in seeded_markets(40, seed=6063):
        outcome = waterfill_solve(instance)
        source = int(rng.choice(np.flatnonzero(outcome.fractions.fractions > 0)))
        amount = outcome.fractions.fractions[source] * rng.uniform(0.0, 1.0)
        dest = int(rng.integers(instance.n_vrs))
        if dest != source:
            corrupted.append((shifted(outcome, instance, source, dest, amount), instance))
        for solve in (nups_solve, ups_solve):
            outcome = solve(instance)
            retailer = int(rng.integers(outcome.n_participants))
            for factor in (rng.uniform(0.8, 1.25), 1.0 + rng.choice((-1e-3, 1e-3))):
                scaled = repriced(outcome, instance, retailer, factor)
                if scaled is not None:
                    corrupted.append((scaled, instance))
            tau = outcome.fractions.fractions.copy()
            tau[retailer] *= rng.uniform(0.0, 1.0)
            corrupted.append((with_fractions(outcome, instance, tau), instance))
    rejected = {"oracle": 0, "certificate": 0}
    for outcome, instance in corrupted:
        for rel_tol in (math.inf, 1e-6):
            record, oracle = assert_certificate_bounds_oracle(outcome, instance, rel_tol)
        rejected["oracle"] += oracle is None
        rejected["certificate"] += record is None
    assert 0 < rejected["oracle"] < rejected["certificate"]


def test_small_moves_are_rejected_whenever_the_oracle_rejects():
    # moves of 1e-6 ... 5e-2: of budget out of a water-filling holder, or
    # of one NUPS/UPS price either way.  The gain the oracle's grid can
    # recover is second order in the move, the gap first order, so the gap
    # rejects a superset and from smaller moves on.
    rng = np.random.default_rng(1603)
    rejected = {scheme: {"oracle": 0, "gap": 0} for scheme in SOLVERS}
    for instance in seeded_markets(20, seed=6064):
        if instance.n_vrs == 1:
            continue
        outcome = waterfill_solve(instance)
        source = int(rng.choice(np.flatnonzero(outcome.fractions.fractions > 0)))
        dest = int(rng.choice(np.delete(np.arange(instance.n_vrs), source)))
        moves = []
        for move in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
            amount = min(move, outcome.fractions.fractions[source])
            moves.append(shifted(outcome, instance, source, dest, amount))
        for solve in (nups_solve, ups_solve):
            outcome = solve(instance)
            retailer = int(rng.integers(outcome.n_participants))
            for move in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
                for factor in (1.0 - move, 1.0 + move):
                    scaled = repriced(outcome, instance, retailer, factor)
                    if scaled is not None:
                        moves.append(scaled)
        for moved in moves:
            record, oracle = assert_certificate_bounds_oracle(moved, instance)
            rejected[moved.scheme.lower()]["oracle"] += oracle is None
            rejected[moved.scheme.lower()]["gap"] += record is None
    for counts in rejected.values():
        assert 0 < counts["oracle"] < counts["gap"], rejected
