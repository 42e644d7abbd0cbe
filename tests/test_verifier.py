"""The array equilibrium verifier against the per-check loop oracle.

NUPS and UPS outcomes get the oracle's verdict, check counts and gains.
A water-filling outcome is certified by its Frank-Wolfe gap, which
bounds every transfer gain of the oracle's grid: the oracle is then the
reference the gap must reject at least as often as.
"""

import math
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


def verdict(verify, outcome, instance, rel_tol):
    try:
        return verify(outcome, instance, rel_tol), None
    except VerificationFailure as exc:
        return None, str(exc)


def assert_same_verdict(outcome, instance, rel_tol=1e-6):
    record, failure = verdict(verify_equilibrium, outcome, instance, rel_tol)
    oracle, oracle_failure = verdict(loop_verify_equilibrium, outcome, instance, rel_tol)
    assert failure == oracle_failure
    if oracle is None:
        return None
    assert record.follower_checks == oracle.follower_checks
    assert record.leader_checks == oracle.leader_checks
    # json.dumps rejects numpy ints
    assert type(record.follower_checks) is type(record.leader_checks) is int
    # nan and -inf (no check of that kind) must match exactly
    np.testing.assert_allclose(
        [record.follower_max_gain, record.leader_max_gain],
        [oracle.follower_max_gain, oracle.leader_max_gain],
        rtol=0.0,
        atol=1e-12,
    )
    return record


def assert_gap_bounds_oracle(outcome, instance, rel_tol=1e-6):
    """The water-filling record against the oracle's transfer grid.

    Whatever the oracle rejects the gap rejects, and when both pass the
    gap is at least the oracle's largest transfer gain.  Returns the
    record (None when rejected) and the oracle's record.
    """
    record, failure = verdict(verify_equilibrium, outcome, instance, rel_tol)
    oracle, oracle_failure = verdict(loop_verify_equilibrium, outcome, instance, rel_tol)
    if failure is not None:
        assert failure.startswith("sum-profit condition violated: Frank-Wolfe gap ")
        return None, oracle
    assert oracle_failure is None
    assert (record.follower_checks, record.leader_checks) == (0, instance.n_vrs)
    assert type(record.leader_checks) is int
    assert math.isnan(record.follower_max_gain)
    assert 0.0 <= record.leader_max_gain <= rel_tol
    # the oracle's gains carry the rounding of two profit totals
    assert oracle.leader_max_gain <= record.leader_max_gain + 1e-12
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
    # NUPS/UPS: the oracle's verdict; water-filling: the gap passes every
    # solved outcome and bounds the oracle's transfer gains
    solve = SOLVERS[scheme]
    for instance in seeded_markets(300, seed=2016):
        if scheme == "waterfill":
            record, _ = assert_gap_bounds_oracle(solve(instance), instance)
            assert record is not None
        else:
            assert_same_verdict(solve(instance), instance)


def test_lone_retailer_above_one_skips_lower_prices():
    # one of three retailers participates; its unclamped best response
    # rounds above 1, so only price increases stay feasible
    cfg = ExperimentConfig(n_vrs=3, alpha=4.0, delta=1.0, storage=10)
    instance = make_instance(cfg)
    outcome = nups_solve(instance)
    assert outcome.n_participants == 1
    tau0 = best_response_fraction(
        outcome.prices.prices[0], instance.gammas()[0], instance.econ, instance.constants
    )
    assert tau0 > 1.0
    record = assert_same_verdict(outcome, instance)
    assert record.leader_checks == 5  # the five factors above 1


def test_retailer_above_one_makes_the_other_rows_infeasible():
    # posted best responses 1 + 1e-11 and 1e-11: perturbing retailer 2
    # leaves retailer 1 above 1, so none of retailer 2's rows is a check
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
    record = assert_same_verdict(outcome, instance, math.inf)
    assert record.leader_checks == 5  # retailer 1's factors above 1


def test_follower_violation_names_the_first_candidate_in_declared_order():
    # retailer 3 at 0.3 of its best response: every candidate from 1.01 tau
    # up to the best response gains, and 1.01 tau is the first of them
    instance = make_instance(ExperimentConfig())
    outcome = nups_solve(instance)
    tau = list(outcome.fractions.fractions)
    tau[2] *= 0.3
    perturbed = with_fractions(outcome, instance, tau)
    with pytest.raises(VerificationFailure, match=r"retailer 3 .* to 0\.0297723$"):
        verify_equilibrium(perturbed, instance)
    assert_same_verdict(perturbed, instance)


def test_follower_checks_count_tied_candidates_once():
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
    counts = [
        assert_same_verdict(tied, instance, math.inf).follower_checks
        for tied in (idle, priced_out)
    ]
    assert counts == [14 * 13 + 3, 14 * 13 + 12]


def test_waterfill_partial_moves():
    # a fraction below every step moves all of itself in the oracle, not
    # the step; the gap bounds those moves too, from one gradient entry
    # per retailer
    instance = make_instance(ExperimentConfig(n_vrs=6, gamma=0.5625, storage=100))
    outcome = waterfill_solve(instance)
    tau = np.array(outcome.fractions.fractions)
    assert ((tau > 0) & (tau < 1e-4)).any()
    record, oracle = assert_gap_bounds_oracle(outcome, instance)
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
    record, oracle = assert_gap_bounds_oracle(lone, instance, math.inf)
    assert oracle.leader_checks == 3 and oracle.leader_max_gain < 0.0
    con = instance.constants
    weight = instance.gammas()[0] * (instance.econ.backhaul_cost + instance.econ.local_surcharge)
    marginal = weight * con.lambda_big / (con.theta * 1e-3 + con.lambda_big) ** 2
    expected = marginal * (1.0 - 1e-3) / lone.report.global_total
    assert record.leader_max_gain == pytest.approx(expected, rel=1e-12)
    # at the default tolerance the oracle passes and the gap rejects
    assert loop_verify_equilibrium(lone, instance).leader_checks == 3
    with pytest.raises(VerificationFailure, match="retailer 1 has the largest"):
        verify_equilibrium(lone, instance)


def test_waterfill_transfer_caps_destination_at_one():
    # the budget check allows a sum of 1 + 1e-9, so the gap is taken on
    # the budget B = sum tau = 1 + 5e-10.  The oracle caps a transfer
    # into retailer 1 at 1 and misses the feasible point (1, 5e-10), whose
    # gain a gap on the budget 1 would not bound.
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=2.0, delta=10.0))
    edge = with_fractions(waterfill_solve(instance), instance, (1.0 - 5e-10, 1e-9))
    record, oracle = assert_gap_bounds_oracle(edge, instance, math.inf)
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
            verify_equilibrium(outcome, market)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_waterfill_verifies_a_large_market(gamma):
    # the gap is O(V): 10^5 retailers cost one array pass
    instance = make_instance(ExperimentConfig(n_vrs=100_000, gamma=gamma))
    record = verify_equilibrium(waterfill_solve(instance), instance)
    assert record.leader_checks == 100_000
    assert 0.0 <= record.leader_max_gain <= 1e-6


def test_corrupted_waterfill_fails_sum_profit_check():
    instance = make_instance(ExperimentConfig())
    corrupted = shifted(waterfill_solve(instance), instance, 0, -1, 0.05)
    with pytest.raises(VerificationFailure, match="sum-profit"):
        verify_equilibrium(corrupted, instance)
    assert assert_gap_bounds_oracle(corrupted, instance)[0] is None


def test_corrupted_outcomes_match_loop_oracle():
    # with no tolerance the record carries the largest gain of every kind
    # of perturbation, positive ones included; with the default tolerance
    # both verifiers name the same first NUPS/UPS violation, and the gap
    # rejects every water-filling outcome the oracle rejects
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
            scaled = repriced(outcome, instance, retailer, rng.uniform(0.8, 1.25))
            if scaled is not None:
                corrupted.append((scaled, instance))
    for outcome, instance in corrupted:
        for rel_tol in (math.inf, 1e-6):
            if outcome.scheme == "WATERFILL":
                assert_gap_bounds_oracle(outcome, instance, rel_tol)
            else:
                assert_same_verdict(outcome, instance, rel_tol)


def test_small_moves_are_rejected_whenever_the_oracle_rejects():
    # moves of 1e-6 ... 5e-2 out of a holder: the gain a transfer back can
    # recover is second order in the move, the gap first order, so the gap
    # rejects a superset and from smaller moves on
    rng = np.random.default_rng(1603)
    rejected = {"oracle": 0, "gap": 0}
    for instance in seeded_markets(20, seed=6064):
        if instance.n_vrs == 1:
            continue
        outcome = waterfill_solve(instance)
        source = int(rng.choice(np.flatnonzero(outcome.fractions.fractions > 0)))
        dest = int(rng.choice(np.delete(np.arange(instance.n_vrs), source)))
        for move in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
            amount = min(move, outcome.fractions.fractions[source])
            moved = shifted(outcome, instance, source, dest, amount)
            record, oracle = assert_gap_bounds_oracle(moved, instance)
            rejected["oracle"] += oracle is None
            rejected["gap"] += record is None
    assert 0 < rejected["oracle"] < rejected["gap"]
