"""The array equilibrium verifier against the per-check loop oracle."""

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
    """Markets over the physical domain; delta skips (0.99, 1), where 2F1 is slow."""
    rng = np.random.default_rng(seed)
    markets = []
    while len(markets) < count:
        delta = float(10 ** rng.uniform(-3.0, 2.0))
        if 0.99 < delta < 1.0:
            continue
        cfg = ExperimentConfig(
            alpha=float(rng.uniform(2.2, 6.0)),
            delta=delta,
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
    # nan and -inf (no check of that kind) must match exactly
    np.testing.assert_allclose(
        [record.follower_max_gain, record.leader_max_gain],
        [oracle.follower_max_gain, oracle.leader_max_gain],
        rtol=0.0,
        atol=1e-12,
    )
    return record


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
    solve = SOLVERS[scheme]
    for instance in seeded_markets(300, seed=2016):
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


def test_waterfill_partial_moves():
    # a fraction below every step moves all of itself, not the step; its
    # transfers (to others, never to itself) include the largest gain
    instance = make_instance(ExperimentConfig(n_vrs=6, gamma=0.5625, storage=100))
    outcome = waterfill_solve(instance)
    tau = np.array(outcome.fractions.fractions)
    assert ((tau > 0) & (tau < 1e-4)).any()
    record = assert_same_verdict(outcome, instance)
    n_active = np.count_nonzero(tau > 0)
    assert record.leader_checks == 3 * n_active * (tau.size - 1)


def test_waterfill_lone_source_has_no_transfer_to_itself():
    # the only source holds 1e-3: every transfer loses first-order profit,
    # while one to itself would lose only second-order profit
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=1.5))
    lone = with_fractions(waterfill_solve(instance), instance, (1e-3, 0.0))
    record = assert_same_verdict(lone, instance, math.inf)
    assert record.leader_checks == 3


def test_waterfill_transfer_caps_destination_at_one():
    # the budget check allows a sum of 1 + 1e-9, so a transfer can lift
    # its destination past 1; the destination is capped there.  Retailer 1
    # is 4 times as popular, so moving mass into it is the largest gain.
    instance = make_instance(ExperimentConfig(n_vrs=2, gamma=2.0, delta=10.0))
    edge = with_fractions(waterfill_solve(instance), instance, (1.0 - 5e-10, 1e-9))
    record = assert_same_verdict(edge, instance, math.inf)
    assert record.leader_checks == 6


def test_corrupted_waterfill_fails_sum_profit_check():
    instance = make_instance(ExperimentConfig())
    corrupted = shifted(waterfill_solve(instance), instance, 0, -1, 0.05)
    with pytest.raises(VerificationFailure, match="sum-profit"):
        verify_equilibrium(corrupted, instance)
    assert_same_verdict(corrupted, instance)


def test_corrupted_outcomes_match_loop_oracle():
    # with no tolerance the record carries the largest gain of every kind
    # of perturbation, positive ones included; with the default tolerance
    # both verifiers name the same first violation
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
            assert_same_verdict(outcome, instance, rel_tol)
