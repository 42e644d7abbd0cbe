"""Stackelberg solvers: best responses, thresholds, pricing, verification."""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize
from test_sweep_rows import _market
from waterfill_oracle import waterfill_fractions

from cachemarket import economics, equilibrium
from cachemarket.economics import (
    FractionVector,
    PriceVector,
    check_fraction_rows,
    profit_report,
)
from cachemarket.equilibrium import (
    GameInstance,
    VerificationFailure,
    best_response_fraction,
    nups_prices_for_u,
    nups_solve,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from cachemarket.harness import ExperimentConfig, make_instance


@pytest.fixture(scope="module")
def default_instance():
    """N=500, V=15, gamma=0.5, Q=500, delta=0.01, alpha=4, zeta=50, K=10, lambda=10."""
    return make_instance(ExperimentConfig())


def small_instance(n_vrs=3, gamma=0.5, storage=500, n_files=500, **overrides):
    cfg = ExperimentConfig(n_vrs=n_vrs, gamma=gamma, storage=storage,
                           n_files=n_files, **overrides)
    return make_instance(cfg)


class TestBestResponse:
    def test_opt_out_threshold(self):
        inst = small_instance(n_vrs=1)
        gamma_v = float(inst.gammas()[0])
        threshold = gamma_v * inst.econ.local_surcharge / (
            inst.constants.lambda_big * inst.econ.sbs_intensity
        )
        assert best_response_fraction(
            threshold, gamma_v, inst.econ, inst.constants
        ) == pytest.approx(0.0, abs=1e-12)
        assert best_response_fraction(
            threshold * 2.0, gamma_v, inst.econ, inst.constants
        ) == 0.0

    def test_matches_grid_search(self):
        # oracle: maximize the concave retailer profit on a fine grid
        inst = small_instance(n_vrs=1, n_files=500, storage=500)
        con = inst.constants
        econ = inst.econ
        gamma_v = 500.0
        s_v = 1.0
        tau_star = best_response_fraction(s_v, gamma_v, econ, con)

        def profit(tau):
            return gamma_v * econ.local_surcharge * tau / (
                con.theta * tau + con.lambda_big
            ) - econ.sbs_intensity * s_v * tau

        grid = np.linspace(0.0, 2.0 * tau_star, 400001)
        best = grid[np.argmax([profit(t) for t in grid])]
        assert tau_star == pytest.approx(best, abs=1e-4)
        assert tau_star > 1.0  # single greedy retailer at a low price

    @pytest.mark.parametrize(
        "prices, named",
        [
            (0.0, "0.0"),
            (-1.0, "-1.0"),
            (float("nan"), "nan"),
            (np.array([2.0, 0.0, -1.0]), "0.0"),  # the first bad entry
        ],
        ids=["zero", "negative", "nan", "array"],
    )
    def test_rejects_nonpositive_price(self, prices, named):
        inst = small_instance(n_vrs=1)
        message = re.escape(f"price must be positive, got {named}") + "$"
        with pytest.raises(ValueError, match=message):
            best_response_fraction(prices, 500.0, inst.econ, inst.constants)


class TestGameInstance:
    def test_rejects_storage_that_disagrees_with_lambda(self, default_instance):
        # Lambda = C N / Q was built for Q = 500; Q = 100 would set F = 5
        with pytest.raises(ValueError, match="disagree with the storage"):
            replace(default_instance, storage=100.0)


class TestParticipationThresholds:
    def test_first_thresholds_are_zero(self, default_instance):
        th = default_instance.thresholds
        assert th.u_values[0] == 0.0
        assert th.u_bar_values[0] == 0.0

    def test_uniform_preference_collapses(self):
        inst = small_instance(n_vrs=8, gamma=0.0)
        th = inst.thresholds
        np.testing.assert_allclose(th.u_values, 0.0, atol=1e-12)
        np.testing.assert_allclose(th.u_bar_values, 0.0, atol=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n_vrs = int(rng.integers(2, 51))
            gamma = float(rng.uniform(0.02, 1.0))
            inst = small_instance(n_vrs=n_vrs, gamma=gamma)
            th = inst.thresholds
            assert all(b > a for a, b in zip(th.u_values, th.u_values[1:]))

    def test_shared_price_needs_more_storage(self, default_instance):
        th = default_instance.thresholds
        assert all(
            ub >= u - 1e-12 for u, ub in zip(th.u_values, th.u_bar_values)
        )
        assert all(
            ub > u for u, ub in zip(th.u_values[1:], th.u_bar_values[1:])
        )


def reference_full_prices(instance):
    """Independent evaluation of the all-participants price closed form."""
    gammas = instance.gammas()
    lam_big = instance.constants.lambda_big
    theta = instance.constants.theta
    v = len(gammas)
    csum = sum(g ** (1 / 3) for g in gammas)
    return [
        lam_big
        * instance.econ.backhaul_cost
        * csum**2
        * g ** (1 / 3)
        / (instance.econ.sbs_intensity * (v * lam_big + theta) ** 2)
        for g in gammas
    ]


class TestNupsPrices:
    def test_full_participation_closed_form(self, default_instance):
        prices = nups_prices_for_u(15, default_instance)
        np.testing.assert_allclose(
            prices.prices, reference_full_prices(default_instance), rtol=1e-12
        )

    def test_single_vr_algebra(self):
        inst = small_instance(n_vrs=1)
        g = float(inst.gammas()[0])
        lam_big = inst.constants.lambda_big
        theta = inst.constants.theta
        expected = (
            lam_big * inst.econ.backhaul_cost * g
            / (inst.econ.sbs_intensity * (lam_big + theta) ** 2)
        )
        assert nups_prices_for_u(1, inst).prices[0] == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("u", [1, 5, 10, 15])
    def test_best_responses_fill_budget(self, default_instance, u):
        prices = nups_prices_for_u(u, default_instance)
        total = sum(
            best_response_fraction(
                p, g, default_instance.econ, default_instance.constants
            )
            for p, g in zip(prices.prices, default_instance.gammas())
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_excluded_suffix(self, default_instance):
        prices = nups_prices_for_u(6, default_instance)
        # retailers 1..6 get a price, the other 9 are priced out
        assert (prices.n_posted(), len(prices)) == (6, 15)
        assert (prices.prices > 0).all()


class TestNupsSolve:
    def test_single_vr(self):
        inst = small_instance(n_vrs=1)
        outcome = nups_solve(inst)
        assert outcome.n_participants == 1
        assert outcome.prices.prices == nups_prices_for_u(1, inst).prices

    def test_symmetric_preferences(self):
        inst = small_instance(n_vrs=5, gamma=0.0)
        outcome = nups_solve(inst)
        assert outcome.n_participants == 5
        assert max(outcome.prices.prices) == pytest.approx(
            min(outcome.prices.prices), rel=1e-12
        )
        np.testing.assert_allclose(outcome.fractions.fractions, 0.2, atol=1e-9)

    def test_default_instance_keeps_all(self, default_instance):
        outcome = nups_solve(default_instance)
        assert outcome.n_participants == 15
        # leader profit matches the closed form for the chosen count
        gammas = default_instance.gammas()
        lam_big = default_instance.constants.lambda_big
        theta = default_instance.constants.theta
        csum = np.cbrt(gammas).sum()
        closed = (
            gammas.sum() - lam_big**2 * csum**3 / (15 * lam_big + theta) ** 2
        ) / theta
        assert outcome.report.nsp_total == pytest.approx(closed, rel=1e-9)

    def test_price_ordering(self, default_instance):
        outcome = nups_solve(default_instance)
        posted = outcome.prices.prices.tolist()
        assert all(a >= b - 1e-12 for a, b in zip(posted, posted[1:]))

    def test_participants_form_popularity_prefix(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst = small_instance(
                n_vrs=int(rng.integers(2, 16)),
                gamma=float(rng.uniform(0.05, 1.0)),
                storage=int(rng.integers(10, 501)),
            )
            outcome = nups_solve(inst)
            u = outcome.n_participants
            assert all(f > 0 for f in outcome.fractions.fractions[:u])
            assert all(f == 0 for f in outcome.fractions.fractions[u:])
            assert sum(outcome.fractions.fractions) == pytest.approx(1.0, abs=1e-9)

    def test_oversized_storage_behaves_like_full(self, default_instance):
        full = nups_solve(default_instance)
        oversized = nups_solve(make_instance(ExperimentConfig(), storage=10_000))
        assert np.array_equal(oversized.prices.prices, full.prices.prices)

    def test_requires_matched_surcharge(self):
        inst = small_instance(n_vrs=2, s_ld=2.0)
        with pytest.raises(ValueError, match="surcharge"):
            nups_solve(inst)


class TestUpsSolve:
    def test_single_vr_coincides_with_nups(self):
        inst = small_instance(n_vrs=1)
        assert ups_solve(inst).prices.prices == pytest.approx(
            nups_solve(inst).prices.prices
        )

    def test_symmetric_preferences_coincide(self):
        inst = small_instance(n_vrs=5, gamma=0.0)
        ups = ups_solve(inst)
        nups = nups_solve(inst)
        np.testing.assert_allclose(ups.prices.prices, nups.prices.prices, rtol=1e-12)

    def test_shared_price(self, default_instance):
        outcome = ups_solve(default_instance)
        posted = outcome.prices.prices.tolist()
        assert len(set(posted)) == 1

    def test_fractions_equal_waterfilling(self, default_instance):
        ups = ups_solve(default_instance)
        wf = waterfill_solve(default_instance)
        np.testing.assert_allclose(
            ups.fractions.fractions, wf.fractions.fractions, atol=1e-9
        )


class TestWaterfill:
    def test_single_vr_takes_everything(self):
        inst = small_instance(n_vrs=1)
        assert waterfill_solve(inst).fractions.fractions == (1.0,)

    def test_symmetric_split(self):
        inst = small_instance(n_vrs=4, gamma=0.0)
        np.testing.assert_allclose(
            waterfill_solve(inst).fractions.fractions, 0.25, atol=1e-12
        )

    def test_against_constrained_optimizer(self):
        # oracle: SLSQP maximization of the sum profit over the simplex
        cfg = ExperimentConfig(n_vrs=3, gamma=0.5, n_files=500, storage=100)
        inst = make_instance(cfg)
        q = np.array([0.5, 0.3, 0.2])
        inst = replace(inst, pops=replace(inst.pops, q=q))
        con = inst.constants
        gammas = inst.gammas()

        def neg_sum_profit(tau):
            return -sum(
                g * t / (con.theta * t + con.lambda_big) for g, t in zip(gammas, tau)
            )

        result = optimize.minimize(
            neg_sum_profit,
            x0=np.full(3, 1 / 3),
            bounds=[(0.0, 1.0)] * 3,
            constraints=[{"type": "ineq", "fun": lambda t: 1.0 - t.sum()}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        wf = waterfill_solve(inst)
        np.testing.assert_allclose(
            wf.fractions.fractions, result.x, atol=1e-6
        )
        assert sum(wf.fractions.fractions) == pytest.approx(1.0, abs=1e-9)


# Q - Ubar_v: on the edge, within the bracket tolerance, and clear of it
EDGE_OFFSETS = (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_waterfill_count_is_the_ups_bracket_count(seed):
    # the seeds are fixed: a failure is a finding, not a reason to re-seed
    cfg = _market(np.random.default_rng([seed, 15]))
    u_bar = make_instance(cfg).thresholds.u_bar_values
    storages = [(float(cfg.storage), True)] + [
        (edge + d, abs(d) == 1e-9)
        for edge in u_bar[1:5].tolist()
        for d in EDGE_OFFSETS
        if 1.0 <= edge + d <= cfg.n_files
    ]
    for storage, clear in storages:
        instance = make_instance(cfg, storage=storage)
        outcome = waterfill_solve(instance)
        assert outcome.n_participants == ups_solve(instance).n_participants, storage
        if clear:
            v_bar, fractions = waterfill_fractions(instance)
            assert outcome.n_participants == v_bar, storage
            assert np.array_equal(outcome.fractions.fractions, fractions), storage


class TestSchemeComparisons:
    def test_dominance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = small_instance(
                n_vrs=int(rng.integers(2, 16)),
                gamma=float(rng.uniform(0.05, 1.0)),
                storage=int(rng.integers(10, 501)),
            )
            nups = nups_solve(inst)
            ups = ups_solve(inst)
            assert nups.report.nsp_total >= ups.report.nsp_total - 1e-9
            assert (
                ups.report.nsp_backhaul_saving
                >= nups.report.nsp_backhaul_saving - 1e-9
            )

    def test_leader_profit_rises_with_preference_skew(self):
        profits = []
        for gamma in np.arange(0.1, 1.05, 0.1):
            inst = small_instance(n_vrs=15, gamma=float(gamma))
            profits.append(nups_solve(inst).report.nsp_total)
        assert all(b >= a - 1e-9 for a, b in zip(profits, profits[1:]))

    def test_full_participation_bracket(self, default_instance):
        q_min = float(default_instance.thresholds.u_values[-1])
        above = make_instance(ExperimentConfig(), storage=q_min + 1e-6)
        outcome = nups_solve(above)
        assert outcome.n_participants == 15
        np.testing.assert_allclose(
            outcome.prices.prices, reference_full_prices(above), rtol=1e-12
        )
        below = nups_solve(make_instance(ExperimentConfig(), storage=q_min - 1e-6))
        assert below.n_participants == 14


class TestVerification:
    def test_solved_outcomes_pass(self, default_instance):
        for outcome in (
            nups_solve(default_instance),
            ups_solve(default_instance),
            waterfill_solve(default_instance),
        ):
            verify_equilibrium(outcome, default_instance)

    def test_corrupted_price_fails_leader_check(self, default_instance):
        outcome = nups_solve(default_instance)
        prices = list(outcome.prices.prices)
        prices[0] *= 1.1
        corrupted_prices = PriceVector(tuple(prices), len(outcome.prices))
        fractions = FractionVector(
            tuple(
                best_response_fraction(
                    p, g, default_instance.econ, default_instance.constants
                )
                for p, g in zip(corrupted_prices.prices, default_instance.gammas())
            )
        )
        report = profit_report(
            fractions,
            corrupted_prices,
            default_instance.pops,
            default_instance.econ,
            default_instance.constants,
        )
        corrupted = replace(
            outcome, prices=corrupted_prices, fractions=fractions, report=report
        )
        with pytest.raises(VerificationFailure, match="leader"):
            verify_equilibrium(corrupted, default_instance)

    def test_corrupted_fraction_fails_follower_check(self, default_instance):
        outcome = nups_solve(default_instance)
        fractions = list(outcome.fractions.fractions)
        fractions[0] += 0.05  # keep the budget feasible by shrinking another
        fractions[1] -= 0.05
        corrupted = replace(outcome, fractions=FractionVector(tuple(fractions)))
        with pytest.raises(VerificationFailure, match="follower"):
            verify_equilibrium(corrupted, default_instance)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("solve", [nups_solve, ups_solve])
def test_large_market_outcome(solve, gamma):
    # V = 10^5: with equal preferences every retailer participates, at
    # gamma = 1 about ten do.  The totals are left-to-right sums of up to
    # 10^5 terms, whose rounding error is bounded by about V * 2^-53 =
    # 1.1e-11 of the sum.
    instance = make_instance(ExperimentConfig(n_vrs=100_000, gamma=gamma))
    outcome = solve(instance)
    u = outcome.n_participants
    tau = outcome.fractions.fractions
    assert outcome.prices.n_posted() == u
    assert (tau[:u] > 0).all() and (tau[u:] == 0).all()
    assert tau.sum() <= 1.0 + 1e-9
    rep = outcome.report
    assert rep.global_total == pytest.approx(2.0 * rep.nsp_backhaul_saving, rel=1.2e-11)


@pytest.mark.parametrize("solve", [nups_solve, ups_solve])
def test_solved_fractions_are_checked_once(monkeypatch, default_instance, solve):
    # solve_rows checks the row; the FractionVector built from it does not again
    shapes = []

    def counting(fractions):
        shapes.append(fractions.shape)
        check_fraction_rows(fractions)

    monkeypatch.setattr(economics, "check_fraction_rows", counting)
    monkeypatch.setattr(equilibrium, "check_fraction_rows", counting)
    tau = solve(default_instance).fractions.fractions
    assert shapes == [(1, default_instance.n_vrs)]
    assert not tau.flags.writeable
    FractionVector(tau)  # built anywhere else, a vector is still checked
    assert shapes == [(1, default_instance.n_vrs)] * 2
