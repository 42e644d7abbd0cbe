"""Stackelberg solvers: best responses, thresholds, pricing, verification."""

import re
from dataclasses import replace

import numpy as np
import pytest
from price_oracle import nups_prices_for_u, row_constants, surrogates
from scipy import optimize
from test_sweep_rows import _market
from test_verifier import with_fractions, with_prices
from waterfill_oracle import waterfill_count

from cachemarket import cli, economics, equilibrium
from cachemarket.economics import check_fraction_rows
from cachemarket.equilibrium import (
    VerificationFailure,
    best_response_fraction,
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
        gamma_v = float(inst.gammas[0, 0])
        threshold = gamma_v * inst.econ.local_surcharge / (
            row_constants(inst).lambda_big * inst.econ.sbs_intensity
        )
        assert best_response_fraction(
            threshold, gamma_v, inst.econ, row_constants(inst)
        ) == pytest.approx(0.0, abs=1e-12)
        assert best_response_fraction(
            threshold * 2.0, gamma_v, inst.econ, row_constants(inst)
        ) == 0.0

    def test_matches_grid_search(self):
        # oracle: maximize the concave retailer profit on a fine grid
        inst = small_instance(n_vrs=1, n_files=500, storage=500)
        con = row_constants(inst)
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
            best_response_fraction(prices, 500.0, inst.econ, row_constants(inst))


def thresholds(instance):
    """The market's U_v and Ubar_v: the one row of its NUPS and UPS brackets."""
    return instance.brackets("NUPS")[0], instance.brackets("UPS")[0]


class TestParticipationThresholds:
    def test_first_thresholds_are_zero(self, default_instance):
        u_values, u_bar_values = thresholds(default_instance)
        assert u_values[0] == 0.0
        assert u_bar_values[0] == 0.0

    def test_uniform_preference_collapses(self):
        inst = small_instance(n_vrs=8, gamma=0.0)
        u_values, u_bar_values = thresholds(inst)
        np.testing.assert_allclose(u_values, 0.0, atol=1e-12)
        np.testing.assert_allclose(u_bar_values, 0.0, atol=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n_vrs = int(rng.integers(2, 51))
            gamma = float(rng.uniform(0.02, 1.0))
            inst = small_instance(n_vrs=n_vrs, gamma=gamma)
            u_values, _ = thresholds(inst)
            assert all(b > a for a, b in zip(u_values, u_values[1:]))

    def test_shared_price_needs_more_storage(self, default_instance):
        u_values, u_bar_values = thresholds(default_instance)
        assert all(
            ub >= u - 1e-12 for u, ub in zip(u_values, u_bar_values)
        )
        assert all(
            ub > u for u, ub in zip(u_values[1:], u_bar_values[1:])
        )


def reference_full_prices(instance):
    """Independent evaluation of the all-participants price closed form."""
    gammas = instance.gammas[0]
    lam_big = row_constants(instance).lambda_big
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
            prices, reference_full_prices(default_instance), rtol=1e-12
        )

    def test_single_vr_algebra(self):
        inst = small_instance(n_vrs=1)
        g = float(inst.gammas[0, 0])
        lam_big = row_constants(inst).lambda_big
        theta = inst.constants.theta
        expected = (
            lam_big * inst.econ.backhaul_cost * g
            / (inst.econ.sbs_intensity * (lam_big + theta) ** 2)
        )
        assert nups_prices_for_u(1, inst)[0] == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("u", [1, 5, 10, 15])
    def test_best_responses_fill_budget(self, default_instance, u):
        prices = nups_prices_for_u(u, default_instance)
        total = sum(
            best_response_fraction(
                p, g, default_instance.econ, row_constants(default_instance)
            )
            for p, g in zip(prices[:u], default_instance.gammas[0])
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_excluded_suffix(self, default_instance):
        prices = nups_prices_for_u(6, default_instance)
        # retailers 1..6 get a price, the other 9 are priced out
        assert (np.count_nonzero(prices), prices.size) == (6, 15)
        assert (prices[:6] > 0).all()


class TestNupsSolve:
    def test_single_vr(self):
        inst = small_instance(n_vrs=1)
        outcome = nups_solve(inst)
        assert outcome.n_participants[0] == 1
        assert outcome.prices[0] == nups_prices_for_u(1, inst)

    def test_symmetric_preferences(self):
        inst = small_instance(n_vrs=5, gamma=0.0)
        outcome = nups_solve(inst)
        assert outcome.n_participants[0] == 5
        assert max(outcome.prices[0]) == pytest.approx(
            min(outcome.prices[0]), rel=1e-12
        )
        np.testing.assert_allclose(outcome.fractions[0], 0.2, atol=1e-9)

    def test_default_instance_keeps_all(self, default_instance):
        outcome = nups_solve(default_instance)
        assert outcome.n_participants[0] == 15
        # leader profit matches the closed form for the chosen count
        gammas = default_instance.gammas[0]
        lam_big = row_constants(default_instance).lambda_big
        theta = default_instance.constants.theta
        csum = np.cbrt(gammas).sum()
        closed = (
            gammas.sum() - lam_big**2 * csum**3 / (15 * lam_big + theta) ** 2
        ) / theta
        assert outcome.report.nsp_total[0] == pytest.approx(closed, rel=1e-9)

    def test_price_ordering(self, default_instance):
        outcome = nups_solve(default_instance)
        posted = outcome.prices[0, : outcome.n_participants[0]].tolist()
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
            u = outcome.n_participants[0]
            tau = outcome.fractions[0]
            assert all(f > 0 for f in tau[:u])
            assert all(f == 0 for f in tau[u:])
            assert sum(tau) == pytest.approx(1.0, abs=1e-9)

    def test_oversized_storage_behaves_like_full(self, default_instance):
        full = nups_solve(default_instance)
        oversized = nups_solve(make_instance(ExperimentConfig(), storage=10_000))
        assert np.array_equal(oversized.prices, full.prices)

    def test_requires_matched_surcharge(self):
        inst = small_instance(n_vrs=2, s_ld=2.0)
        with pytest.raises(ValueError, match="surcharge"):
            nups_solve(inst)


class TestUpsSolve:
    def test_single_vr_coincides_with_nups(self):
        inst = small_instance(n_vrs=1)
        assert ups_solve(inst).prices[0] == pytest.approx(
            nups_solve(inst).prices[0]
        )

    def test_symmetric_preferences_coincide(self):
        inst = small_instance(n_vrs=5, gamma=0.0)
        ups = ups_solve(inst)
        nups = nups_solve(inst)
        np.testing.assert_allclose(ups.prices, nups.prices, rtol=1e-12)

    def test_shared_price(self, default_instance):
        outcome = ups_solve(default_instance)
        posted = outcome.prices[0, : outcome.n_participants[0]].tolist()
        assert len(set(posted)) == 1

    def test_fractions_equal_waterfilling(self, default_instance):
        ups = ups_solve(default_instance)
        wf = waterfill_solve(default_instance)
        np.testing.assert_allclose(
            ups.fractions, wf.fractions, atol=1e-9
        )


class TestWaterfill:
    def test_single_vr_takes_everything(self):
        inst = small_instance(n_vrs=1)
        assert waterfill_solve(inst).fractions[0].tolist() == [1.0]

    def test_symmetric_split(self):
        inst = small_instance(n_vrs=4, gamma=0.0)
        np.testing.assert_allclose(
            waterfill_solve(inst).fractions, 0.25, atol=1e-12
        )

    def test_against_constrained_optimizer(self):
        # oracle: SLSQP maximization of the sum profit over the simplex
        cfg = ExperimentConfig(n_vrs=3, gamma=0.5, n_files=500, storage=100)
        inst = make_instance(cfg)
        q = np.array([0.5, 0.3, 0.2])
        inst = replace(inst, q=q[None, :])
        con = row_constants(inst)
        gammas = inst.gammas[0]

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
            wf.fractions[0], result.x, atol=1e-6
        )
        assert sum(wf.fractions[0]) == pytest.approx(1.0, abs=1e-9)


# Q - Ubar_v: on the edge, within the bracket tolerance, and clear of it
EDGE_OFFSETS = (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_waterfill_count_is_the_ups_bracket_count(seed):
    # the seeds are fixed: a failure is a finding, not a reason to re-seed
    cfg = _market(np.random.default_rng([seed, 15]))
    _, u_bar = thresholds(make_instance(cfg))
    storages = [(float(cfg.storage), True)] + [
        (edge + d, abs(d) == 1e-9)
        for edge in u_bar[1:5].tolist()
        for d in EDGE_OFFSETS
        if 1.0 <= edge + d <= cfg.n_files
    ]
    for storage, clear in storages:
        instance = make_instance(cfg, storage=storage)
        outcome = waterfill_solve(instance)
        v_bar = outcome.n_participants[0]
        assert v_bar == ups_solve(instance).n_participants[0], storage
        # water-filling's allocation is the UPS one, bit for bit
        assert np.array_equal(outcome.fractions, ups_solve(instance).fractions), storage
        if clear:
            assert v_bar == waterfill_count(instance), storage


def _pricing_market(rng):
    return ExperimentConfig(
        alpha=float(rng.uniform(2.05, 8.0)),
        delta=float(10.0 ** rng.uniform(-4.0, 3.0)),
        n_vrs=int(rng.integers(1, 201)),
        gamma=float(rng.uniform(0.0, 3.0)),
        storage=int(rng.integers(1, 501)),
    )


@pytest.mark.parametrize("seed", range(6))
def test_participant_count_is_the_bracket_count(seed):
    # the seeds are fixed: a failure is a finding, not a reason to re-seed
    rng = np.random.default_rng([seed, 32])
    for _ in range(250):
        cfg = _pricing_market(rng)
        a, b = (10.0 ** rng.uniform(-3.0, 3.0, 2)).tolist()
        c = 10.0 ** rng.uniform(-2.0, 3.0)
        instance = make_instance(cfg)
        # s^bh (and so s^ld) by a, zeta K by b, lambda by c
        scaled = make_instance(
            replace(
                cfg,
                s_bh=a * cfg.s_bh,
                requests_per_mu=b * cfg.requests_per_mu,
                sbs_intensity=c * cfg.sbs_intensity,
            )
        )
        for scheme in ("NUPS", "UPS"):
            count = equilibrium._bracket_count(instance.brackets(scheme), instance.storage)
            # the surrogate minimisation over [1, count] that the count replaced
            assert 1 + surrogates(scheme, instance, int(count[0])).argmin() == count[0]
            outcome = equilibrium.solve_rows(scheme, instance)
            moved = equilibrium.solve_rows(scheme, scaled)
            assert outcome.n_participants[0] == moved.n_participants[0] == count[0]
            # no money enters the fractions
            assert np.array_equal(moved.fractions, outcome.fractions)
            # every price scales by a b / c, up to rounding
            np.testing.assert_allclose(moved.prices, outcome.prices * (a * b / c), rtol=1e-13)


@pytest.mark.parametrize(
    "market, money",
    [
        (["--alpha", "2.1391711342108097", "--delta", "373.44113653610594", "--V", "167",
          "--gamma", "2.594443147151155", "--Q", "66"],
         ["--s-bh", "2.5050652229881076", "--K", "0.8986582582648939",
          "--lambda", "1.211609016343346"]),
        (["--alpha", "2.173897233287741", "--delta", "455.43138917144233", "--V", "198",
          "--gamma", "1.0593005048061093", "--Q", "141"],
         ["--s-bh", "16.291162579795106", "--K", "493.94924839758585",
          "--lambda", "7.988755649388311"]),
    ],
)  # fmt: skip
def test_money_scale_leaves_the_verdict(tmp_path, market, money):
    # Draws of the test above.  Best responses to the rounded prices broke
    # the budget (exit 4) in one of each pair of markets, which differ
    # only in money; both solve, with the same fractions
    fractions = []
    for argv in (market, [*market, *money]):
        out = tmp_path / "out.csv"
        assert cli.main(["solve", *argv, "--out", str(out)]) == 0
        fractions.append([row.split(",")[2] for row in out.read_text().splitlines()[1:-2]])
    assert fractions[0] == fractions[1]


def test_surrogates_tying_in_floats_keep_the_second_retailer():
    # Retailer 2's threshold, 326.8, lies below Q = 500, so it takes part.
    # The surrogates' minimisation put u at 1: S_2 - S_1 is -1.9e-15 at 60
    # digits, 3.8e-18 of S_1, below a float's resolution.
    mpmath = pytest.importorskip("mpmath")
    instance = make_instance(ExperimentConfig(delta=1e-12, n_vrs=2, gamma=56))
    assert surrogates("NUPS", instance, 2).argmin() == 0
    with mpmath.workdps(60):
        lam_big = mpmath.mpf(float(instance.constants.lambda_big[0, 0]))
        theta = mpmath.mpf(instance.constants.theta)
        gammas = [mpmath.mpf(g) for g in instance.gammas[0].tolist()]

        def surrogate(u):
            root_sum = sum(mpmath.cbrt(g) for g in gammas[:u])
            return lam_big**2 * root_sum**3 / (u * lam_big + theta) ** 2 - sum(gammas[:u])

        assert surrogate(2) - surrogate(1) < -1e-15
    outcome = nups_solve(instance)
    assert outcome.n_participants[0] == 2
    assert outcome.fractions[0, 1] == pytest.approx(8.32311672435e-07, rel=1e-9)
    assert outcome.prices[0, 1] == pytest.approx(1.88740029492e-10, rel=1e-9)
    assert verify_equilibrium(outcome, instance).leader_max_gain < 1e-20


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
            assert nups.report.nsp_total[0] >= ups.report.nsp_total[0] - 1e-9
            assert (
                ups.report.nsp_backhaul_saving[0]
                >= nups.report.nsp_backhaul_saving[0] - 1e-9
            )

    def test_leader_profit_rises_with_preference_skew(self):
        profits = []
        for gamma in np.arange(0.1, 1.05, 0.1):
            inst = small_instance(n_vrs=15, gamma=float(gamma))
            profits.append(nups_solve(inst).report.nsp_total[0])
        assert all(b >= a - 1e-9 for a, b in zip(profits, profits[1:]))

    def test_full_participation_bracket(self, default_instance):
        q_min = float(thresholds(default_instance)[0][-1])
        above = make_instance(ExperimentConfig(), storage=q_min + 1e-6)
        outcome = nups_solve(above)
        assert outcome.n_participants[0] == 15
        np.testing.assert_allclose(
            outcome.prices[0], reference_full_prices(above), rtol=1e-12
        )
        below = nups_solve(make_instance(ExperimentConfig(), storage=q_min - 1e-6))
        assert below.n_participants[0] == 14


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
        prices = outcome.prices[0, : outcome.n_participants[0]].tolist()
        prices[0] *= 1.1
        fractions = [
            best_response_fraction(p, g, default_instance.econ, row_constants(default_instance))
            for p, g in zip(prices, default_instance.gammas[0])
        ]
        corrupted = with_fractions(with_prices(outcome, prices), default_instance, fractions)
        with pytest.raises(VerificationFailure, match="leader"):
            verify_equilibrium(corrupted, default_instance)

    def test_corrupted_fraction_fails_follower_check(self, default_instance):
        outcome = nups_solve(default_instance)
        fractions = outcome.fractions.copy()
        fractions[0, 0] += 0.05  # keep the budget feasible by shrinking another
        fractions[0, 1] -= 0.05
        check_fraction_rows(fractions)
        corrupted = replace(outcome, fractions=fractions)
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
    u = outcome.n_participants[0]
    tau = outcome.fractions[0]
    prices = outcome.prices[0]
    assert (prices[:u] > 0).all() and (prices[u:] == 0).all()
    assert (tau[:u] > 0).all() and (tau[u:] == 0).all()
    assert tau.sum() <= 1.0 + 1e-9
    rep = outcome.report
    assert rep.global_total[0] == pytest.approx(
        2.0 * rep.nsp_backhaul_saving[0], rel=1.2e-11
    )


@pytest.mark.parametrize("solve", [nups_solve, ups_solve, waterfill_solve])
def test_solved_fractions_are_checked_once(monkeypatch, default_instance, solve):
    # each solver checks its one row of fractions, once
    shapes = []

    def counting(fractions):
        shapes.append(fractions.shape)
        check_fraction_rows(fractions)

    monkeypatch.setattr(economics, "check_fraction_rows", counting)
    monkeypatch.setattr(equilibrium, "check_fraction_rows", counting)
    solve(default_instance)
    assert shapes == [(1, default_instance.shape[1])]
