"""Acceptance gate: end-to-end checks of the delivered claims.

Each test covers one numbered criterion and prints a single PASS/FAIL
line directly to the terminal (bypassing capture) before asserting.
"""

import itertools
import numpy as np
from price_oracle import row_constants

from cachemarket.coverage import hit_probability
from cachemarket.equilibrium import (
    best_response_fraction,
    nups_solve,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from cachemarket.harness import (
    COVERAGE_HEADER,
    ExperimentConfig,
    format_rows,
    make_instance,
    run_sweep_gamma,
    run_sweep_storage,
    run_verify_coverage,
)
from cachemarket.ppp_sim import SimConfig, simulate_hit_probability


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {number}] {status}: {detail}", flush=True)


def test_criterion_1_simulator_matches_closed_form(capsys):
    """40-point (tau, Q, lambda) grid at 2000 trials, |err| <= max(0.02, 3 hw)."""
    cfg = ExperimentConfig(q_grid=(10, 500), lambda_grid=(10.0, 30.0), trials=2000)
    rows, ok = run_verify_coverage(cfg)
    worst = max(row[-1] / max(0.02, 3.0 * row[5]) for row in rows)
    announce(capsys, 1,
        ok,
        f"{len(rows)} grid points, worst error at {worst:.2f}x tolerance",
    )
    assert len(rows) == 40
    assert ok


def test_criterion_2_hit_probability_invariance(capsys):
    """The empirical hit rate moves with neither SBS density nor transmit power."""

    def estimate(lam, power, seed):
        sim = SimConfig(
            sbs_intensity=lam,
            mu_intensity=50.0,
            tx_power=power,
            noise_power=1e-10,
            alpha=4.0,
            delta=0.01,
            window_radius=5.0,
            trials=2000,
            seed=seed,
        )
        return simulate_hit_probability(sim, 0.5, 10)

    lam_lo = estimate(10.0, 2.0, 101)
    lam_hi = estimate(30.0, 2.0, 102)
    pow_lo = estimate(10.0, 1.0, 103)
    pow_hi = estimate(10.0, 4.0, 104)
    lam_gap = abs(lam_lo.p_hat - lam_hi.p_hat)
    pow_gap = abs(pow_lo.p_hat - pow_hi.p_hat)
    lam_ok = lam_gap <= lam_lo.half_width_95 + lam_hi.half_width_95
    pow_ok = pow_gap <= pow_lo.half_width_95 + pow_hi.half_width_95
    announce(capsys, 2,
        lam_ok and pow_ok,
        f"density gap {lam_gap:.4f}, power gap {pow_gap:.4f}, both within CI sums",
    )
    assert lam_ok
    assert pow_ok


def test_criterion_3_nups_prices_beat_a_brute_force_grid(capsys):
    """No price vector on a 17^3 grid improves the leader's profit by > 0.1%."""
    cfg = ExperimentConfig(n_vrs=3, gamma=0.5, storage=500)
    rows = make_instance(cfg)
    outcome = nups_solve(rows)
    base = outcome.report.nsp_total[0]
    gammas = rows.gammas[0]
    con = row_constants(rows)
    econ = rows.econ
    star = list(outcome.prices[0, : outcome.n_participants[0]])
    factors = np.linspace(0.6, 1.4, 17)
    best_rival = -np.inf
    for combo in itertools.product(factors, repeat=3):
        prices = [s * f for s, f in zip(star, combo)]
        taus = [
            best_response_fraction(p, g, econ, con) for p, g in zip(prices, gammas)
        ]
        if any(t > 1.0 for t in taus) or sum(taus) > 1.0 + 1e-9:
            continue
        leasing = econ.sbs_intensity * sum(p * t for p, t in zip(prices, taus))
        saving = sum(
            g * econ.backhaul_cost * hit_probability(t, con)
            for g, t in zip(gammas, taus)
        )
        best_rival = max(best_rival, leasing + saving)
    gain = (best_rival - base) / base
    ok = gain <= 1e-3
    announce(capsys, 3, ok, f"best grid rival within {gain:+.2e} of the closed form")
    assert ok


def random_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg = ExperimentConfig(
            n_vrs=int(rng.integers(2, 16)),
            gamma=float(rng.uniform(0.05, 1.0)),
            storage=int(rng.integers(10, 501)),
        )
        yield make_instance(cfg)


def test_criterion_4_shared_price_equals_waterfilling(capsys):
    """UPS allocations coincide with direct sum-profit maximization."""
    worst = 0.0
    for rows in random_instances(100, seed=2024):
        ups = ups_solve(rows)
        wf = waterfill_solve(rows)
        diff = max(
            abs(a - b)
            for a, b in zip(ups.fractions[0], wf.fractions[0])
        )
        worst = max(worst, diff)
    ok = worst <= 1e-9
    announce(capsys, 4, ok, f"100 random instances, max fraction gap {worst:.2e}")
    assert ok


def test_criterion_5_sum_profit_identity(capsys):
    """With matched tariffs the market-wide profit is exactly twice the saving."""
    worst = 0.0
    for rows in random_instances(30, seed=77):
        for outcome in (
            nups_solve(rows),
            ups_solve(rows),
            waterfill_solve(rows),
        ):
            rep = outcome.report
            rel = abs(rep.global_total[0] - 2.0 * rep.nsp_backhaul_saving[0]) / max(
                abs(rep.global_total[0]), 1e-300
            )
            worst = max(worst, rel)
    ok = worst <= 1e-12
    announce(capsys, 5, ok, f"90 outcomes, max relative defect {worst:.2e}")
    assert ok


def test_criterion_6_participation_thresholds(capsys):
    """Threshold ordering and the bracket boundary drive the participant count."""
    cfg = ExperimentConfig()
    instance = make_instance(cfg)
    u_values, u_bar_values = instance.brackets("NUPS")[0], instance.brackets("UPS")[0]
    increasing = all(b > a for a, b in zip(u_values, u_values[1:]))
    dominated = all(
        ub >= u - 1e-12 for u, ub in zip(u_values, u_bar_values)
    )
    q_min = float(u_values[-1])
    above = nups_solve(make_instance(cfg, storage=q_min + 1e-6)).n_participants[0]
    below = nups_solve(make_instance(cfg, storage=q_min - 1e-6)).n_participants[0]
    ok = increasing and dominated and above == 15 and below == 14
    announce(capsys, 6,
        ok,
        f"thresholds ordered, count 15 just above Q_min={q_min:.4g} and 14 below",
    )
    assert ok


def test_criterion_7_sweep_trends(capsys):
    """Participation and profit orderings across the evaluation grids."""
    gammas = [round(0.1 * i, 1) for i in range(1, 11)]
    by_storage = {}
    ok = True
    notes = []
    for q in (10, 50, 100, 500):
        rows = run_sweep_gamma(ExperimentConfig(storage=q), gammas)
        by_storage[q] = rows
        u_nups = [row[3] for row in rows]
        u_ups = [row[4] for row in rows]
        if not all(b <= a for a, b in zip(u_nups, u_nups[1:])):
            ok, _ = False, notes.append(f"NUPS count not monotone at Q={q}")
        if not all(b <= a for a, b in zip(u_ups, u_ups[1:])):
            ok, _ = False, notes.append(f"UPS count not monotone at Q={q}")
        for row in rows:
            if row[3] < row[4]:
                ok, _ = False, notes.append(f"UPS keeps more retailers at Q={q}")
            if row[5] < row[6] - 1e-9:
                ok, _ = False, notes.append(f"UPS out-earns NUPS at Q={q}")
            if row[8] < row[7] - 1e-9:
                ok, _ = False, notes.append(f"NUPS beats UPS sum profit at Q={q}")
    for i in range(len(gammas)):
        counts = [by_storage[q][i][3] for q in (10, 50, 100, 500)]
        if not all(b >= a for a, b in zip(counts, counts[1:])):
            ok, _ = False, notes.append(f"count not monotone in Q at gamma={gammas[i]}")
    for gamma in (0.3, 1.0):
        rows = run_sweep_storage(
            ExperimentConfig(gamma=gamma), [10, 50, 100, 250, 500]
        )
        counts = [row[1] for row in rows]
        if not all(b >= a for a, b in zip(counts, counts[1:])):
            ok, _ = False, notes.append(f"storage sweep not monotone at gamma={gamma}")
    announce(capsys, 7, ok, "; ".join(notes) if notes else "all grid orderings hold")
    assert ok, notes


def test_criterion_8_equilibria_survive_perturbation(capsys):
    """Certified gains at most 1e-6 on defaults, corners, and random draws."""
    scenarios = [
        ExperimentConfig(),
        ExperimentConfig(storage=10, gamma=1.0),
        ExperimentConfig(storage=500, gamma=0.1),
        ExperimentConfig(n_vrs=3, gamma=0.5),
    ]
    worst = -np.inf
    checked = 0
    for cfg in scenarios:
        rows = make_instance(cfg)
        for outcome in (
            nups_solve(rows),
            ups_solve(rows),
            waterfill_solve(rows),
        ):
            record = verify_equilibrium(outcome, rows, rel_tol=1e-6)
            worst = max(worst, record.leader_max_gain)
            if outcome.scheme != "WATERFILL":
                worst = max(worst, record.follower_max_gain)
            checked += 1
    for rows in random_instances(10, seed=5150):
        record = verify_equilibrium(nups_solve(rows), rows)
        worst = max(worst, record.leader_max_gain, record.follower_max_gain)
        checked += 1
    ok = worst <= 1e-6
    announce(capsys, 8, ok, f"{checked} outcomes verified, max certified gain {worst:.2e}")
    assert ok


def test_criterion_9_deterministic_outputs(capsys):
    """Identical seeds yield byte-identical CSV."""
    cfg = ExperimentConfig(
        tau_grid=(0.2, 0.6), q_grid=(50,), lambda_grid=(10.0,), trials=300
    )
    runs = [format_rows(COVERAGE_HEADER, run_verify_coverage(cfg)[0]) for _ in range(3)]
    ok = runs[0] == runs[1] == runs[2]
    announce(capsys, 9, ok, "coverage CSV byte-identical across reruns")
    assert ok
