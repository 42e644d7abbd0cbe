"""Profit model identities."""

import math
import sys

import numpy as np
import pytest
from price_oracle import backhaul_saving, vr_profit

from cachemarket.catalog import CatalogConfig, VrConfig, build_popularity
from cachemarket.coverage import hit_probability, make_constants
from cachemarket.economics import (
    EconomicConfig,
    check_fraction_rows,
    gamma_vector,
    profit_report,
)

A_REF = 0.01 * math.atan(0.1) / 0.1
C_REF = 0.05 * math.pi


def make_econ(**overrides):
    params = dict(
        backhaul_cost=1.0,
        local_surcharge=1.0,
        requests_per_mu=10.0,
        mu_intensity=50.0,
        sbs_intensity=10.0,
    )
    params.update(overrides)
    return EconomicConfig(**params)


def make_scenario(n_vrs=2, gamma=0.6, n_files=100, storage=20, **econ_overrides):
    catalog = CatalogConfig(n_files=n_files, storage=storage, file_exponent=0.8)
    pops = build_popularity(catalog, VrConfig(n_vrs=n_vrs, vr_exponent=gamma))
    econ = make_econ(**econ_overrides)
    constants = make_constants(0.01, 4.0, catalog.f_groups)
    return pops, econ, constants


def report_of(fractions, prices, pops, econ, constants):
    """profit_report of one operating point; retailers past len(prices) are priced out."""
    tau = np.array(fractions, dtype=float)
    posted = np.zeros(tau.size)
    posted[: len(prices)] = prices
    return profit_report(tau, posted, gamma_vector(pops.q, econ), econ, constants)


def leasing_income(fractions, prices, sbs_intensity, n_vrs=None):
    """The NSP's leasing income: the rent sum of a profit report."""
    n_vrs = n_vrs or len(prices)
    pops, econ, constants = make_scenario(n_vrs=n_vrs, sbs_intensity=sbs_intensity)
    return report_of(fractions, prices, pops, econ, constants).nsp_leasing


def test_leasing_income_cases():
    assert leasing_income((0.0, 0.0), (1.0, 2.0), 10.0) == 0.0
    assert leasing_income((0.5,), (2.0,), 10.0) == 10.0
    assert leasing_income((0.3, 0.2), (1.0, 4.0), 20.0) == pytest.approx(22.0, rel=1e-14)


def test_excluded_price_contributes_nothing():
    # retailer 2 is priced out: one price posted to two retailers
    assert leasing_income((0.5, 0.0), (2.0,), 10.0, n_vrs=2) == 10.0


def test_backhaul_saving_zero_and_full():
    pops, econ, constants = make_scenario(n_vrs=1, gamma=0.5, n_files=10, storage=10)
    assert backhaul_saving((0.0,), pops, econ, constants) == 0.0
    # Gamma_1 = zeta * K = 500 and F = 1
    expected = 500.0 * (1.0 / (1.0 + A_REF))
    assert backhaul_saving((1.0,), pops, econ, constants) == (
        pytest.approx(expected, rel=1e-9)
    )


def backhaul_saving_double_sum(tau, pops, cfg, constants):
    """The saving summed explicitly over (group, retailer) pairs.

    A cross-check of the Gamma-collapsed form; requires exact group
    popularities (integer N/Q).
    """
    total = 0.0
    for p_f in pops.p:
        for q_v, t in zip(pops.q, tau):
            total += (
                p_f
                * q_v
                * cfg.mu_intensity
                * cfg.requests_per_mu
                * hit_probability(t, constants)
                * cfg.backhaul_cost
            )
    return total


def test_double_sum_matches_collapsed_sum():
    pops, econ, constants = make_scenario(n_vrs=4, gamma=0.7)
    rng = np.random.default_rng(9)
    tau = rng.dirichlet(np.ones(4)) * 0.9
    assert backhaul_saving(tau, pops, econ, constants) == pytest.approx(
        backhaul_saving_double_sum(tau, pops, econ, constants), rel=1e-9
    )


def test_vr_profit_values():
    _, econ, constants = make_scenario(n_vrs=1, n_files=10, storage=10)
    assert vr_profit(0.0, 5.0, 500.0, econ, constants) == 0.0
    expected = 500.0 / (A_REF - C_REF + 1.0 + C_REF) - 10.0
    assert vr_profit(1.0, 1.0, 500.0, econ, constants) == pytest.approx(
        expected, rel=1e-9
    )
    # an exorbitant rent makes the position a loss
    assert vr_profit(0.5, 1e6, 500.0, econ, constants) < 0.0


def test_vr_profit_concave_in_fraction():
    rng = np.random.default_rng(21)
    for _ in range(10):
        _, econ, constants = make_scenario(
            n_vrs=1,
            n_files=100,
            storage=int(rng.choice([10, 20, 50, 100])),
        )
        gamma_v = float(rng.uniform(10.0, 1000.0))
        s_v = float(rng.uniform(0.01, 5.0))
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.array(
            [vr_profit(float(t), s_v, gamma_v, econ, constants) for t in grid]
        )
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second_diff.max() <= 1e-9


def test_profit_report_identities():
    pops, econ, constants = make_scenario(n_vrs=3, gamma=0.5)
    rng = np.random.default_rng(4)
    tau = rng.dirichlet(np.ones(3)) * 0.95
    prices = rng.uniform(0.1, 3.0, size=3)
    rep = report_of(tau, prices, pops, econ, constants)
    assert rep.nsp_total == pytest.approx(
        rep.nsp_leasing + rep.nsp_backhaul_saving, rel=1e-12
    )
    for v in range(3):
        assert rep.vr_profits[v] == pytest.approx(
            rep.vr_surcharge[v] - rep.vr_rent[v], rel=1e-12
        )
    # rent paid equals rent received
    assert sum(rep.vr_rent) == pytest.approx(rep.nsp_leasing, rel=1e-9)
    # s_ld == s_bh makes the sum profit exactly twice the saving
    assert rep.global_total == pytest.approx(
        2.0 * rep.nsp_backhaul_saving, rel=1e-12
    )


def strict_fold(values):
    total = 0.0
    for x in values:
        total += x
    return total


def test_totals_are_left_to_right_folds():
    # np.sum adds pairwise and Python >= 3.12's sum() compensates; the
    # printed totals are plain left-to-right folds on every interpreter.
    # Each vector below is one where np.sum and math.fsum both differ.
    pops, econ, constants = make_scenario(n_vrs=64, gamma=0.3)
    rng = np.random.default_rng(0)
    tau = rng.dirichlet(np.ones(64)) * 0.99
    prices = rng.uniform(0.1, 3.0, size=64)
    rep = report_of(tau, prices, pops, econ, constants)
    savings = (
        gamma_vector(pops.q, econ)
        * hit_probability(tau, constants)
        * econ.backhaul_cost
    )
    for terms in (rep.vr_rent, savings, rep.vr_profits):
        assert strict_fold(terms) != np.sum(terms)
        assert strict_fold(terms) != math.fsum(terms)
    assert rep.nsp_leasing == strict_fold(rep.vr_rent)
    assert rep.nsp_backhaul_saving == strict_fold(savings)
    assert rep.global_total == rep.nsp_total + strict_fold(rep.vr_profits)


def test_all_zero_report():
    pops, econ, constants = make_scenario(n_vrs=2)
    rep = report_of((0.0, 0.0), (1.0, 1.0), pops, econ, constants)
    assert rep.nsp_total == 0.0
    assert rep.global_total == 0.0
    assert rep.vr_profits.tolist() == [0.0, 0.0]


def test_global_identity_needs_matched_surcharge():
    pops, econ, constants = make_scenario(n_vrs=2, local_surcharge=2.0)
    rep = report_of((0.4, 0.3), (1.0, 1.0), pops, econ, constants)
    assert rep.global_total != pytest.approx(2.0 * rep.nsp_backhaul_saving, rel=1e-6)


@pytest.mark.parametrize("field", ["mu_intensity", "requests_per_mu", "backhaul_cost"])
def test_saving_linear_in_each_scale(field):
    pops, econ, constants = make_scenario(n_vrs=3)
    tau = (0.3, 0.3, 0.3)
    base = backhaul_saving(tau, pops, econ, constants)
    doubled = make_econ(
        local_surcharge=econ.local_surcharge,
        **{field: getattr(econ, field) * 2.0},
    )
    assert backhaul_saving(tau, pops, doubled, constants) == pytest.approx(
        2.0 * base, rel=1e-12
    )


def test_empty_fraction_rows():
    check_fraction_rows(np.zeros((1, 0)))


def test_fraction_rows_budget():
    with pytest.raises(ValueError, match="fractions sum to 1.2, exceeding the SBS budget"):
        check_fraction_rows(np.array([[0.7, 0.5]]))
    with pytest.raises(ValueError, match=r"fraction 1 must lie in \[0, 1\], got 1.2"):
        check_fraction_rows(np.array([[1.2]]))


def test_gamma_vector_units():
    econ = make_econ()
    np.testing.assert_allclose(
        gamma_vector([0.6, 0.4], econ), [300.0, 200.0], rtol=1e-14
    )


@pytest.mark.parametrize(
    "field",
    [
        "backhaul_cost",
        "local_surcharge",
        "requests_per_mu",
        "mu_intensity",
        "sbs_intensity",
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_economic_config_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        make_econ(**{field: value})


def test_economic_config_rejects_overflowing_demand_scale():
    with pytest.raises(ValueError, match=r"zeta \* K .* overflows"):
        make_econ(requests_per_mu=1e300, mu_intensity=1e300)


@pytest.mark.parametrize("zeta, k", [(1e-200, 1e-200), (1e-160, 1e-160), (1.0, 1e-308)])
def test_economic_config_rejects_subnormal_demand_scale(zeta, k):
    # zeta * K is 0 or subnormal: every Gamma_v would have lost digits
    with pytest.raises(ValueError, match=r"zeta \* K = .* is below the smallest normal float"):
        make_econ(requests_per_mu=k, mu_intensity=zeta)
    make_econ(requests_per_mu=sys.float_info.min, mu_intensity=1.0)
