"""Hit-probability closed form and derived constants."""

import math

import numpy as np
import pytest

from cachemarket.coverage import CoverageConstants, hit_probability, make_constants
from cachemarket.special import a_factor

# frozen oracle values at delta = 0.01, alpha = 4 (arctan / Beta closed forms)
A_REF = 0.01 * math.atan(0.1) / 0.1
C_REF = 0.05 * math.pi


def test_constants_single_group():
    con = make_constants(0.01, 4.0, 1.0)
    assert a_factor(0.01, 4.0) == pytest.approx(A_REF, rel=1e-10)
    assert con.c == pytest.approx(C_REF, rel=1e-10)
    assert con.theta == pytest.approx(A_REF - C_REF + 1.0, rel=1e-12)
    assert con.lambda_big == pytest.approx(C_REF, rel=1e-10)


def test_constants_scale_linearly_in_groups():
    con1 = make_constants(0.01, 4.0, 1.0)
    con50 = make_constants(0.01, 4.0, 50.0)
    assert con50.lambda_big == pytest.approx(50.0 * con1.lambda_big, rel=1e-12)
    assert con50.c == con1.c
    assert con50.theta == con1.theta


def test_constants_vanish_with_threshold():
    con = make_constants(1e-9, 4.0, 10.0)
    assert con.theta == pytest.approx(1.0, abs=1e-4)
    assert con.lambda_big == pytest.approx(0.0, abs=1e-3)


def test_hit_zero_fraction():
    con = make_constants(0.01, 4.0, 50.0)
    assert hit_probability(0.0, con) == 0.0


def test_hit_full_rental_one_group():
    con = make_constants(0.01, 4.0, 1.0)
    assert hit_probability(1.0, con) == pytest.approx(1.0 / (1.0 + A_REF), rel=1e-10)


def test_hit_half_rental_fifty_groups():
    con = make_constants(0.01, 4.0, 50.0)
    expected = 0.5 / (C_REF * 49.5 + A_REF * 0.5 + 0.5)
    assert hit_probability(0.5, con) == pytest.approx(expected, rel=1e-10)


def test_monotone_in_fraction():
    con = make_constants(0.01, 4.0, 10.0)
    grid = np.linspace(0.0, 1.0, 100)
    values = [hit_probability(float(t), con) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_more_storage_means_higher_hit():
    # fewer groups (larger Q) raise the hit probability at fixed tau
    values = [
        hit_probability(0.4, make_constants(0.01, 4.0, f)) for f in (50, 10, 5, 1)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_algebraic_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        delta = float(rng.uniform(1e-3, 5.0))
        alpha = float(rng.uniform(2.2, 6.0))
        f_groups = float(rng.uniform(1.0, 60.0))
        tau = float(rng.uniform(1e-6, 1.0))
        con = make_constants(delta, alpha, f_groups)
        pr = hit_probability(tau, con)
        a = a_factor(delta, alpha)
        assert pr * (con.c * (f_groups - tau) + a * tau + tau) == pytest.approx(
            tau, rel=1e-12
        )
        assert 0.0 <= pr <= 1.0


def test_domain_errors():
    con = make_constants(0.01, 4.0, 10.0)
    with pytest.raises(ValueError):
        hit_probability(-0.1, con)
    with pytest.raises(ValueError):
        hit_probability(1.1, con)
    with pytest.raises(ValueError):
        make_constants(0.01, 4.0, 0.5)
    for theta in (0.0, -0.5):
        with pytest.raises(ValueError, match="Theta must be positive"):
            CoverageConstants(c=0.2, theta=theta, lambda_big=1.0)


@pytest.mark.parametrize(
    "delta,alpha,f_groups",
    [
        (math.nan, 4.0, 10.0),
        (math.inf, 4.0, 10.0),
        (0.01, math.nan, 10.0),
        (0.01, math.inf, 10.0),
        (0.01, 4.0, math.nan),
        (0.01, 4.0, math.inf),
    ],
)
def test_non_finite_constants_are_domain_errors(delta, alpha, f_groups):
    with pytest.raises(ValueError, match="finite"):
        make_constants(delta, alpha, f_groups)
