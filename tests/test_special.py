"""Special-function checks against independent quadrature/closed-form oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from cachemarket.special import a_factor, beta_function, c_factor, hyp2f1_unit_a


def beta_by_quadrature(x, y):
    """Oracle: quadrature of the defining integral.

    QAWS absorbs the algebraic endpoint singularities into the weight,
    leaving the constant 1 as the smooth part.
    """
    value, _ = integrate.quad(
        lambda t: 1.0, 0.0, 1.0,
        weight="alg", wvar=(x - 1.0, y - 1.0),
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return value


def hyp_by_euler_integral(alpha, delta):
    """Oracle: Euler integral b * int_0^1 t^(b-1) / (1 + delta t) dt."""
    b = 1.0 - 2.0 / alpha
    value, _ = integrate.quad(
        lambda t: t ** (b - 1) / (1 + delta * t), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return b * value


class TestBetaFunction:
    def test_constant_integrand(self):
        assert beta_function(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_half_is_pi(self):
        # oracle value: quadrature of the defining integral, equals pi
        oracle = beta_by_quadrature(0.5, 0.5)
        assert oracle == pytest.approx(math.pi, rel=1e-9)
        assert beta_function(0.5, 0.5) == pytest.approx(oracle, rel=1e-9)
        assert beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, y = rng.uniform(1e-3, 5.0, size=2)
            assert beta_function(x, y) == pytest.approx(
                beta_function(y, x), rel=1e-12
            )

    @pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (2.0, -0.5)])
    def test_domain_errors(self, x, y):
        with pytest.raises(ValueError):
            beta_function(x, y)

    def test_against_quadrature_grid(self):
        for x in (0.25, 0.5, 1.5, 3.0):
            for y in (0.4, 1.0, 2.5):
                assert beta_function(x, y) == pytest.approx(
                    beta_by_quadrature(x, y), rel=1e-8
                )


class TestHypergeometric:
    def test_limit_at_zero_argument(self):
        assert hyp2f1_unit_a(4.0, 1e-14) == pytest.approx(1.0, rel=1e-12)

    def test_alpha4_closed_form(self):
        # at alpha = 4 the function reduces to arctan(sqrt(d)) / sqrt(d)
        for delta in (0.01, 1.0):
            expected = math.atan(math.sqrt(delta)) / math.sqrt(delta)
            assert hyp2f1_unit_a(4.0, delta) == pytest.approx(expected, rel=1e-10)

    def test_alpha4_random_deltas(self):
        rng = np.random.default_rng(7)
        for delta in rng.uniform(1e-6, 10.0, size=50):
            expected = math.atan(math.sqrt(delta)) / math.sqrt(delta)
            assert hyp2f1_unit_a(4.0, float(delta)) == pytest.approx(
                expected, rel=1e-10
            )

    def test_value_in_unit_interval(self):
        for alpha in (2.5, 3.0, 4.0, 6.0):
            for delta in np.logspace(-4, 2, 13):
                value = hyp2f1_unit_a(alpha, float(delta))
                assert 0.0 < value <= 1.0

    def test_series_vs_euler_integral(self):
        for alpha in (2.5, 3.0, 4.0, 6.0):
            for delta in np.logspace(-4, 1, 11):
                assert hyp2f1_unit_a(alpha, float(delta)) == pytest.approx(
                    hyp_by_euler_integral(alpha, float(delta)), rel=1e-9
                )

    @pytest.mark.parametrize("alpha,delta", [(2.0, 0.1), (1.5, 1.0), (4.0, 0.0), (4.0, -1.0)])
    def test_domain_errors(self, alpha, delta):
        with pytest.raises(ValueError):
            hyp2f1_unit_a(alpha, delta)

    @pytest.mark.parametrize(
        "fn", [hyp2f1_unit_a, lambda a, d: a_factor(d, a), lambda a, d: c_factor(d, a)]
    )
    @pytest.mark.parametrize(
        "alpha,delta",
        [(math.nan, 0.1), (math.inf, 0.1), (4.0, math.nan), (4.0, math.inf), (-math.inf, -math.inf)],
    )
    def test_non_finite_is_a_domain_error(self, fn, alpha, delta):
        # NaN fails every comparison: `alpha <= 2` alone would send it to the series
        with pytest.raises(ValueError, match="finite"):
            fn(alpha, delta)


class TestDerivedFactors:
    def test_a_factor_values(self):
        # oracle: A = 2d/(a-2) * arctan(sqrt(d))/sqrt(d) at alpha = 4
        assert a_factor(0.01, 4.0) == pytest.approx(
            0.01 * math.atan(0.1) / 0.1, rel=1e-10
        )
        assert a_factor(1.0, 4.0) == pytest.approx(math.pi / 4.0, rel=1e-10)
        assert a_factor(1e-12, 4.0) == pytest.approx(0.0, abs=1e-11)

    def test_a_factor_alpha4_random(self):
        rng = np.random.default_rng(11)
        for delta in rng.uniform(1e-4, 10.0, size=50):
            d = float(delta)
            expected = d * math.atan(math.sqrt(d)) / math.sqrt(d)
            assert a_factor(d, 4.0) == pytest.approx(expected, rel=1e-9)

    def test_c_factor_values(self):
        # (2/4) * d^(1/2) * B(1/2, 1/2) = sqrt(d) * pi / 2
        assert c_factor(0.01, 4.0) == pytest.approx(0.05 * math.pi, rel=1e-12)
        assert c_factor(1.0, 4.0) == pytest.approx(0.5 * math.pi, rel=1e-12)
        assert c_factor(1e-12, 4.0) == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_monotone_in_delta(self, alpha):
        grid = np.logspace(-4, 2, 40)
        a_vals = [a_factor(float(d), alpha) for d in grid]
        c_vals = [c_factor(float(d), alpha) for d in grid]
        assert all(b > a for a, b in zip(a_vals, a_vals[1:]))
        assert all(b > a for a, b in zip(c_vals, c_vals[1:]))
        assert all(v > 0 for v in a_vals + c_vals)
