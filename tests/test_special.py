"""Special-function checks against independent quadrature/closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cachemarket.special import a_factor, c_factor, hyp2f1_unit_a, theta_factor


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
    """B(x, 1 - x) = pi / sin(pi x), the Beta factor of c_factor at x = 2/alpha.

    c_factor(1, 2/x) = x B(x, 1 - x).
    """

    def test_half_half_is_pi(self):
        # oracle value: quadrature of the defining integral, equals pi
        oracle = beta_by_quadrature(0.5, 0.5)
        assert oracle == pytest.approx(math.pi, rel=1e-9)
        assert c_factor(1.0, 4.0) == pytest.approx(0.5 * oracle, rel=1e-9)
        assert c_factor(1.0, 4.0) == pytest.approx(0.5 * math.pi, rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.05, 0.95, size=50):
            beta = c_factor(1.0, 2.0 / x) / x
            assert beta == pytest.approx(c_factor(1.0, 2.0 / (1.0 - x)) / (1.0 - x), rel=1e-13)

    def test_against_quadrature_grid(self):
        # x = 2/alpha on both sides of 1/2, where the sine switches to 1 - x
        for x in (0.25, 0.4, 0.5, 0.6, 0.75):
            for delta in (1e-3, 1.0, 50.0):
                assert c_factor(delta, 2.0 / x) == pytest.approx(
                    x * delta**x * beta_by_quadrature(x, 1.0 - x), rel=1e-8
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
        "fn",
        [
            hyp2f1_unit_a,
            lambda a, d: a_factor(d, a),
            lambda a, d: c_factor(d, a),
            lambda a, d: theta_factor(d, a),
        ],
    )
    @pytest.mark.parametrize(
        "alpha,delta",
        [(math.nan, 0.1), (math.inf, 0.1), (4.0, math.nan), (4.0, math.inf), (-math.inf, -math.inf)],
    )
    def test_non_finite_is_a_domain_error(self, fn, alpha, delta):
        # NaN fails every comparison: `alpha <= 2` alone would send it to the series
        with pytest.raises(ValueError, match="finite"):
            fn(alpha, delta)


def constants_by_mpmath(mpmath, alpha, delta):
    """Oracle: (Theta, C) at the working precision, A from mpmath's 2F1."""
    a, d = mpmath.mpf(alpha), mpmath.mpf(delta)
    b = 1 - 2 / a
    big_a = 2 * d / (a - 2) * mpmath.hyp2f1(1, b, b + 1, -d)
    big_c = (2 / a) * d ** (2 / a) * mpmath.pi / mpmath.sin(2 * mpmath.pi / a)
    return big_a - big_c + 1, big_c


# both sides of the split at delta = 2, and the decades from 1e-6 to 1e8
DELTAS = [*np.logspace(-6, 8, 57).tolist(), 1.99, 2.0, math.nextafter(2.0, 3.0), 2.01]


class TestTheta:
    # abs=0: approx's default absolute tolerance of 1e-12 would dwarf
    # the relative bounds, since Theta falls like 1/delta
    @pytest.mark.parametrize("alpha", [2.05, 2.2, 2.5, 3.0, 3.3, 4.0, 6.0, 10.0])
    def test_against_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for delta in DELTAS:
                theta, c = (float(x) for x in constants_by_mpmath(mpmath, alpha, delta))
                rel = 2e-15 if delta > 2.0 else 1e-12
                assert theta_factor(delta, alpha) == pytest.approx(theta, rel=rel, abs=0.0), delta
                assert c_factor(delta, alpha) == pytest.approx(c, rel=2e-15, abs=0.0), delta

    def test_c_near_alpha_two(self):
        # the sine takes (alpha - 2)/alpha there, so pi x is near 0, not near pi
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for alpha in (2.001, 2.005, 2.01, 2.02, 2.03, 2.04):
                _, c = constants_by_mpmath(mpmath, alpha, 1.0)
                assert c_factor(1.0, alpha) == pytest.approx(float(c), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 10.0])
    def test_hyp2f1_against_scipy(self, alpha):
        b = 1.0 - 2.0 / alpha
        for delta in DELTAS:
            assert hyp2f1_unit_a(alpha, delta) == pytest.approx(
                special.hyp2f1(1.0, b, b + 1.0, -delta), rel=1e-13, abs=0.0
            ), delta

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        alpha=st.floats(2.01, 100.0),
        delta=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    )
    def test_positive(self, alpha, delta):
        assert theta_factor(delta, alpha) > 0.0


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
