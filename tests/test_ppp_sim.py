"""Monte-Carlo simulator sanity checks against point-process theory."""

import math

import numpy as np
import pytest

from cachemarket import ppp_sim
from cachemarket.coverage import hit_probability, make_constants
from cachemarket.ppp_sim import SimConfig, _run_trial, sample_hppp, simulate_hit_probability

from ppp_oracle import run_trial, run_trial_bernoulli, sample_hppp_points


def make_sim(**overrides):
    params = dict(
        sbs_intensity=10.0,
        mu_intensity=50.0,
        tx_power=2.0,
        noise_power=1e-10,
        alpha=4.0,
        delta=0.01,
        window_radius=5.0,
        trials=500,
        seed=7,
    )
    params.update(overrides)
    return SimConfig(**params)


class TestSampling:
    def test_points_stay_in_window(self):
        rng = np.random.default_rng(0)
        dist2 = sample_hppp(10.0, 5.0, rng)
        assert np.sqrt(dist2).max() <= 5.0

    def test_poisson_count_mean(self):
        # E[n] = intensity * pi * R^2 = 785.4; check the sample mean to 4 SE
        rng = np.random.default_rng(1)
        counts = [sample_hppp(10.0, 5.0, rng).shape[0] for _ in range(300)]
        expected = 10.0 * math.pi * 25.0
        se = math.sqrt(expected / 300)
        assert abs(np.mean(counts) - expected) <= 4.0 * se

    def test_void_probability(self):
        # P(no point within z of the origin) = exp(-pi lambda z^2)
        rng = np.random.default_rng(2)
        intensity = 50.0
        nearest = []
        for _ in range(2000):
            dist2 = sample_hppp(intensity, 1.0, rng)
            nearest.append(np.sqrt(dist2.min()) if dist2.size else np.inf)
        nearest = np.array(nearest)
        for z in (0.05, 0.1):
            expected = math.exp(-math.pi * intensity * z**2)
            empirical = float(np.mean(nearest > z))
            margin = 4.0 * math.sqrt(expected * (1 - expected) / 2000)
            assert abs(empirical - expected) <= margin

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stream_is_poisson_then_radii_then_angles(self, seed):
        rng = np.random.default_rng(seed)
        dist2 = sample_hppp(10.0, 5.0, rng)
        ref = np.random.default_rng(seed)
        n = ref.poisson(10.0 * math.pi * 25.0)
        radii = ref.random(n)
        ref.random(n)  # the angles
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(dist2, 25.0 * radii)

    def test_squared_distances_of_the_oracle_points(self):
        dist2 = sample_hppp(10.0, 5.0, np.random.default_rng(4))
        points = sample_hppp_points(10.0, 5.0, np.random.default_rng(4))
        assert dist2 == pytest.approx(np.hypot(points[:, 0], points[:, 1]) ** 2, rel=1e-12)

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_hppp(0.0, 5.0, rng)
        with pytest.raises(ValueError):
            sample_hppp(10.0, -1.0, rng)


class TestSimulator:
    def test_zero_fraction_never_hits(self):
        est = simulate_hit_probability(make_sim(), 0.0, 50)
        assert est.p_hat == 0.0
        assert est.half_width_95 == 0.0
        assert est.trials == 500

    def test_seed_reproducibility(self):
        first = simulate_hit_probability(make_sim(seed=11), 0.5, 10)
        second = simulate_hit_probability(make_sim(seed=11), 0.5, 10)
        assert first == second

    def test_half_width_formula(self):
        est = simulate_hit_probability(make_sim(trials=400), 0.8, 10)
        expected = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / 400)
        assert est.half_width_95 == pytest.approx(expected, rel=1e-12)

    def test_matches_analytic_point(self):
        cfg = make_sim(trials=3000)
        est = simulate_hit_probability(cfg, 0.5, 10)
        analytic = hit_probability(0.5, make_constants(cfg.delta, cfg.alpha, 10))
        assert abs(est.p_hat - analytic) <= max(0.02, 3.0 * est.half_width_95)

    def test_insensitive_to_vanishing_noise(self):
        # interference dominates: the tiny default noise changes nothing
        with_noise = simulate_hit_probability(make_sim(), 0.6, 10)
        without = simulate_hit_probability(make_sim(noise_power=0.0), 0.6, 10)
        assert with_noise.p_hat == pytest.approx(without.p_hat, abs=0.01)

    def test_more_groups_fewer_hits(self):
        sparse = simulate_hit_probability(make_sim(trials=2000), 0.5, 50)
        dense = simulate_hit_probability(make_sim(trials=2000), 0.5, 5)
        assert dense.p_hat > sparse.p_hat

    def test_domain_errors(self):
        cfg = make_sim()
        with pytest.raises(ValueError):
            simulate_hit_probability(cfg, 1.5, 10)
        with pytest.raises(ValueError):
            simulate_hit_probability(cfg, 0.5, 0)
        with pytest.raises(ValueError):
            simulate_hit_probability(cfg, 0.5, 2.5)

    @pytest.mark.parametrize("f_groups", [math.inf, -math.inf, math.nan])
    def test_non_finite_groups_are_named(self, f_groups):
        # int() used to raise its own OverflowError (inf) or ValueError (nan)
        with pytest.raises(ValueError, match="f_groups must be a positive integer"):
            simulate_hit_probability(make_sim(), 0.5, f_groups)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_sim(trials=0)
        with pytest.raises(ValueError):
            make_sim(window_radius=0.5)  # expected count drops below 100

    @pytest.mark.parametrize(
        "fields",
        [
            {"window_radius": 1e200},  # R^2 alone overflows (OverflowError from **)
            {"window_radius": 1e10, "sbs_intensity": 1e300},  # R^2 fits, lambda pi R^2 does not
        ],
    )
    def test_non_finite_expected_count_is_named(self, fields):
        with pytest.raises(ValueError, match=r"expected SBS count lambda \* pi \* R\^2 = inf"):
            make_sim(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"window_radius": 1e9},  # 3.1e19 cells
            # a mean just past the limit
            {"window_radius": 1.0,
             "sbs_intensity": float(np.nextafter(ppp_sim._POISSON_LAM_MAX, 1e300)) / math.pi},
        ],
    )  # fmt: skip
    def test_expected_count_past_numpys_poisson_limit_is_named(self, fields):
        expected = fields.get("sbs_intensity", 10.0) * math.pi * fields["window_radius"] ** 2
        assert expected > ppp_sim._POISSON_LAM_MAX
        # numpy refuses such a mean before it draws anything
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(expected)
        with pytest.raises(ValueError) as exc:
            make_sim(**fields)
        assert str(exc.value).startswith(
            f"expected SBS count lambda * pi * R^2 = {expected:.3g} exceeds numpy's Poisson "
            f"limit, 9.22e+18 (lambda = {fields.get('sbs_intensity', 10.0)}, "
            f"R = {fields['window_radius']})"
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            (name, value)
            for name in ("sbs_intensity", "mu_intensity", "tx_power", "window_radius")
            for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)
        ]
        + [("noise_power", v) for v in (math.nan, math.inf, -math.inf, -1e-12)]
        + [("alpha", v) for v in (math.nan, math.inf, -math.inf, 2.0, 1.5)]
        + [("delta", v) for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
        + [("trials", v) for v in (2.5, 500.0, "500")]
        + [("seed", v) for v in (-1, 2.5, "7")],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_sim(**{field: value})

    def test_lone_cell_without_noise_is_a_hit(self, monkeypatch):
        # no interference and no noise: the SINR is +inf, not 0/0
        monkeypatch.setattr(ppp_sim, "sample_hppp", lambda *args: np.array([1.0]))
        est = simulate_hit_probability(make_sim(noise_power=0.0, trials=5), 1.0, 1)
        assert est.p_hat == 1.0

    def test_accepts_zero_noise_and_numpy_trials(self):
        assert make_sim(noise_power=0.0, trials=np.int64(3)).trials == 3
        assert make_sim(seed=np.int64(0)).seed == 0


class TestAgainstPointOracle:
    """Same hit or miss per trial as the point-based trial on shared seeds."""

    @pytest.mark.parametrize("alpha, delta", [(4.0, 0.01), (3.3, 1.0)])
    @pytest.mark.parametrize("f_groups", [1, 50])  # Q = 500 and Q = 10 at N = 500
    @pytest.mark.parametrize("intensity", [10.0, 30.0])
    def test_same_verdict_per_trial(self, alpha, delta, f_groups, intensity):
        cfg = make_sim(sbs_intensity=intensity, alpha=alpha, delta=delta, trials=100, seed=3)
        for tau in (0.1, 0.5, 1.0):
            mark_prob = tau / f_groups
            children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
            new = [_run_trial(cfg, mark_prob, np.random.default_rng(c)) for c in children]
            old = [run_trial(cfg, mark_prob, np.random.default_rng(c)) for c in children]
            assert new == old
            est = simulate_hit_probability(cfg, tau, f_groups)
            assert est.p_hat == sum(old) / cfg.trials


class TestAgainstBernoulliMarks:
    """The binomial count of marked cells has the law of independent marks."""

    @pytest.mark.parametrize(
        "alpha, delta, tau, f_groups, seed",
        [
            (4.0, 0.01, 0.5, 10, 31),
            (4.0, 0.01, 0.5, 50, 32),  # about 8 marked cells in 785
            (3.3, 1.0, 1.0, 1, 33),
            (3.3, 1.0, 0.2, 5, 34),
        ],
    )
    def test_same_hit_rate(self, alpha, delta, tau, f_groups, seed):
        cfg = make_sim(alpha=alpha, delta=delta, trials=1200, seed=seed)
        binomial = simulate_hit_probability(cfg, tau, f_groups).p_hat
        rng = np.random.default_rng(seed + 100)
        hits = sum(run_trial_bernoulli(cfg, tau / f_groups, rng) for _ in range(cfg.trials))
        bernoulli = hits / cfg.trials
        pooled = (binomial + bernoulli) / 2
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / cfg.trials)
        assert 0.0 < pooled < 1.0
        assert abs(binomial - bernoulli) <= 4.0 * se
