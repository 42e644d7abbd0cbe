"""Popularity vector construction and grouping."""

import math

import numpy as np
import pytest

from cachemarket.catalog import (
    CatalogConfig,
    DivisibilityError,
    VrConfig,
    build_popularity,
    file_popularity,
    group_popularity,
    vr_preference,
)
from cachemarket.economics import EconomicConfig, gamma_vector


def test_single_file():
    t = file_popularity(CatalogConfig(n_files=1, storage=1, file_exponent=2.0))
    assert t.tolist() == [1.0]


def test_uniform_when_beta_zero():
    t = file_popularity(CatalogConfig(n_files=3, storage=1, file_exponent=0.0))
    np.testing.assert_allclose(t, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_beta_one_three_files():
    # normalizer 1 + 1/2 + 1/3 = 11/6
    t = file_popularity(CatalogConfig(n_files=3, storage=1, file_exponent=1.0))
    np.testing.assert_allclose(t, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)


def test_grouping_whole_catalog():
    t = file_popularity(CatalogConfig(n_files=6, storage=6, file_exponent=0.7))
    assert group_popularity(t, 6).tolist() == pytest.approx([1.0], rel=1e-12)


def test_grouping_pairs():
    cfg = CatalogConfig(n_files=4, storage=2, file_exponent=1.0)
    t = file_popularity(cfg)
    np.testing.assert_allclose(t, np.array([12, 6, 4, 3]) / 25, rtol=1e-14)
    p = group_popularity(t, 2)
    np.testing.assert_allclose(p, [18 / 25, 7 / 25], rtol=1e-14)


def test_grouping_uniform_halves():
    t = file_popularity(CatalogConfig(n_files=4, storage=2, file_exponent=0.0))
    np.testing.assert_allclose(group_popularity(t, 2), [0.5, 0.5], rtol=1e-15)


def test_grouping_requires_divisibility():
    t = file_popularity(CatalogConfig(n_files=5, storage=2, file_exponent=1.0))
    with pytest.raises(DivisibilityError):
        group_popularity(t, 2)


def test_vr_preference_values():
    assert vr_preference(VrConfig(n_vrs=1, vr_exponent=1.0)).tolist() == [1.0]
    np.testing.assert_allclose(
        vr_preference(VrConfig(n_vrs=2, vr_exponent=1.0)), [2 / 3, 1 / 3], rtol=1e-14
    )
    # direct evaluation: q_v = v^-0.5 / sum_j j^-0.5 for V = 15
    q = vr_preference(VrConfig(n_vrs=15, vr_exponent=0.5))
    norm = sum(j ** -0.5 for j in range(1, 16))
    assert q[0] == pytest.approx(1.0 / norm, rel=1e-12)
    assert q[14] == pytest.approx(15 ** -0.5 / norm, rel=1e-12)


@pytest.mark.parametrize("n,exponent", [(1, 0.0), (10, 0.5), (500, 0.8), (37, 1.3)])
def test_normalization(n, exponent):
    t = file_popularity(CatalogConfig(n_files=n, storage=1, file_exponent=exponent))
    assert abs(t.sum() - 1.0) <= 1e-12
    assert all(b <= a for a, b in zip(t, t[1:]))


def test_zipf_ratio_identity():
    t = file_popularity(CatalogConfig(n_files=20, storage=1, file_exponent=0.9))
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.integers(1, 21, size=2)
        assert t[a - 1] / t[b - 1] == pytest.approx((b / a) ** 0.9, rel=1e-12)


def test_grouping_conserves_mass():
    for q in (1, 2, 5, 10):
        t = file_popularity(CatalogConfig(n_files=10, storage=q, file_exponent=0.8))
        assert group_popularity(t, q).sum() == pytest.approx(t.sum(), rel=1e-12)


def test_gamma_collapse_is_beta_independent():
    # sum_f p_f = 1 makes Gamma_v = q_v * zeta * K whatever beta is
    econ = EconomicConfig(
        backhaul_cost=1.0,
        local_surcharge=1.0,
        requests_per_mu=10.0,
        mu_intensity=50.0,
        sbs_intensity=10.0,
    )
    for beta in (0.0, 0.4, 0.8, 1.5):
        pops = build_popularity(
            CatalogConfig(n_files=100, storage=20, file_exponent=beta),
            VrConfig(n_vrs=5, vr_exponent=0.6),
        )
        gammas = gamma_vector(pops.q, econ)
        explicit = np.array(
            [sum(p * q * 50.0 * 10.0 for p in pops.p) for q in pops.q]
        )
        np.testing.assert_allclose(gammas, explicit, rtol=1e-12)


def test_build_popularity_non_divisible():
    catalog = CatalogConfig(n_files=10, storage=3, file_exponent=0.8)
    pops = build_popularity(catalog, VrConfig(n_vrs=2, vr_exponent=0.5))
    assert pops.p is None
    assert catalog.f_groups == pytest.approx(10 / 3)


def test_build_popularity_real_valued_storage():
    vrs = VrConfig(n_vrs=2, vr_exponent=0.5)
    assert build_popularity(CatalogConfig(n_files=10, storage=2.5), vrs).p is None
    whole = build_popularity(CatalogConfig(n_files=10, storage=5.0), vrs)
    np.testing.assert_array_equal(
        whole.p, build_popularity(CatalogConfig(n_files=10, storage=5), vrs).p
    )
    assert whole.p.size == 2


def test_config_validation():
    with pytest.raises(ValueError):
        CatalogConfig(n_files=10, storage=11)
    with pytest.raises(ValueError):
        CatalogConfig(n_files=0, storage=1)
    with pytest.raises(ValueError):
        VrConfig(n_vrs=0, vr_exponent=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_config_rejects_non_finite_or_negative_exponents(value):
    with pytest.raises(ValueError, match="vr_exponent must be finite and >= 0"):
        VrConfig(n_vrs=3, vr_exponent=value)
    with pytest.raises(ValueError, match="file_exponent must be finite and >= 0"):
        CatalogConfig(n_files=10, storage=5, file_exponent=value)


@pytest.mark.parametrize("storage", [math.nan, math.inf, 0.5])
def test_config_rejects_storage_outside_catalog(storage):
    with pytest.raises(ValueError, match="1 <= Q <= N"):
        CatalogConfig(n_files=10, storage=storage)
