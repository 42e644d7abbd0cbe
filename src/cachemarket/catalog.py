"""Zipf popularity vectors for files, file groups, and retailer preference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DivisibilityError",
    "CatalogConfig",
    "VrConfig",
    "PopularityVectors",
    "zipf_rows",
    "file_popularity",
    "group_popularity",
    "vr_preference",
    "build_popularity",
]

DEFAULT_FILE_EXPONENT = 0.8


class DivisibilityError(ValueError):
    """Raised when exact file grouping needs Q to divide N and it does not."""


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CatalogConfig:
    """Video catalog: N files, per-SBS storage of Q files, Zipf exponent beta."""

    n_files: int
    storage: float  # real-valued for analytic sweeps, with no exact grouping
    file_exponent: float = DEFAULT_FILE_EXPONENT

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ValueError(f"n_files must be >= 1, got {self.n_files}")
        if not 1 <= self.storage <= self.n_files:
            raise ValueError(
                f"storage must satisfy 1 <= Q <= N, got Q={self.storage}, N={self.n_files}"
            )
        _require_finite_nonnegative("file_exponent", self.file_exponent)

    @property
    def f_groups(self) -> float:
        """Number of file groups F = N / Q; real-valued for analytic sweeps."""
        return self.n_files / self.storage


@dataclass(frozen=True)
class VrConfig:
    """V video retailers with Zipf preference exponent gamma."""

    n_vrs: int
    vr_exponent: float

    def __post_init__(self) -> None:
        if self.n_vrs < 1:
            raise ValueError(f"n_vrs must be >= 1, got {self.n_vrs}")
        _require_finite_nonnegative("vr_exponent", self.vr_exponent)


@dataclass(frozen=True)
class PopularityVectors:
    """Normalized popularity vectors t (files), p (groups), q (retailers).

    t (N long) and p (N/Q long) are formed on first read: the closed
    forms only need q and the real-valued group count N/Q.  p is None
    when N/Q is not an integer, where exact grouping is undefined.
    """

    catalog: CatalogConfig
    q: np.ndarray

    @cached_property
    def t(self) -> np.ndarray:
        return file_popularity(self.catalog)

    @cached_property
    def p(self) -> np.ndarray | None:
        storage = self.catalog.storage
        if float(storage).is_integer() and self.catalog.n_files % int(storage) == 0:
            return group_popularity(self.t, int(storage))
        return None


def zipf_rows(n: int, exponents) -> np.ndarray:
    """Normalized Zipf weights 1/k^e, k = 1..n, most popular first, one row per e >= 0.

    Each row is bit for bit ranks ** -e / (ranks ** -e).sum(), its
    weights formed on their own.
    """
    ranks = np.arange(1, n + 1, dtype=float)
    exponents = np.asarray(exponents, dtype=float)
    weights = ranks ** -exponents[:, None]
    # ndarray ** -1.0 is 1 / ranks, correctly rounded; the broadcast column's
    # power is an ulp off for some k, so rows with e = 1 divide too.  At
    # e = 0 every power is 1 exactly.
    for i, exponent in enumerate(exponents.tolist()):
        if exponent == 1:
            weights[i] = 1 / ranks
    return weights / weights.sum(axis=1, keepdims=True)


def file_popularity(config: CatalogConfig) -> np.ndarray:
    """t_n = (1/n^beta) / sum_j 1/j^beta."""
    return zipf_rows(config.n_files, [config.file_exponent])[0]


def group_popularity(t: np.ndarray, storage: int) -> np.ndarray:
    """Group file popularities into blocks of Q consecutive files.

    p_f = sum of t_n over n in ((f-1)Q, fQ].  Requires Q | N.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    if storage < 1 or n % storage != 0:
        raise DivisibilityError(
            f"exact grouping needs Q to divide N, got N={n}, Q={storage}"
        )
    return t.reshape(n // storage, storage).sum(axis=1)


def vr_preference(config: VrConfig) -> np.ndarray:
    """q_v = (1/v^gamma) / sum_j 1/j^gamma."""
    return zipf_rows(config.n_vrs, [config.vr_exponent])[0]


def build_popularity(catalog: CatalogConfig, vrs: VrConfig) -> PopularityVectors:
    """Assemble all popularity vectors for one scenario."""
    return PopularityVectors(catalog, vr_preference(vrs))
