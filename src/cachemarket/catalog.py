"""Zipf popularity vectors for files, file groups, and retailer preference."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivisibilityError",
    "CatalogConfig",
    "VrConfig",
    "PopularityVectors",
    "zipf_vector",
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

    p is None when N/Q is not an integer; the closed forms only need the
    real-valued group count N/Q, but exact grouping is undefined.
    """

    t: np.ndarray
    p: np.ndarray | None
    q: np.ndarray


def zipf_vector(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights 1/k^exponent, k = 1..n, most popular first."""
    weights = np.arange(1, n + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def file_popularity(config: CatalogConfig) -> np.ndarray:
    """t_n = (1/n^beta) / sum_j 1/j^beta."""
    return zipf_vector(config.n_files, config.file_exponent)


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
    return zipf_vector(config.n_vrs, config.vr_exponent)


def build_popularity(catalog: CatalogConfig, vrs: VrConfig) -> PopularityVectors:
    """Assemble all popularity vectors for one scenario."""
    t = file_popularity(catalog)
    storage = catalog.storage
    if float(storage).is_integer() and catalog.n_files % int(storage) == 0:
        p = group_popularity(t, int(storage))
    else:
        p = None
    return PopularityVectors(t=t, p=p, q=vr_preference(vrs))
