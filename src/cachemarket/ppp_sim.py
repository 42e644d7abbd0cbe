"""Monte-Carlo oracle for the closed-form hit probability.

Small cells are drawn from a homogeneous Poisson point process on a
finite disc with the typical user at the origin.  Each cell is
independently marked as carrying the requested retailer/file-group
combination with probability tau/F; the user connects to the nearest
marked cell and the download succeeds when its SINR clears the
threshold, with interference from every other cell (marked or not).

The PPP is isotropic, so the SINR at the typical user depends only on
the cell distances |x| (Andrews, Baccelli & Ganti, IEEE TCOM 2011).  A
trial therefore works on squared distances R^2 u alone: path loss is
(R^2 u)^(-alpha/2) and the nearest marked cell is the smallest R^2 u.

Each trial consumes its own child of a numpy SeedSequence, so results
are bit-identical regardless of how trials are scheduled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["SimConfig", "SimulationEstimate", "sample_hppp", "simulate_hit_probability"]

# Expected SBS count the window must hold for truncation error to stay
# negligible against the grid tolerance.
_MIN_EXPECTED_COUNT = 100.0


@dataclass(frozen=True)
class SimConfig:
    """Physical and sampling parameters for the coverage simulator."""

    sbs_intensity: float  # lambda, cells per km^2
    mu_intensity: float  # zeta, users per km^2 (profit scaling only)
    tx_power: float  # P, watts
    noise_power: float  # sigma^2, watts
    alpha: float
    delta: float
    window_radius: float  # km
    trials: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("sbs_intensity", "mu_intensity", "tx_power", "window_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError(f"noise_power must be finite and >= 0, got {self.noise_power}")
        if not (math.isfinite(self.alpha) and self.alpha > 2.0):
            raise ValueError(f"alpha must be finite and exceed 2, got {self.alpha}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        expected = self.sbs_intensity * math.pi * self.window_radius**2
        if expected < _MIN_EXPECTED_COUNT:
            raise ValueError(
                f"window too small: expected SBS count {expected:.1f} < "
                f"{_MIN_EXPECTED_COUNT:.0f}; enlarge window_radius"
            )


@dataclass(frozen=True)
class SimulationEstimate:
    """Empirical hit probability with a 95% confidence half-width."""

    p_hat: float
    trials: int
    half_width_95: float


def sample_hppp(intensity: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one HPPP realization on a disc centered at the origin.

    Returns the (n,) array of squared distances radius^2 * u of the
    points from the origin; n is Poisson(intensity * pi * radius^2) and
    u is uniform on [0, 1), so the points are i.i.d. uniform on the disc.
    The point angles are drawn after the radii and left unused: the
    SINR does not depend on them, but drawing them keeps each trial's
    random stream that of a sampler returning (n, 2) positions.
    """
    if intensity <= 0 or radius <= 0:
        raise ValueError("intensity and radius must be positive")
    n = rng.poisson(intensity * math.pi * radius**2)
    radii_angles = rng.random((2, n))
    return radius**2 * radii_angles[0]


def _run_trial(
    cfg: SimConfig, mark_prob: float, rng: np.random.Generator
) -> bool:
    dist2 = sample_hppp(cfg.sbs_intensity, cfg.window_radius, rng)
    marked_idx = np.flatnonzero(rng.random(dist2.size) < mark_prob)
    if marked_idx.size == 0:
        return False  # no cell carries the content: counts as a miss
    fades = rng.exponential(1.0, dist2.size)
    rx_power = cfg.tx_power * fades * dist2 ** (-0.5 * cfg.alpha)
    serving = marked_idx[np.argmin(dist2[marked_idx])]
    interference = rx_power.sum() - rx_power[serving]
    sinr = rx_power[serving] / (interference + cfg.noise_power)
    return bool(sinr >= cfg.delta)


def simulate_hit_probability(
    cfg: SimConfig, tau_v: float, f_groups: int
) -> SimulationEstimate:
    """Estimate the hit probability for rental fraction tau_v and F groups."""
    if not 0.0 <= tau_v <= 1.0:
        raise ValueError(f"tau_v must lie in [0, 1], got {tau_v}")
    if f_groups < 1 or int(f_groups) != f_groups:
        raise ValueError(f"f_groups must be a positive integer, got {f_groups}")
    mark_prob = tau_v / f_groups
    hits = 0
    if tau_v > 0.0:
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
        for child in children:
            if _run_trial(cfg, mark_prob, np.random.default_rng(child)):
                hits += 1
    p_hat = hits / cfg.trials
    half_width = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return SimulationEstimate(p_hat=p_hat, trials=cfg.trials, half_width_95=half_width)
