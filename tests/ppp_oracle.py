"""The point-based PPP trials, kept as test oracles.

``cachemarket.ppp_sim`` works on squared distances R^2 u only.  This
module builds the (n, 2) cell positions from the radii and angles,
takes |x| with ``hypot``, raises it to -alpha and divides for the SINR.

``run_trial`` consumes the simulator's draws in the same order (Poisson
count, radii, angles, binomial marked count M, then fades) and marks
the first M cells, so on a shared generator seed both trials see the
same cells, marks and fades; only the last bits of the SINR differ.
``run_trial_bernoulli`` marks each cell with its own uniform, the
independent marking that the binomial count stands for: it agrees with
the simulator in law, not per seed.
"""

from __future__ import annotations

import math

import numpy as np

from cachemarket.ppp_sim import SimConfig


def sample_hppp_points(intensity: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one HPPP realization on a disc centered at the origin.

    Returns an (n, 2) array; n is Poisson(intensity * pi * radius^2) and
    positions are i.i.d. uniform on the disc.
    """
    if intensity <= 0 or radius <= 0:
        raise ValueError("intensity and radius must be positive")
    n = rng.poisson(intensity * math.pi * radius**2)
    r = radius * np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * math.pi)
    return np.column_stack((r * np.cos(angle), r * np.sin(angle)))


def _hit(cfg: SimConfig, points: np.ndarray, marked: np.ndarray, fades: np.ndarray) -> bool:
    """SINR at the nearest marked cell (indices marked) against delta."""
    dist = np.hypot(points[:, 0], points[:, 1])
    rx_power = cfg.tx_power * fades * dist**-cfg.alpha
    serving = marked[np.argmin(dist[marked])]
    interference = rx_power.sum() - rx_power[serving]
    sinr = rx_power[serving] / (interference + cfg.noise_power)
    return bool(sinr >= cfg.delta)


def run_trial(
    cfg: SimConfig, mark_prob: float, rng: np.random.Generator
) -> bool:
    """The simulator's trial: the first M ~ Binomial(n, mark_prob) cells are marked."""
    points = sample_hppp_points(cfg.sbs_intensity, cfg.window_radius, rng)
    n = points.shape[0]
    marked = rng.binomial(n, mark_prob)
    if marked == 0:
        return False  # no cell carries the content: counts as a miss
    fades = rng.exponential(1.0, n)
    return _hit(cfg, points, np.arange(marked), fades)


def run_trial_bernoulli(
    cfg: SimConfig, mark_prob: float, rng: np.random.Generator
) -> bool:
    """Each cell marked by its own uniform, independently of the others."""
    points = sample_hppp_points(cfg.sbs_intensity, cfg.window_radius, rng)
    n = points.shape[0]
    if n == 0:
        return False
    marked = rng.random(n) < mark_prob
    fades = rng.exponential(1.0, n)
    if not marked.any():
        return False  # no cell carries the content: counts as a miss
    return _hit(cfg, points, np.flatnonzero(marked), fades)
