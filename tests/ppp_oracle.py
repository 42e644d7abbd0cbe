"""The point-based PPP trial, kept as a test oracle.

``cachemarket.ppp_sim`` works on squared distances R^2 u only.  This
module is the trial it replaced: it builds the (n, 2) cell positions
from the radii and angles, takes |x| with ``hypot`` and raises it to
-alpha.  It consumes the same draws in the same order, so on a shared
generator seed both trials see the same cells, marks and fades; only
the last bits of the SINR differ.
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


def run_trial(
    cfg: SimConfig, mark_prob: float, rng: np.random.Generator
) -> bool:
    points = sample_hppp_points(cfg.sbs_intensity, cfg.window_radius, rng)
    n = points.shape[0]
    if n == 0:
        return False
    marked = rng.random(n) < mark_prob
    fades = rng.exponential(1.0, n)
    if not marked.any():
        return False  # no cell carries the content: counts as a miss
    dist = np.hypot(points[:, 0], points[:, 1])
    rx_power = cfg.tx_power * fades * dist**-cfg.alpha
    marked_idx = np.flatnonzero(marked)
    serving = marked_idx[np.argmin(dist[marked_idx])]
    interference = rx_power.sum() - rx_power[serving]
    sinr = rx_power[serving] / (interference + cfg.noise_power)
    return bool(sinr >= cfg.delta)
