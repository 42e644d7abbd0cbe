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

Marking is independent thinning.  Given the count n, the cells are
i.i.d. and the marks are i.i.d. Bernoulli(tau/F), independent of the
positions and the fades, so the joint law is invariant under permuting
the cells.  A trial therefore draws the number of marked cells
M ~ Binomial(n, tau/F) and takes the first M cells in draw order as the
marked ones: the same law as n independent marks, from one draw.

Each trial consumes its own child of a numpy SeedSequence, so results
are bit-identical regardless of how trials are scheduled.  RNG scheme
``per-trial-spawn-v2``: SeedSequence(seed).spawn(trials), one
default_rng per child, drawing the Poisson count, the radii, the
(skipped) angles, the binomial M, then the n fades.  It replaced
``per-trial-spawn-v1``, which drew one mark uniform per cell in place of
M; the per-trial children are the same, but a given seed's outcomes
are not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfig",
    "SimulationEstimate",
    "check_point",
    "sample_hppp",
    "simulate_hit_probability",
]

# Expected SBS count the window must hold for truncation error to stay
# negligible against the grid tolerance.
_MIN_EXPECTED_COUNT = 100.0
# The largest Poisson mean numpy's Generator.poisson accepts ("lam value
# too large" above it).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


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
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        try:
            expected = self.sbs_intensity * math.pi * self.window_radius**2
        except OverflowError:  # R^2 alone leaves the float range
            expected = math.inf
        if not math.isfinite(expected):
            raise ValueError(
                f"expected SBS count lambda * pi * R^2 = {expected} is not finite "
                f"(lambda = {self.sbs_intensity}, R = {self.window_radius})"
            )
        if expected > _POISSON_LAM_MAX:
            raise ValueError(
                f"expected SBS count lambda * pi * R^2 = {expected:.3g} exceeds numpy's "
                f"Poisson limit, {_POISSON_LAM_MAX:.3g} "
                f"(lambda = {self.sbs_intensity}, R = {self.window_radius})"
            )
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
    The SINR does not depend on the point angles, so the n uniform draws
    that would give them are skipped (bit_generator.advance) rather than
    drawn: each trial's random stream stays that of a sampler returning
    (n, 2) positions.
    """
    if intensity <= 0 or radius <= 0:
        raise ValueError("intensity and radius must be positive")
    n = rng.poisson(intensity * math.pi * radius**2)
    radii = rng.random(n)
    rng.bit_generator.advance(n)  # one 64-bit draw per angle
    return radius**2 * radii


def _run_trial(
    cfg: SimConfig, mark_prob: float, rng: np.random.Generator
) -> bool:
    dist2 = sample_hppp(cfg.sbs_intensity, cfg.window_radius, rng)
    marked = rng.binomial(dist2.size, mark_prob)
    if marked == 0:
        return False  # no cell carries the content: counts as a miss
    serving = dist2[:marked].argmin()  # the first M cells are the marked ones
    gain = rng.standard_exponential(dist2.size)
    gain *= dist2 ** (-0.5 * cfg.alpha)
    signal = gain[serving]
    # SINR >= delta without dividing: a lone cell at zero noise is a hit
    return bool(
        cfg.tx_power * signal
        >= cfg.delta * (cfg.tx_power * (gain.sum() - signal) + cfg.noise_power)
    )


def check_point(tau_v: float, f_groups: int) -> None:
    """Raise ValueError unless tau_v lies in [0, 1] and f_groups is a positive integer."""
    if not 0.0 <= tau_v <= 1.0:
        raise ValueError(f"tau_v must lie in [0, 1], got {tau_v}")
    finite = isinstance(f_groups, numbers.Integral) or math.isfinite(f_groups)
    if not (finite and f_groups >= 1 and int(f_groups) == f_groups):
        raise ValueError(f"f_groups must be a positive integer, got {f_groups}")


def simulate_hit_probability(
    cfg: SimConfig, tau_v: float, f_groups: int
) -> SimulationEstimate:
    """Estimate the hit probability for rental fraction tau_v and F groups.

    Each of cfg.trials trials draws one PPP from its own SeedSequence
    child, marks its first M ~ Binomial(n, tau_v / F) cells and counts
    a hit when the nearest marked cell's SINR reaches delta; a trial
    with no marked cell is a miss.  tau_v = 0 draws nothing.  Returns
    the hit rate with its Wald 95% half-width.
    """
    check_point(tau_v, f_groups)
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
