"""Stackelberg pricing and SBS allocation for small-cell video caching.

Closed-form equilibrium solvers (per-retailer pricing, shared pricing,
and the water-filling sum-profit optimum) built on a stochastic-geometry
cache-hit probability, plus a Poisson-point-process Monte-Carlo
simulator that validates the closed form empirically.
"""

from .catalog import (
    CatalogConfig,
    DivisibilityError,
    PopularityVectors,
    VrConfig,
    build_popularity,
    file_popularity,
    group_popularity,
    vr_preference,
)
from .coverage import CoverageConstants, hit_probability, make_constants
from .economics import EconomicConfig, ProfitReport, gamma_vector, profit_report
from .equilibrium import (
    GameRows,
    RowOutcomes,
    VerificationFailure,
    best_response_fraction,
    nups_solve,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from .harness import EXCLUDED, ConfigError, ExperimentConfig, load_config, make_instance
from .ppp_sim import SimConfig, SimulationEstimate, sample_hppp, simulate_hit_probability
from .special import a_factor, c_factor, hyp2f1_unit_a, theta_factor

__version__ = "0.1.0"
