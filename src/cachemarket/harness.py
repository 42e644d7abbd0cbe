"""Experiment harness: config handling, sweep runners, CSV emission.

Config files are flat ``key = value`` text with ``#`` comments; keys
mirror the usual symbols (alpha, delta, lambda, zeta, K, s_bh, N, Q,
beta, V, gamma, P, sigma2, radius, trials, seed) plus comma-separated
grids (tau_grid, q_grid, lambda_grid).  CLI flags override file values;
defaults are the standard evaluation settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CatalogConfig, VrConfig, build_popularity, zipf_rows
from .coverage import CoverageConstants, hit_probability, make_constants
from .economics import EconomicConfig, PriceVector, gamma_vector
from .equilibrium import (
    GameInstance,
    GameRows,
    VerificationFailure,
    nups_solve,
    participation_threshold_rows,
    solve_rows,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from .ppp_sim import SimConfig, simulate_hit_probability

__all__ = [
    "EXCLUDED",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "make_instance",
    "run_verify_coverage",
    "run_sweep_gamma",
    "run_sweep_storage",
    "run_per_vr",
    "run_solve",
    "format_rows",
    "COVERAGE_HEADER",
    "SWEEP_GAMMA_HEADER",
    "SWEEP_STORAGE_HEADER",
    "PER_VR_HEADER",
    "OUTCOME_HEADER",
]


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


EXCLUDED = None  # CSV price cell of a priced-out retailer (an infinite price)


_DEFAULT_TAU_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario's full parameter set."""

    alpha: float = 4.0
    delta: float = 0.01
    sbs_intensity: float = 10.0  # lambda
    mu_intensity: float = 50.0  # zeta
    requests_per_mu: float = 10.0  # K
    s_bh: float = 1.0
    s_ld: float | None = None  # defaults to s_bh
    n_files: int = 500  # N
    storage: int = 500  # Q
    beta: float = 0.8
    n_vrs: int = 15  # V
    gamma: float = 0.5
    tx_power: float = 2.0  # P
    noise_power: float = 1e-10  # sigma^2
    window_radius: float = 5.0  # km
    trials: int = 2000
    seed: int = 1
    tau_grid: tuple = _DEFAULT_TAU_GRID
    q_grid: tuple = (10, 50, 100, 500)
    lambda_grid: tuple = (10.0, 20.0, 30.0)

    @property
    def local_surcharge(self) -> float:
        return self.s_bh if self.s_ld is None else self.s_ld


_KEY_MAP = {
    "alpha": ("alpha", float),
    "delta": ("delta", float),
    "lambda": ("sbs_intensity", float),
    "zeta": ("mu_intensity", float),
    "K": ("requests_per_mu", float),
    "s_bh": ("s_bh", float),
    "s_ld": ("s_ld", float),
    "N": ("n_files", int),
    "Q": ("storage", int),
    "beta": ("beta", float),
    "V": ("n_vrs", int),
    "gamma": ("gamma", float),
    "P": ("tx_power", float),
    "sigma2": ("noise_power", float),
    "radius": ("window_radius", float),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "tau_grid": ("tau_grid", "float_list"),
    "q_grid": ("q_grid", "int_list"),
    "lambda_grid": ("lambda_grid", "float_list"),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _convert(raw: str, kind) -> object:
    if kind == "float_list":
        return tuple(_finite(x) for x in raw.split(","))
    if kind == "int_list":
        return tuple(int(x) for x in raw.split(","))
    if kind is float:
        return _finite(raw)
    return kind(raw)


def load_config(path: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat key = value config file on top of the defaults."""
    cfg = base or ExperimentConfig()
    updates = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in _KEY_MAP:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                field_name, kind = _KEY_MAP[key]
                try:
                    updates[field_name] = _convert(raw, kind)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return replace(cfg, **updates)


def _fmt(value) -> str:
    if value is EXCLUDED:
        return "EXCLUDED"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _row_format(types: tuple) -> str | None:
    """One %-format string for rows of these cell types, None if one is neither.

    '%.12g' % x equals _fmt(x) for every float and '%d' % n for every
    int, bool and numpy integer.
    """
    cells = []
    for kind in types:
        if issubclass(kind, (int, np.integer)):
            cells.append("%d")
        elif issubclass(kind, (float, np.floating)):
            cells.append("%.12g")
        else:
            return None
    return ",".join(cells)


def format_rows(header: list[str], rows: list[tuple]) -> str:
    """Render rows to CSV text with stable numeric formatting (_fmt per cell).

    Rows of numbers are formatted by one %-format string per distinct
    row of cell types; a row holding EXCLUDED or any other type goes
    cell by cell through _fmt.
    """
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = _row_format(types)
        form = formats[types]
        lines.append(",".join(map(_fmt, row)) if form is None else form % tuple(row))
    return "\n".join(lines) + "\n"


def _price_cells(prices: PriceVector) -> list:
    """One CSV cell per retailer: the posted prices, then EXCLUDED."""
    return prices.prices.tolist() + [EXCLUDED] * (len(prices) - prices.n_posted())


def _storage(q_req: float, n_files: int) -> float:
    """The storage Q the model uses for a requested Q."""
    q_eff = min(q_req, n_files)  # Q > N behaves exactly like Q = N
    if not q_eff >= 1:
        raise ConfigError(f"storage must be >= 1, got {q_req}")
    return q_eff


def make_instance(
    cfg: ExperimentConfig,
    gamma: float | None = None,
    storage: float | None = None,
    constants: CoverageConstants | None = None,
) -> GameInstance:
    """Build a consistent game instance from an experiment config.

    Given constants of the same (delta, alpha), only Lambda = C F is redone.
    """
    if cfg.n_files < 1:
        raise ConfigError(f"file count N (--N, n_files) must be >= 1, got {cfg.n_files}")
    q_eff = _storage(cfg.storage if storage is None else storage, cfg.n_files)
    catalog = CatalogConfig(n_files=cfg.n_files, storage=q_eff, file_exponent=cfg.beta)
    vrs = VrConfig(n_vrs=cfg.n_vrs, vr_exponent=gamma if gamma is not None else cfg.gamma)
    pops = build_popularity(catalog, vrs)
    econ = EconomicConfig(
        backhaul_cost=cfg.s_bh,
        local_surcharge=cfg.local_surcharge,
        requests_per_mu=cfg.requests_per_mu,
        mu_intensity=cfg.mu_intensity,
        sbs_intensity=cfg.sbs_intensity,
    )
    if constants is None:
        constants = make_constants(cfg.delta, cfg.alpha, catalog.f_groups)
    else:
        constants = replace(constants, lambda_big=constants.c * catalog.f_groups)
    return GameInstance(
        pops=pops, econ=econ, constants=constants, n_files=cfg.n_files, storage=q_eff
    )


COVERAGE_HEADER = [
    "tau",
    "F",
    "lambda",
    "trials",
    "p_hat",
    "half_width",
    "p_analytic",
    "abs_error",
]


def run_verify_coverage(cfg: ExperimentConfig) -> tuple[list[tuple], bool]:
    """Simulate the (tau, Q, lambda) grid and compare against the closed form.

    Grid points run in order; point i draws from seed cfg.seed + i.
    Returns the CSV rows and whether every point met the tolerance
    max(0.02, 3 * half-width).
    """
    points = []
    for q in cfg.q_grid:
        if q < 1:
            raise ConfigError(f"Q={q} in q_grid must be >= 1")
        if cfg.n_files % q != 0:
            raise ConfigError(f"Q={q} does not divide N={cfg.n_files}")
        f_groups = cfg.n_files // q
        for lam in cfg.lambda_grid:
            for tau in cfg.tau_grid:
                points.append((tau, f_groups, lam))

    def simulate(index, tau, f_groups, lam):
        sim_cfg = SimConfig(
            sbs_intensity=lam,
            mu_intensity=cfg.mu_intensity,
            tx_power=cfg.tx_power,
            noise_power=cfg.noise_power,
            alpha=cfg.alpha,
            delta=cfg.delta,
            window_radius=cfg.window_radius,
            trials=cfg.trials,
            seed=cfg.seed + index,
        )
        return simulate_hit_probability(sim_cfg, tau, f_groups)

    estimates = [simulate(index, *point) for index, point in enumerate(points)]

    rows = []
    all_ok = True
    for (tau, f_groups, lam), est in zip(points, estimates):
        constants = make_constants(cfg.delta, cfg.alpha, f_groups)
        analytic = hit_probability(tau, constants)
        err = abs(est.p_hat - analytic)
        if err > max(0.02, 3.0 * est.half_width_95):
            all_ok = False
        rows.append(
            (tau, f_groups, lam, est.trials, est.p_hat, est.half_width_95, analytic, err)
        )
    return rows, all_ok


SWEEP_GAMMA_HEADER = [
    "gamma",
    "q_min",
    "qp_min",
    "u_nups",
    "u_ups",
    "s_nsp_nups",
    "s_nsp_ups",
    "s_glb_nups",
    "s_glb_ups",
]


# Entries of the (points x V) arrays of one sweep block; a sweep's memory
# stays O(V).
_SWEEP_BLOCK = 1 << 16


def _block_rows(first: GameInstance, kind: str, values: list) -> GameRows:
    """first's market at every point of a sweep block, one row per point.

    kind is "storage" or "gamma": the parameter that varies along the
    rows.  A bad point raises what make_instance raises for it.
    """
    if kind == "storage":
        storage = np.array([_storage(q, first.n_files) for q in values], dtype=float)
        lam_big = first.constants.c * (first.n_files / storage)
        return replace(
            first.rows,
            gammas=np.broadcast_to(first.gammas(), (len(values), first.n_vrs)),
            storage=storage[:, None],
            constants=replace(first.constants, lambda_big=lam_big[:, None]),
        )
    exponents = np.array(values, dtype=float)
    bad = ~(np.isfinite(exponents) & (exponents >= 0))
    if bad.any():
        VrConfig(n_vrs=first.n_vrs, vr_exponent=values[int(np.argmax(bad))])  # raises
    q = zipf_rows(first.n_vrs, values)
    return replace(
        first.rows,
        gammas=gamma_vector(q, first.econ),
        thresholds=participation_threshold_rows(q, first.n_files, first.constants),
        storage=np.full((len(values), 1), first.storage, dtype=float),
        constants=replace(
            first.constants,
            lambda_big=np.full((len(values), 1), first.constants.lambda_big),
        ),
    )


def _run_sweep(cfg: ExperimentConfig, kind: str, values: list, verify: bool) -> list:
    """Solve every point of a sweep; one tuple per point.

    Each tuple is (q_min, qp_min, u_nups, u_ups, s_nsp_nups, s_nsp_ups,
    s_glb_nups, s_glb_ups).  The points are solved together, in blocks
    of at most _SWEEP_BLOCK entries.  When a check fails anywhere in a
    block, its points are solved again as one-point blocks, in order, so
    the first failing point raises its own error.
    """
    if not values:
        return []
    first = make_instance(cfg, **{kind: values[0]})

    def block_points(block, rows, solved) -> list:
        """The tuples of a solved block; each point is verified first if asked."""
        if verify:
            for i, value in enumerate(block):
                instance = make_instance(cfg, constants=first.constants, **{kind: value})
                for outcomes in solved:
                    verify_equilibrium(outcomes.outcome(i), instance)
        nups, ups = solved
        return list(
            zip(
                np.broadcast_to(rows.thresholds.u_values[:, -1], len(block)).tolist(),
                np.broadcast_to(rows.thresholds.u_bar_values[:, -1], len(block)).tolist(),
                nups.n_participants.tolist(),
                ups.n_participants.tolist(),
                nups.report.nsp_total.tolist(),
                ups.report.nsp_total.tolist(),
                nups.report.global_total.tolist(),
                ups.report.global_total.tolist(),
            )
        )

    size = max(1, _SWEEP_BLOCK // first.n_vrs)
    points = []
    for lo in range(0, len(values), size):
        block = values[lo : lo + size]
        try:
            # a floating-point error sends the block down the one-point path
            # too, which warns exactly as the point would on its own
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                rows = _block_rows(first, kind, block)
                solved = solve_rows("NUPS", rows), solve_rows("UPS", rows)
        except (ValueError, ArithmeticError, VerificationFailure):
            for value in block:
                rows = _block_rows(first, kind, [value])
                solved = solve_rows("NUPS", rows), solve_rows("UPS", rows)
                points += block_points([value], rows, solved)
            continue
        points += block_points(block, rows, solved)
    return points


def run_sweep_gamma(
    cfg: ExperimentConfig,
    gammas: list[float],
    verify: bool = False,
) -> list[tuple]:
    """Sweep the retailer preference exponent at fixed storage."""
    return [(g, *point) for g, point in zip(gammas, _run_sweep(cfg, "gamma", gammas, verify))]


SWEEP_STORAGE_HEADER = [
    "storage",
    "u_nups",
    "u_ups",
    "s_nsp_nups",
    "s_nsp_ups",
    "s_glb_nups",
    "s_glb_ups",
]


def run_sweep_storage(
    cfg: ExperimentConfig,
    storages: list[float],
    verify: bool = False,
) -> list[tuple]:
    """Sweep the per-SBS storage size at fixed preference exponent."""
    points = _run_sweep(cfg, "storage", storages, verify)
    return [(q, *point[2:]) for q, point in zip(storages, points)]


PER_VR_HEADER = [
    "vr",
    "nups_price",
    "ups_price",
    "nups_fraction",
    "ups_fraction",
]


def run_per_vr(cfg: ExperimentConfig, verify: bool = False) -> list[tuple]:
    """Per-retailer prices and fractions under both pricing schemes."""
    instance = make_instance(cfg)
    nups = solve_rows("NUPS", instance.rows).outcome(0)
    ups = solve_rows("UPS", instance.rows).outcome(0)
    if verify:
        verify_equilibrium(nups, instance)
        verify_equilibrium(ups, instance)
    return list(
        zip(
            range(1, cfg.n_vrs + 1),
            _price_cells(nups.prices),
            _price_cells(ups.prices),
            nups.fractions.fractions.tolist(),
            ups.fractions.fractions.tolist(),
        )
    )


OUTCOME_HEADER = [
    "vr",
    "price",
    "fraction",
    "surcharge",
    "rent",
    "profit",
]


def run_solve(
    cfg: ExperimentConfig, scheme: str, verify: bool = True
) -> tuple[list[tuple], list[str]]:
    """Solve one instance; returns per-retailer rows plus summary lines."""
    instance = make_instance(cfg)
    scheme = scheme.upper()
    if scheme in ("NUPS", "UPS"):
        outcome = (nups_solve if scheme == "NUPS" else ups_solve)(instance)
    elif scheme == "WATERFILL":
        outcome = waterfill_solve(instance)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if verify:
        verify_equilibrium(outcome, instance)
    rep = outcome.report
    rows = list(
        zip(
            range(1, cfg.n_vrs + 1),
            _price_cells(outcome.prices),
            outcome.fractions.fractions.tolist(),
            rep.vr_surcharge.tolist(),
            rep.vr_rent.tolist(),
            rep.vr_profits.tolist(),
        )
    )
    summary = [
        "scheme,participants,s_rt,s_bh,s_nsp,s_glb",
        ",".join(
            [
                outcome.scheme,
                str(outcome.n_participants),
                _fmt(rep.nsp_leasing),
                _fmt(rep.nsp_backhaul_saving),
                _fmt(rep.nsp_total),
                _fmt(rep.global_total),
            ]
        ),
    ]
    return rows, summary


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid with float-robust endpoint handling.

    Each point is rounded to 12 decimals; a step so small that two
    rounded points are equal is a config error, raised at the first
    repeat.
    """
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"empty sweep range [{start}, {stop}]")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ConfigError(f"step {step} does not split [{start}, {stop}] into a finite grid")
    count = int(math.floor(span + 1e-9)) + 1
    values = []
    for i in range(count):
        value = round(start + i * step, 12)
        if values and value == values[-1]:
            raise ConfigError(
                f"step {step} is too small: sweep points {i - 1} and {i} both round to {value}"
            )
        values.append(value)
    return values
