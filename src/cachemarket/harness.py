"""Experiment harness: config handling, sweep runners, CSV emission.

Config files are flat ``key = value`` text with ``#`` comments; keys
mirror the usual symbols (alpha, delta, lambda, zeta, K, s_bh, N, Q,
beta, V, gamma, P, sigma2, radius, trials, seed) plus comma-separated
grids (tau_grid, q_grid, lambda_grid).  CLI flags override file values;
defaults are the standard evaluation settings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CatalogConfig, VrConfig, build_popularity, zipf_rows
from .coverage import hit_probability, make_constants
from .economics import EconomicConfig
from .equilibrium import (
    GameRows,
    RowOutcomes,
    VerificationFailure,
    nups_solve,
    solve_rows,
    ups_solve,
    verify_equilibrium,
    waterfill_solve,
)
from .ppp_sim import (
    SimConfig,
    SimulationEstimate,
    check_point,
    simulate_hit_probability,
)

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


def _row_format(types: tuple) -> str:
    """One %-format string for rows of these cell types.

    Ints, Python bools and numpy integers are spelled '%d', EXCLUDED
    '%.0sEXCLUDED' ('%.0s' consumes the value and prints nothing), and
    every other cell, numpy bools and floats included, '%.12g'.  A cell
    that '%.12g' cannot spell raises %'s own TypeError.
    """
    return ",".join(
        "%d" if issubclass(kind, (int, np.integer))
        else "%.0sEXCLUDED" if kind is type(EXCLUDED)
        else "%.12g"
        for kind in types
    )  # fmt: skip


def format_rows(header: list[str], rows: list[tuple]) -> str:
    """Render rows to CSV text with stable numeric formatting.

    Each row is spelled by the %-format string of its cell types
    (_row_format), built again where they differ from the row before.
    """
    lines = [",".join(header)]
    last = form = None
    for row in rows:
        types = tuple(map(type, row))
        if types != last:
            last, form = types, _row_format(types)
        lines.append(form % tuple(row))
    return "\n".join(lines) + "\n"


def _price_cells(outcome: RowOutcomes) -> list:
    """One CSV cell per retailer of the one-row outcome: the posted prices, then EXCLUDED.

    Water-filling posts no prices; each of its cells is 0.
    """
    cells = outcome.prices[0].tolist()
    if outcome.scheme != "WATERFILL":
        u = int(outcome.n_participants[0])
        cells[u:] = [EXCLUDED] * (len(cells) - u)
    return cells


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
) -> GameRows:
    """Build the config's market, as the one row of a GameRows."""
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
    constants = make_constants(cfg.delta, cfg.alpha, catalog.f_groups)
    return GameRows(
        q=pops.q[None, :],
        n_files=cfg.n_files,
        storage=np.array([[q_eff]], dtype=float),
        econ=econ,
        constants=constants.with_lambda_big(np.array([[constants.lambda_big]])),
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


# Grid work (points x trials) from which verify-coverage simulates on a
# process pool.  Starting and joining a fork pool of two workers costs
# 4.7 ms (median; at most 5.3 ms) on a 2-core machine under Python 3.11,
# about 1.3 ms more per further worker, and handing a point over 0.06 ms.
# The cheapest trial takes 19 us, so this much work runs at least 190 ms
# serially and the pool's start and join stay under 3 % of it.
_POOL_MIN_TRIALS = 10_000


def _simulate_point(sim_cfg: SimConfig, point: tuple) -> SimulationEstimate:
    # Module-level, so the pool can pickle it; it looks the simulator up
    # by name, so a wrapper set on this module runs in the workers too.
    tau, f_groups, _ = point
    return simulate_hit_probability(sim_cfg, tau, f_groups)


def _pool_workers(points: int, trials: int) -> int:
    """Processes to simulate the grid on; 1 means this process alone."""
    if points * trials < _POOL_MIN_TRIALS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: fork may be missing or unsafe
        return 1
    import multiprocessing
    import threading

    if multiprocessing.current_process().daemon:
        return 1  # a daemonic process may not start children
    if threading.active_count() > 1:
        return 1  # a lock another thread holds would stay held in the children
    return min(cpus, points)


def _simulate_grid(sim_cfgs: list, points: list, trials: int) -> list:
    """Every point's estimate, in grid order, on a fork pool when it pays."""
    workers = _pool_workers(len(points), trials)
    if workers == 1:
        return list(map(_simulate_point, sim_cfgs, points))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_simulate_point, sim_cfgs, points))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_verify_coverage(cfg: ExperimentConfig) -> tuple[list[tuple], bool]:
    """Simulate the (tau, Q, lambda) grid and compare against the closed form.

    Point i draws from seed cfg.seed + i.  Every point is checked, and
    its closed form computed, before any trial is drawn.  When the grid
    holds at least _POOL_MIN_TRIALS trials (points x trials), this
    process may run on more than one CPU and may fork (it runs no other
    thread and is not a daemonic worker), the points are simulated on a
    fork process pool, one worker per CPU and at most one per point;
    otherwise in order, in this process.  Each point owns its random
    stream, so the rows are the same bytes either way.  Returns the CSV
    rows and whether every point met the tolerance max(0.02, 3 * half-width).
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

    sim_cfgs = []
    for index, (tau, f_groups, lam) in enumerate(points):
        sim_cfgs.append(
            SimConfig(
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
        )
        check_point(tau, f_groups)
    analytics = [
        hit_probability(tau, make_constants(cfg.delta, cfg.alpha, f_groups))
        for tau, f_groups, _ in points
    ]
    estimates = _simulate_grid(sim_cfgs, points, cfg.trials)

    rows = []
    all_ok = True
    for (tau, f_groups, lam), analytic, est in zip(points, analytics, estimates):
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


def _block_rows(first: GameRows, kind: str, values: list) -> GameRows:
    """The one-row market first at every point of a sweep block, one row per point.

    kind is "storage" or "gamma": the parameter that varies along the
    rows.  A storage block keeps first's q as one broadcast row.  The
    first bad point raises what make_instance raises for it.
    """
    n_points, n_vrs = len(values), first.shape[1]
    if kind == "storage":
        storage = np.minimum(np.array(values, dtype=float), first.n_files)
        bad = ~(storage >= 1)
        if bad.any():
            _storage(values[int(np.argmax(bad))], first.n_files)  # raises
        q = np.broadcast_to(first.q, (n_points, n_vrs))
        lam_big = first.constants.c * (first.n_files / storage)
    else:
        exponents = np.array(values, dtype=float)
        bad = ~(np.isfinite(exponents) & (exponents >= 0))
        if bad.any():
            VrConfig(n_vrs=n_vrs, vr_exponent=values[int(np.argmax(bad))])  # raises
        q = zipf_rows(n_vrs, exponents)
        storage = np.full(n_points, first.storage[0, 0])
        lam_big = np.full(n_points, first.constants.lambda_big[0, 0])
    return replace(
        first,
        q=q,
        storage=storage[:, None],
        constants=first.constants.with_lambda_big(lam_big[:, None]),
    )


def _run_sweep(cfg: ExperimentConfig, kind: str, values: list, verify: bool) -> list:
    """The CSV rows of a sweep, one tuple per point, starting with its value.

    A gamma row is (gamma, q_min, qp_min, u_nups, u_ups, s_nsp_nups,
    s_nsp_ups, s_glb_nups, s_glb_ups); a storage row is the same without
    q_min and qp_min.  The points are solved together, in blocks of at
    most _SWEEP_BLOCK entries, NUPS and UPS in one solve_rows pass per
    block.  When a check fails anywhere in a block, its points are solved
    again as one-point blocks, in order and one scheme per call, so the
    first failing point raises its own error.
    """
    if not values:
        return []
    first = make_instance(cfg, **{kind: values[0]})
    columns = [[] for _ in range(8 if kind == "gamma" else 6)]

    def add(rows: GameRows, solved: tuple) -> None:
        """Append a solved block's cells; each point is verified first if asked."""
        if verify:
            for i in range(rows.shape[0]):
                for outcomes in solved:
                    verify_equilibrium(outcomes, rows, i)
        nups, ups = solved
        cells = [
            nups.n_participants,
            ups.n_participants,
            nups.report.nsp_total,
            ups.report.nsp_total,
            nups.report.global_total,
            ups.report.global_total,
        ]
        if kind == "gamma":
            cells[:0] = rows.brackets("NUPS")[:, -1], rows.brackets("UPS")[:, -1]
        for column, cell in zip(columns, cells):
            column += cell.tolist()

    size = max(1, _SWEEP_BLOCK // first.shape[1])
    for lo in range(0, len(values), size):
        block = values[lo : lo + size]
        try:
            # a floating-point error sends the block down the one-point path
            # too, which warns exactly as the point would on its own
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                rows = _block_rows(first, kind, block)
                solved = solve_rows(("NUPS", "UPS"), rows)
        except (ValueError, ArithmeticError, VerificationFailure):
            for value in block:
                rows = _block_rows(first, kind, [value])
                add(rows, (solve_rows("NUPS", rows), solve_rows("UPS", rows)))
            continue
        add(rows, solved)
    return list(zip(values, *columns))


def run_sweep_gamma(
    cfg: ExperimentConfig,
    gammas: list[float],
    verify: bool = False,
) -> list[tuple]:
    """Sweep the retailer preference exponent at fixed storage."""
    return _run_sweep(cfg, "gamma", gammas, verify)


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
    return _run_sweep(cfg, "storage", storages, verify)


PER_VR_HEADER = [
    "vr",
    "nups_price",
    "ups_price",
    "nups_fraction",
    "ups_fraction",
]


def run_per_vr(cfg: ExperimentConfig, verify: bool = False) -> list[tuple]:
    """Per-retailer prices and fractions under both pricing schemes."""
    rows = make_instance(cfg)
    nups = solve_rows("NUPS", rows)
    ups = solve_rows("UPS", rows)
    if verify:
        verify_equilibrium(nups, rows)
        verify_equilibrium(ups, rows)
    return list(
        zip(
            range(1, cfg.n_vrs + 1),
            _price_cells(nups),
            _price_cells(ups),
            nups.fractions[0].tolist(),
            ups.fractions[0].tolist(),
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
    market = make_instance(cfg)
    scheme = scheme.upper()
    if scheme in ("NUPS", "UPS"):
        outcome = (nups_solve if scheme == "NUPS" else ups_solve)(market)
    elif scheme == "WATERFILL":
        outcome = waterfill_solve(market)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if verify:
        verify_equilibrium(outcome, market)
    rep = outcome.report
    rows = list(
        zip(
            range(1, cfg.n_vrs + 1),
            _price_cells(outcome),
            outcome.fractions[0].tolist(),
            rep.vr_surcharge[0].tolist(),
            rep.vr_rent[0].tolist(),
            rep.vr_profits[0].tolist(),
        )
    )
    totals = [rep.nsp_leasing, rep.nsp_backhaul_saving, rep.nsp_total, rep.global_total]
    cells = (outcome.scheme, outcome.n_participants[0], *(t[0] for t in totals))
    header = "scheme,participants,s_rt,s_bh,s_nsp,s_glb"
    return rows, [header, "%s,%d,%.12g,%.12g,%.12g,%.12g" % cells]


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
