"""Operations of each workload, generated from the seed.

An operation ("op") is one ``cachemarket`` CLI invocation.  Ops come in
rounds: a run always executes whole rounds, and round ``r`` of a
workload depends only on ``(seed, r)``, so the same seed gives the same
inputs however long a run lasts.

Parameters are drawn by stratified sampling: in a round of K markets each
parameter's range is cut into K equal strata and every stratum is used
once, in an order drawn from the seed.  That keeps the cost of a round
nearly independent of the seed, which is what keeps the spread of the
timings between seeds small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("coverage", "sweep", "verify")

# Market parameters passed explicitly on every command line, so the
# checks do not depend on the program's defaults.
N_FILES = 500
ZETA = 50.0
K_REQUESTS = 10.0
S_BH = 1.0

# coverage: the default acceptance grid of verify-coverage.
COVERAGE_Q = (10, 50, 100, 500)
COVERAGE_LAMBDA = (10.0, 20.0, 30.0)
COVERAGE_TAU = tuple(round(0.1 * i, 1) for i in range(1, 11))
COVERAGE_ALPHA = 4.0
COVERAGE_DELTA = 0.01
# The program's tolerance max(0.02, 3 * half-width) uses the Wald
# half-width, which shrinks to 0 as p_hat nears 0 or 1.  At 1000 trials
# the chance that a correct simulator still misses it is about 1e-5 per
# grid point; at 500 trials it is 7e-4 (F = 1, tau = 0.9).
COVERAGE_TRIALS = 1000
# One thread: with two, the GIL hand-offs between the threads make the op
# time track how much of the second core the host grants.  Between two
# sets of runs 25 minutes apart, --jobs 2 throughput fell 25 % while
# single-threaded workloads moved at most 10 %.  The pool is timed apart
# (harness.pool_speedup in the traced run).
COVERAGE_JOBS = 1

# sweep / verify market ranges.
ALPHA_RANGE = (2.2, 6.0)
LOG10_DELTA_RANGE = (-3.0, 2.0)
# Left out: on (0.99, 1) the alternating 2F1 series needs more terms than
# anywhere else in the range (39 / (1 - delta)); it gives up with
# ArithmeticError above 1 - 7.8e-5.
DELTA_GAP = (0.99, 1.0)
# Left out: Theta = A - C + 1 cancels as delta grows, Theta ~ 2 / ((alpha + 2)
# delta), and its condition number kappa = (|A| + |C| + 1) / |Theta| grows
# like (alpha + 2) (2 pi / alpha) / sin(2 pi / alpha) delta^(1 + 2/alpha).
# Near kappa = 1e5 rounding pushes a lone NUPS retailer's fraction past
# 1 + 1e-9 and solve raises ArithmeticError; delta stops at KAPPA_MAX.
KAPPA_MAX = 1e4
BETA_RANGE = (0.3, 1.5)
GAMMA_RANGE = (0.0, 2.0)
SMALL_V_RANGE = (2, 30)
LARGE_V_RANGE = (100, 120)
STORAGE_RANGE = (10, N_FILES)

SWEEP_MARKETS = 6  # per round; each gives one storage and one gamma sweep
STORAGE_SWEEP = (10.0, 500.0, 10.0)  # 50 points
GAMMA_SWEEP = (0.05, 2.5, 0.05)  # 50 points
VERIFY_SMALL_MARKETS = 8  # per round, plus one large market
LARGE_V_STRATA = 4
SCHEMES = ("nups", "ups", "waterfill")
LARGE_MARKET = {"alpha": 4.0, "delta": 0.01, "beta": 0.8, "gamma": 0.5, "Q": N_FILES}

_TAGS = {name: i for i, name in enumerate(WORKLOADS, start=1)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its checks need to know."""

    kind: str  # verify-coverage | sweep-storage | sweep-gamma | solve
    argv: tuple
    params: dict = field(hash=False)
    group: int = 0  # ops of one market share a group (verify)


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], *extra])


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points in [0, 1), one in each stratum [i/k, (i+1)/k), shuffled."""
    return (rng.permutation(k) + rng.random(k)) / k


def _span(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + u * (hi - lo)


def _int_span(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Integers in [lo, hi], one stratum each."""
    return np.minimum(lo + np.floor(u * (hi - lo + 1)), hi).astype(int)


def log10_delta_max(alpha: np.ndarray) -> np.ndarray:
    """Largest log10(delta) in range whose kappa stays below KAPPA_MAX."""
    two = 2.0 / alpha
    prefactor = (alpha + 2.0) * (np.pi * two) / np.sin(np.pi * two)
    return np.minimum(LOG10_DELTA_RANGE[1], np.log10(KAPPA_MAX / prefactor) / (1.0 + two))


def _deltas(u: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Log-uniform SINR thresholds from 1e-3 to log10_delta_max, without DELTA_GAP."""
    lo = LOG10_DELTA_RANGE[0]
    gap_lo, gap_hi = np.log10(DELTA_GAP[0]), np.log10(DELTA_GAP[1])
    x = _span(u, lo, log10_delta_max(alpha) - (gap_hi - gap_lo))
    return 10.0 ** np.where(x < gap_lo, x, x + (gap_hi - gap_lo))


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _market_argv(m: dict) -> list:
    argv = []
    for flag, key in (
        ("--alpha", "alpha"),
        ("--delta", "delta"),
        ("--beta", "beta"),
        ("--V", "V"),
        ("--N", "N"),
        ("--zeta", "zeta"),
        ("--K", "K"),
        ("--s-bh", "s_bh"),
        ("--s-ld", "s_ld"),
    ):
        argv += [flag, _fmt(m[key])]
    return argv


def _markets(rng: np.random.Generator, k: int, v_values: np.ndarray) -> list:
    alphas = _span(_strata(rng, k), *ALPHA_RANGE)
    deltas = _deltas(_strata(rng, k), alphas)
    betas = _span(_strata(rng, k), *BETA_RANGE)
    gammas = _span(_strata(rng, k), *GAMMA_RANGE)
    storages = _int_span(_strata(rng, k), *STORAGE_RANGE)
    return [
        {
            "alpha": float(alphas[i]),
            "delta": float(deltas[i]),
            "beta": float(betas[i]),
            "gamma": float(gammas[i]),
            "Q": int(storages[i]),
            "V": int(v_values[i]),
            "N": N_FILES,
            "zeta": ZETA,
            "K": K_REQUESTS,
            "s_bh": S_BH,
            "s_ld": S_BH,
        }
        for i in range(k)
    ]


def coverage_config(workdir: Path, q: int, lam: float) -> Path:
    """Write (once) the config file that selects one (Q, lambda) cell."""
    path = workdir / f"coverage-Q{q}-lambda{lam:g}.cfg"
    if not path.exists():
        taus = ",".join(f"{t:g}" for t in COVERAGE_TAU)
        path.write_text(
            f"q_grid = {q}\nlambda_grid = {lam!r}\ntau_grid = {taus}\n",
            encoding="utf-8",
        )
    return path


def coverage_round(seed: int, index: int, workdir: Path, jobs: int = COVERAGE_JOBS) -> list:
    """The three lambda cells of one Q; the Q order is a seeded permutation."""
    order = _rng("coverage", seed).permutation(len(COVERAGE_Q))
    q = COVERAGE_Q[order[index % len(COVERAGE_Q)]]
    rng = _rng("coverage", seed, index)
    ops = []
    for lam in COVERAGE_LAMBDA:
        sim_seed = int(rng.integers(1, 2**31))
        argv = [
            "verify-coverage",
            "--config", str(coverage_config(workdir, q, lam)),
            "--alpha", _fmt(COVERAGE_ALPHA),
            "--delta", _fmt(COVERAGE_DELTA),
            "--N", str(N_FILES),
            "--trials", str(COVERAGE_TRIALS),
            "--seed", str(sim_seed),
            "--jobs", str(jobs),
        ]  # fmt: skip
        params = {
            "alpha": COVERAGE_ALPHA,
            "delta": COVERAGE_DELTA,
            "N": N_FILES,
            "Q": q,
            "lambda": lam,
            "trials": COVERAGE_TRIALS,
            "taus": COVERAGE_TAU,
        }
        ops.append(Op("verify-coverage", tuple(argv), params))
    return ops


def _grid(start: float, stop: float, step: float) -> list:
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def sweep_round(seed: int, index: int) -> list:
    """Unverified storage and gamma sweeps over SWEEP_MARKETS markets."""
    rng = _rng("sweep", seed, index)
    k = SWEEP_MARKETS
    v_values = _int_span(_strata(rng, k), *SMALL_V_RANGE)
    ops = []
    for m in _markets(rng, k, v_values):
        for kind, fixed, sweep in (
            ("sweep-storage", ["--gamma", _fmt(m["gamma"])], STORAGE_SWEEP),
            ("sweep-gamma", ["--Q", str(m["Q"])], GAMMA_SWEEP),
        ):
            argv = [kind, *_market_argv(m), *fixed]
            for flag, value in zip(("--start", "--stop", "--step"), sweep):
                argv += [flag, _fmt(value)]
            ops.append(Op(kind, tuple(argv), {**m, "grid": _grid(*sweep)}))
    return ops


def verify_round(seed: int, index: int) -> list:
    """Verified solves of small markets plus one market with V in the low hundreds.

    The large market keeps the evaluation setting (LARGE_MARKET) and
    draws only V, whose stratum cycles through a seeded order over
    rounds.  With drawn parameters most large markets would keep one or
    two retailers, where the verifier does little, and the cost of a
    round would swing tenfold with them.
    """
    rng = _rng("verify", seed, index)
    order = _rng("verify", seed).permutation(LARGE_V_STRATA)
    stratum = (order[index % LARGE_V_STRATA] + rng.random()) / LARGE_V_STRATA
    v_large = int(_int_span(np.array([stratum]), *LARGE_V_RANGE)[0])
    k = VERIFY_SMALL_MARKETS
    markets = _markets(rng, k, _int_span(_strata(rng, k), *SMALL_V_RANGE))
    markets.append({**markets[0], **LARGE_MARKET, "V": v_large})
    ops = []
    for group, m in enumerate(markets):
        base = _market_argv(m) + ["--gamma", _fmt(m["gamma"]), "--Q", str(m["Q"])]
        for scheme in SCHEMES:
            argv = ["solve", "--scheme", scheme, *base]
            ops.append(Op("solve", tuple(argv), {**m, "scheme": scheme}, group))
    return ops


def make_round(workload: str, seed: int, index: int, workdir: Path) -> list:
    """Round ``index`` of ``workload``."""
    if workload == "coverage":
        return coverage_round(seed, index, workdir)
    if workload == "sweep":
        return sweep_round(seed, index)
    if workload == "verify":
        return verify_round(seed, index)
    raise ValueError(f"unknown workload {workload!r}")
