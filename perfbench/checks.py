"""Output checks computed apart from the program.

Nothing here imports ``cachemarket``.  The coverage constants come from
``scipy.special.hyp2f1`` and the reflection formula
B(2/a, 1 - 2/a) = pi / sin(2 pi / a):

    A = 2 delta / (alpha - 2) * 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -delta)
    C = delta^(2/alpha) * (2 pi / alpha) / sin(2 pi / alpha)
    Theta = A - C + 1,  Lambda = C * F,  Pr(tau) = tau / (Theta tau + Lambda)

Theta = A - C + 1 cancels when A is close to C (alpha near 2 with a large
delta), so a value computed from it carries the rounding of A and C
multiplied by kappa = (|A| + |C| + 1) / |Theta|.  Equality checks allow
REL_TOL times that propagated size; two correct implementations differ by
about 1e-14 of it.

Every check raises CheckFailure naming what is wrong.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

import numpy as np
from scipy.special import hyp2f1

REL_TOL = 1e-9


class CheckFailure(Exception):
    """An output file disagrees with the independent computation."""


class Constants(NamedTuple):
    a: float
    c: float
    theta: float
    kappa: float  # condition number of theta = a - c + 1


def coverage_constants(alpha: float, delta: float) -> Constants:
    """A, C and Theta for path-loss exponent alpha and SINR threshold delta."""
    b = 1.0 - 2.0 / alpha
    a = 2.0 * delta / (alpha - 2.0) * hyp2f1(1.0, b, b + 1.0, -delta)
    c = delta ** (2.0 / alpha) * (2.0 * math.pi / alpha) / math.sin(2.0 * math.pi / alpha)
    theta = a - c + 1.0
    return Constants(a, c, theta, (abs(a) + abs(c) + 1.0) / abs(theta))


def hit_probability(tau, k: Constants, f_groups: float) -> tuple:
    """Pr(tau) and the size, relative to Pr, that its rounding scales with."""
    tau = np.asarray(tau, dtype=float)
    denominator = k.theta * tau + k.c * f_groups
    size = (k.kappa * abs(k.theta) * tau + k.c * f_groups) / denominator
    return tau / denominator, size


def zipf(n: int, exponent: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=float) ** -exponent
    return w / w.sum()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _close(got: float, want: float, what: str, size: float = 0.0) -> None:
    """got == want up to REL_TOL of max(|want|, size)."""
    tol = REL_TOL * max(abs(want), size)
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r}")


def _at_least(big: float, small: float, what: str, size: float = 0.0) -> None:
    tol = REL_TOL * max(abs(big), abs(small), size)
    _require(big >= small - tol, f"{what}: {big!r} < {small!r}")


def _table(text: str, header: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == header, f"header {rows[:1]} is not {header}")
    return [[float(x) for x in row] for row in rows[1:]]


def _groups(params: dict) -> float:
    return params["N"] / min(params["Q"], params["N"])


COVERAGE_HEADER = ["tau", "F", "lambda", "trials", "p_hat", "half_width", "p_analytic", "abs_error"]


def check_coverage(params: dict, text: str) -> None:
    """One (Q, lambda) cell of verify-coverage."""
    taus = params["taus"]
    rows = _table(text, COVERAGE_HEADER)
    _require(len(rows) == len(taus), f"{len(rows)} rows for {len(taus)} tau values")
    f_groups = params["N"] // params["Q"]
    constants = coverage_constants(params["alpha"], params["delta"])
    for row, tau in zip(rows, taus):
        r_tau, r_f, r_lam, trials, p_hat, half_width, p_analytic, _ = row
        _require(
            (r_tau, r_f, r_lam) == (tau, f_groups, params["lambda"]),
            f"row {row[:3]} is not the grid point {(tau, f_groups, params['lambda'])}",
        )
        requested = params["trials"]
        _require(trials == requested, f"{trials} trials reported, {requested} requested")
        want, size = hit_probability(tau, constants, f_groups)
        _close(p_analytic, float(want), f"p_analytic at tau={tau}, F={f_groups}", want * size)
        _require(
            abs(p_hat - want) <= max(0.02, 3.0 * half_width),
            f"p_hat {p_hat} vs {want} at tau={tau}, F={f_groups} exceeds "
            f"max(0.02, 3 * {half_width})",
        )


def _u_threshold(params: dict, gamma: float, power: float) -> tuple:
    """U_V (power 1/3) or Ubar_V (power 1/2), and the size its rounding scales with.

    U_V = N C (R - V) / Theta with R = sum_j (q_j / q_V)^power.  R - V
    cancels as gamma -> 0, Theta as A -> C.
    """
    k = coverage_constants(params["alpha"], params["delta"])
    q = zipf(params["V"], gamma)
    ratio = float(np.sum((q / q[-1]) ** power))
    scale = params["N"] * k.c / k.theta
    return scale * (ratio - params["V"]), abs(scale) * (ratio + abs(ratio - params["V"]) * k.kappa)


SWEEP_GAMMA_HEADER = [
    "gamma", "q_min", "qp_min", "u_nups", "u_ups",
    "s_nsp_nups", "s_nsp_ups", "s_glb_nups", "s_glb_ups",
]  # fmt: skip
SWEEP_STORAGE_HEADER = [
    "storage", "u_nups", "u_ups", "s_nsp_nups", "s_nsp_ups", "s_glb_nups", "s_glb_ups",
]  # fmt: skip


def _sweep_rows(rows: list, grid: list, profits: slice, counts: slice, v: int) -> None:
    _require([r[0] for r in rows] == grid, "the swept values are not the requested grid")
    for row in rows:
        nsp_nups, nsp_ups, glb_nups, glb_ups = row[profits]
        _at_least(nsp_nups, nsp_ups, f"s_nsp_nups >= s_nsp_ups at {row[0]}")
        _at_least(glb_ups, glb_nups, f"s_glb_ups >= s_glb_nups at {row[0]}")
        for u in row[counts]:
            _require(1 <= u <= v and u == int(u), f"participant count {u} outside 1..{v}")


def check_sweep_gamma(params: dict, text: str) -> None:
    rows = _table(text, SWEEP_GAMMA_HEADER)
    _sweep_rows(rows, params["grid"], slice(5, 9), slice(3, 5), params["V"])
    for row in rows:
        gamma, q_min, qp_min = row[:3]
        u_v, size = _u_threshold(params, gamma, 1.0 / 3.0)
        _close(q_min, u_v, f"q_min at gamma={gamma}", size)
        _at_least(qp_min, q_min, f"qp_min >= q_min at gamma={gamma}", size)


def check_sweep_storage(params: dict, text: str) -> None:
    rows = _table(text, SWEEP_STORAGE_HEADER)
    _sweep_rows(rows, params["grid"], slice(3, 7), slice(1, 3), params["V"])
    for col, name in ((1, "u_nups"), (2, "u_ups")):
        counts = [r[col] for r in rows]
        _require(
            all(a <= b for a, b in zip(counts, counts[1:])),
            f"{name} decreases with storage: {counts}",
        )


OUTCOME_HEADER = ["vr", "price", "fraction", "surcharge", "rent", "profit"]
SUMMARY_HEADER = ["scheme", "participants", "s_rt", "s_bh", "s_nsp", "s_glb"]


def check_solve(params: dict, text: str) -> dict:
    """One verified solve; returns the fractions and s_glb for check_market."""
    rows = list(csv.reader(io.StringIO(text)))
    v = params["V"]
    _require(len(rows) == v + 3, f"{len(rows)} lines for V={v}")
    _require(rows[0] == OUTCOME_HEADER and rows[v + 1] == SUMMARY_HEADER, "bad headers")
    _require([int(r[0]) for r in rows[1 : v + 1]] == list(range(1, v + 1)), "bad retailer ids")
    tau = np.array([float(r[2]) for r in rows[1 : v + 1]])
    summary = rows[v + 2]
    _require(summary[0] == params["scheme"].upper(), f"scheme {summary[0]}")
    participants = int(summary[1])
    s_glb = float(summary[5])

    _require(bool(np.all((tau >= 0.0) & (tau <= 1.0))), "a fraction lies outside [0, 1]")
    _require(tau.sum() <= 1.0 + REL_TOL, f"fractions sum to {tau.sum()!r}")
    active = int(np.count_nonzero(tau > 0.0))
    _require(bool(np.all(tau[:active] > 0.0)), "the renting retailers are not a prefix")
    _require(active == participants, f"{active} positive fractions, {participants} participants")

    q = zipf(v, params["gamma"])
    demand = q * params["zeta"] * params["K"]
    constants = coverage_constants(params["alpha"], params["delta"])
    hit, size = hit_probability(tau, constants, _groups(params))
    terms = demand * (params["s_bh"] + params["s_ld"]) * hit
    want = float(np.sum(terms))
    what = "s_glb against sum_v Gamma_v (s_bh + s_ld) Pr(tau_v)"
    _close(s_glb, want, what, float(np.sum(terms * size)))
    return {"tau": tau, "s_glb": s_glb}


def check_market(solved: dict) -> dict:
    """Cross-scheme checks of one market; maps a scheme to what it broke."""
    broken = {}
    ups, wf, nups = solved["ups"], solved["waterfill"], solved["nups"]
    gap = float(np.max(np.abs(ups["tau"] - wf["tau"])))
    if gap > REL_TOL:
        broken["ups"] = f"UPS fractions differ from water-filling by {gap:.3e}"
    if wf["s_glb"] < nups["s_glb"] - REL_TOL * abs(nups["s_glb"]):
        broken["waterfill"] = f"s_glb(WATERFILL) {wf['s_glb']!r} < s_glb(NUPS) {nups['s_glb']!r}"
    return broken


_CHECKS = {
    "verify-coverage": check_coverage,
    "sweep-gamma": check_sweep_gamma,
    "sweep-storage": check_sweep_storage,
    "solve": check_solve,
}


def check_output(kind: str, params: dict, text: str):
    """Run the checks of one op's output file; malformed output fails them."""
    try:
        return _CHECKS[kind](params, text)
    except (ValueError, IndexError) as exc:
        raise CheckFailure(f"malformed output: {exc}") from exc
