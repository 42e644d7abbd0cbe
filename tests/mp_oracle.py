"""The pricing game at 50 digits, as a yardstick for the printed cells.

Every value is computed in mpmath from the market's parameters (each
float taken exactly), with nothing imported from ``cachemarket``:

- C = (2/alpha) delta^(2/alpha) pi / sin(2 pi / alpha), by reflection;
- Theta = 1 - 2F1(1, 2/alpha; 2/alpha + 1; -1/delta);
- Lambda = C N / Q and the Zipf preferences q_v = v^-gamma / sum_j j^-gamma;
- u, the count of thresholds U_v (NUPS) or Ubar_v (UPS, water-filling)
  below Q - 1e-12;
- the posted prices, and the fractions by the budget identity
  tau_v = (r_v (u Lambda + Theta) / R - Lambda) / Theta, with
  r = q^(1/3) (NUPS) or q^(1/2) (UPS, water-filling) and R their sum
  over v <= u;
- every profit and total the CSVs print.

``units`` measures a printed cell against its truth in units of the
12th significant digit: a correctly rounded cell is within 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import mpmath

DIGITS = 50
# Equality within this margin of a threshold resolves to the lower bracket
BRACKET_TOL = 1e-12


@dataclass(frozen=True)
class Market:
    """A market's parameters, under the CLI's names, with its defaults."""

    alpha: float = 4.0
    delta: float = 0.01
    lam: float = 10.0  # SBS intensity
    zeta: float = 50.0
    K: float = 10.0
    s_bh: float = 1.0
    s_ld: float | None = None
    N: int = 500
    Q: float = 500.0
    V: int = 15
    gamma: float = 0.5


_FLAGS = {
    "--alpha": ("alpha", float),
    "--delta": ("delta", float),
    "--lambda": ("lam", float),
    "--zeta": ("zeta", float),
    "--K": ("K", float),
    "--s-bh": ("s_bh", float),
    "--s-ld": ("s_ld", float),
    "--N": ("N", int),
    "--Q": ("Q", float),
    "--V": ("V", int),
    "--gamma": ("gamma", float),
}


def market_of(argv: list) -> Market:
    """The Market of a command's value flags; other flags are skipped."""
    values = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in _FLAGS:
            name, kind = _FLAGS[flag]
            values[name] = kind(value)
    return Market(**values)


def _mp(x) -> mpmath.mpf:
    return mpmath.mpf(float(x)) if not isinstance(x, int) else mpmath.mpf(x)


@functools.lru_cache(maxsize=None)
def coverage(alpha: float, delta: float) -> tuple:
    """(C, Theta) at 50 digits."""
    with mpmath.workdps(DIGITS):
        a, d = _mp(alpha), _mp(delta)
        b = 2 / a
        c = b * d**b * mpmath.pi / mpmath.sin(mpmath.pi * b)
        theta = 1 - mpmath.hyp2f1(1, b, b + 1, -1 / d)
        return c, theta


@functools.lru_cache(maxsize=None)
def preferences(n_vrs: int, gamma: float) -> tuple:
    """q_v = v^-gamma / sum_j j^-gamma for v = 1..V."""
    with mpmath.workdps(DIGITS):
        weights = [mpmath.mpf(v) ** -_mp(gamma) for v in range(1, n_vrs + 1)]
        total = mpmath.fsum(weights)
        return tuple(w / total for w in weights)


@functools.lru_cache(maxsize=None)
def thresholds(market: Market, scheme: str) -> tuple:
    """(r, U): the roots q^(1/3) or q^(1/2) and the thresholds U_v or Ubar_v.

    U_v = N C (sum_{j<=v} r_j / r_v - v) / Theta; market.Q is not read.
    """
    with mpmath.workdps(DIGITS):
        c, theta = coverage(market.alpha, market.delta)
        power = mpmath.mpf(1) / 3 if scheme == "NUPS" else mpmath.mpf(1) / 2
        roots = [q_v**power for q_v in preferences(market.V, market.gamma)]
        bounds, running = [], mpmath.mpf(0)
        for v, r in enumerate(roots, start=1):
            running += r
            bounds.append(market.N * c * (running / r - v) / theta)
        return roots, bounds


def game(market: Market, scheme: str) -> dict:
    """Every quantity of one scheme's solved market, at 50 digits.

    scheme is NUPS, UPS or WATERFILL.  Returns u, the thresholds, and
    the per-retailer prices, fractions, surcharges, rents and profits
    (lists of V) with the totals s_rt, s_bh, s_nsp and s_glb.
    """
    with mpmath.workdps(DIGITS):
        c, theta = coverage(market.alpha, market.delta)
        storage = _mp(min(market.Q, market.N))
        lam_big = c * market.N / storage
        q = preferences(market.V, market.gamma)
        gammas = [q_v * _mp(market.zeta) * _mp(market.K) for q_v in q]
        roots, bounds = thresholds(replace(market, Q=0.0), "NUPS" if scheme == "NUPS" else "UPS")
        u = sum(1 for t in bounds if t < storage - BRACKET_TOL)
        root_sum = mpmath.fsum(roots[:u])
        level = u * lam_big + theta
        fractions = [(r * level / root_sum - lam_big) / theta for r in roots[:u]]
        fractions += [mpmath.mpf(0)] * (market.V - u)
        s_bh = _mp(market.s_bh)
        s_ld = s_bh if market.s_ld is None else _mp(market.s_ld)
        intensity = _mp(market.lam)
        scale = lam_big * s_bh / (intensity * level**2)
        if scheme == "NUPS":
            cube_sum = mpmath.fsum(mpmath.cbrt(g) for g in gammas[:u])
            prices = [scale * cube_sum**2 * mpmath.cbrt(g) for g in gammas[:u]]
        elif scheme == "UPS":
            prices = [scale * mpmath.fsum(mpmath.sqrt(g) for g in gammas[:u]) ** 2] * u
        else:
            prices = [mpmath.mpf(0)] * u
        prices += [mpmath.mpf(0)] * (market.V - u)
        hits = [t / (theta * t + lam_big) for t in fractions]
        surcharges = [g * s_ld * h for g, h in zip(gammas, hits)]
        rents = [t * intensity * p for t, p in zip(fractions, prices)]
        profits = [s - r for s, r in zip(surcharges, rents)]
        s_rt = mpmath.fsum(rents)
        saving = mpmath.fsum(g * h * s_bh for g, h in zip(gammas, hits))
        return {
            "u": u,
            "thresholds": bounds,
            "prices": prices,
            "fractions": fractions,
            "surcharges": surcharges,
            "rents": rents,
            "profits": profits,
            "s_rt": s_rt,
            "s_bh": saving,
            "s_nsp": s_rt + saving,
            "s_glb": s_rt + saving + mpmath.fsum(profits),
        }


def solve_rows(market: Market, scheme: str) -> list:
    """The true cells of `solve --scheme scheme`: its CSV rows, as lists.

    An EXCLUDED price cell is None; the scheme and count cells are
    what the CSV prints.
    """
    g = game(market, scheme)
    rows = []
    for v in range(market.V):
        price = g["prices"][v] if scheme == "WATERFILL" or v < g["u"] else None
        rows.append(
            [v + 1, price, g["fractions"][v], g["surcharges"][v], g["rents"][v], g["profits"][v]]
        )
    rows.append(["scheme", "participants", "s_rt", "s_bh", "s_nsp", "s_glb"])
    rows.append([scheme, g["u"], g["s_rt"], g["s_bh"], g["s_nsp"], g["s_glb"]])
    return rows


def per_vr_rows(market: Market) -> list:
    """The true cells of `per-vr`, one list per retailer."""
    nups, ups = game(market, "NUPS"), game(market, "UPS")
    return [
        [
            v + 1,
            nups["prices"][v] if v < nups["u"] else None,
            ups["prices"][v] if v < ups["u"] else None,
            nups["fractions"][v],
            ups["fractions"][v],
        ]
        for v in range(market.V)
    ]


def sweep_rows(market: Market, kind: str, values: list) -> list:
    """The true cells of `sweep-storage` (kind "storage") or `sweep-gamma`."""
    rows = []
    for value in values:
        point = replace(market, **{"Q" if kind == "storage" else "gamma": value})
        nups, ups = game(point, "NUPS"), game(point, "UPS")
        row = [value, nups["u"], ups["u"], nups["s_nsp"], ups["s_nsp"]]
        row += [nups["s_glb"], ups["s_glb"]]
        if kind == "gamma":
            row[1:1] = [nups["thresholds"][-1], ups["thresholds"][-1]]
        rows.append(row)
    return rows


def units(cell: str, truth, digit_of=None) -> float:
    """|cell - truth| in units of the 12th significant digit of digit_of (truth by default).

    0 when both are 0 or both name the same integer, scheme or EXCLUDED.
    """
    if truth is None or isinstance(truth, (str, int)):
        return 0.0 if cell == ("EXCLUDED" if truth is None else str(truth)) else math.inf
    reference = float(truth if digit_of is None else digit_of)
    if not reference or math.isinf(truth):
        return 0.0 if float(cell) == truth else math.inf
    with mpmath.workdps(DIGITS):
        error = float(abs(mpmath.mpf(cell) - truth))
    return error / 10.0 ** (math.floor(math.log10(abs(reference))) - 11)
