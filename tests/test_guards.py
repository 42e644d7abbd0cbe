"""The solver's money check decides like a look at every cell.

_require_money_cells passes a block on two reductions (the largest
price, and s_glb, which every non-finite cell reaches) and names the
first failing row's first failing cell otherwise.  Here it is held to a
check of every price and every profit cell, on drawn blocks whose
largest price sits at half the float range.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sweep_rows import row_of

from cachemarket import equilibrium
from cachemarket.coverage import CoverageConstants
from cachemarket.economics import EconomicConfig, ProfitReport
from cachemarket.equilibrium import GameRows, VerificationFailure, solve_rows

HALF = sys.float_info.max / 2


def game_rows(gammas, lams, s_bh=1.0, intensity=1.0, theta=1.0) -> GameRows:
    """A block of markets given by Gamma (R, V) and Lambda (R,), at Q = 1.

    zeta K = 1, so q is Gamma; N = 1, s^ld = s^bh and C = 1; storage 1
    keeps the first retailer of each row (its thresholds are 0).
    Thresholds past the first may overflow to inf: only the bracket
    count reads them.
    """
    econ = EconomicConfig(
        backhaul_cost=s_bh,
        local_surcharge=s_bh,
        requests_per_mu=1.0,
        mu_intensity=1.0,
        sbs_intensity=intensity,
    )
    base = CoverageConstants(c=1.0, theta=theta, lambda_big=1.0)
    return GameRows(
        q=np.asarray(gammas, dtype=float),
        n_files=1,
        storage=np.ones((len(lams), 1)),
        econ=econ,
        constants=base.with_lambda_big(np.array(lams, dtype=float)[:, None]),
    )


def raised(check, *args):
    """(type, message) of the error check raises, None if it returns."""
    try:
        check(*args)
    except (ValueError, ArithmeticError, VerificationFailure) as exc:
        return type(exc), str(exc)
    return None


def _powers_of_ten(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def pricing_blocks(draw):
    """Blocks of 1-3 markets with Gamma, Lambda, lambda, Theta and s_bh log-uniform.

    Every price is linear in s_bh, so in most draws s_bh is rescaled to
    put the block's largest NUPS or UPS price within 3e-9 of half the
    float range, on either side of it.  A Gamma row may be shared by
    every row, as in a storage sweep.
    """
    n_rows, n_vrs = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shared = draw(st.booleans())
    wide = _powers_of_ten(-307.0, 308.0)
    gammas = np.array([[draw(wide) for _ in range(n_vrs)] for _ in range(1 if shared else n_rows)])
    gammas = np.broadcast_to(gammas, (n_rows, n_vrs))
    lams = [draw(wide) for _ in range(n_rows)]
    market = dict(
        gammas=gammas,
        lams=lams,
        s_bh=draw(_powers_of_ten(-307.0, 307.9)),
        intensity=draw(wide),
        theta=draw(_powers_of_ten(-200.0, 150.0)),
    )
    rows = game_rows(**market)
    snap = draw(st.sampled_from([None, "NUPS", "UPS"]))
    if snap is not None:
        offset = draw(st.floats(-3e-9, 3e-9))
        with np.errstate(all="ignore"):
            u = equilibrium._bracket_count(rows.brackets(snap), rows.storage)
            largest = equilibrium._fractions_and_prices(snap, rows, u)[1].max()
            s_bh = market["s_bh"] * (HALF * (1 + offset) / largest)
        if 0 < s_bh <= HALF:
            rows = game_rows(**{**market, "s_bh": s_bh})
    return rows


def every_cell_verdict(schemes, u, prices, report, theta_lam):
    """What a look at every money cell says: None, or (scheme, cell, u) of the first bad one.

    Rows first, then price, surcharge, rent, profit and the four totals.
    """
    cells = {
        "price": prices <= HALF,
        "surcharge": np.isfinite(report.vr_surcharge),
        "rent": np.isfinite(report.vr_rent),
        "profit": np.isfinite(report.vr_profits),
        "s_rt": np.isfinite(report.nsp_leasing)[:, None],
        "s_bh": np.isfinite(report.nsp_backhaul_saving)[:, None],
        "s_nsp": np.isfinite(report.nsp_total)[:, None],
        "s_glb": np.isfinite(report.global_total)[:, None],
    }
    for r in range(u.size):
        for name, ok in cells.items():
            if not ok[r].all():
                cell = name if name.startswith("s_") else f"{name} {int(np.argmin(ok[r])) + 1}"
                return schemes[r * len(schemes) // u.size], cell, int(u[r])
    return None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rows=pricing_blocks())
def test_money_check_decides_like_every_cell(rows):
    calls = []
    real = equilibrium._require_money_cells

    def spy(*args):
        calls.append(args)
        return real(*args)

    equilibrium._require_money_cells = spy
    try:
        with np.errstate(all="ignore"):
            verdict = raised(solve_rows, ("NUPS", "UPS"), rows)
    finally:
        equilibrium._require_money_cells = real
    if not calls:  # an earlier check decided
        assert verdict is not None
        return
    want = every_cell_verdict(*calls[0])
    if want is None:
        assert verdict is None or "below the smallest normal float" in verdict[1]
    else:
        scheme, cell, u = want
        assert verdict is not None and verdict[0] is ValueError
        assert verdict[1].startswith(f"{scheme} {cell} = ") and f" at u = {u} is not " in verdict[1]


def drawn_blocks() -> list[str]:
    """Each block a derandomized pricing_blocks() test draws, in order, as text.

    Hypothesis also draws the literals of every local module loaded at the
    time (its constant pool), so these depend on what the run imported;
    the root conftest.py imports every local module before collection.
    """
    drawn = []

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(rows=pricing_blocks())
    def record(rows):
        lams = rows.constants.lambda_big[:, 0].tolist()
        econ, theta = rows.econ, rows.constants.theta
        drawn.append(repr((rows.q.tolist(), lams, econ.backhaul_cost, econ.sbs_intensity, theta)))

    record()
    return drawn


# Collects tests/test_guards.py as `pytest tests/test_guards.py` does, then
# prints drawn_blocks() in that process, one line each.
_DRAWN_ALONE = """
import sys
import pytest

class Draw:
    def pytest_collection_finish(self, session):
        for line in sys.modules["test_guards"].drawn_blocks():
            print("DRAWN", line)

pytest.main(["-q", "--collect-only", "-p", "no:cacheprovider", sys.argv[1]], plugins=[Draw()])
"""


def test_draws_do_not_depend_on_the_invocation():
    """This run draws the blocks that `pytest tests/test_guards.py` alone draws."""
    alone = subprocess.run(
        [sys.executable, "-c", _DRAWN_ALONE, __file__],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        check=True,
    )
    prefix = "DRAWN "
    lines = [line[len(prefix) :] for line in alone.stdout.splitlines() if line.startswith(prefix)]
    assert len(lines) == 60
    assert lines == drawn_blocks()


def test_a_tripped_bound_is_no_error():
    """A block whose largest Gamma_1 and largest Lambda sit in different rows is solved.

    Row 0 holds the larger Lambda, row 1 the larger Gamma_1: taken
    together they form 1e308 (at V = 1, Gamma_1 Lambda s_bh), above half
    the float range, which the guard that bounded a block by its extremes
    once refused.  The money check reads each row's own cells, so each
    row solves as it does alone.
    """
    gammas, lams = [[1e305], [1e307]], [10.0, 1.0]
    rows = game_rows(gammas, lams)
    assert max(map(max, gammas)) * max(lams) > HALF
    pair = solve_rows(("NUPS", "UPS"), rows)
    for r in range(2):
        alone = solve_rows(("NUPS", "UPS"), game_rows(gammas[r : r + 1], lams[r : r + 1]))
        for got, want in zip(pair, alone):
            got = row_of(got, r)
            for field in ("n_participants", "prices", "fractions"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            for field in dataclasses.fields(ProfitReport):
                name = field.name
                assert np.array_equal(getattr(got.report, name), getattr(want.report, name)), name
