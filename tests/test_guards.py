"""The solver's overflow guard decides like its per-row form.

_require_pricing_domain accepts most blocks with one bound per product
at the block's extremes and forms every row's products only to decide
the rest.  guard_oracle holds the check in its per-row form.  The pricing guard once also bounded
Gamma_1 Lambda s_bh and Lambda^2 s_bh S_3^3, which the other three
bound in exact arithmetic; five_pricing_products keeps all five.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
from guard_oracle import pricing_products, require_pricing_domain
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sweep_rows import row_of

from cachemarket import equilibrium
from cachemarket.coverage import CoverageConstants
from cachemarket.economics import EconomicConfig, ProfitReport
from cachemarket.equilibrium import GameRows, solve_rows

HALF = sys.float_info.max / 2


def game_rows(gammas, lams, s_bh=1.0, intensity=1.0, theta=1.0) -> GameRows:
    """A block of markets given by Gamma (R, V) and Lambda (R,), at Q = 1.

    zeta K = 1, so q is Gamma; N = 1, s^ld = s^bh and C = 1; storage 1
    keeps the first retailer of each row (its thresholds are 0).
    Thresholds past the first may overflow to inf: the pricing guard
    does not read them.
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


def five_pricing_products(rows: GameRows) -> dict[str, np.ndarray]:
    """guard_oracle's three products after the two they bound, one value per row."""
    lam = rows.constants.lambda_big[:, 0]
    s = rows.econ.backhaul_cost
    s3 = np.cbrt(rows.gammas).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = {
            "Gamma_1 * Lambda * s_bh": rows.gammas[:, 0] * lam * s,
            "Lambda^2 * s_bh * S_3^3": lam * lam * s * s3 * s3 * s3,
        }
    return {**bounded, **pricing_products(rows)}


def raised(check, *args):
    """(type, message) of the error check raises, None if it returns."""
    try:
        check(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


def _powers_of_ten(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def pricing_blocks(draw):
    """Blocks of 1-3 markets with Gamma, Lambda, lambda, Theta and s_bh log-uniform.

    Every product is linear in s_bh, so in most draws s_bh is rescaled
    to put one product's largest row within 3e-9 of half the float range,
    on either side of it.  A Gamma row may be shared by every row, as in
    a storage sweep.
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
    snap = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    if snap is not None:
        largest = max(list(five_pricing_products(rows).values())[snap].tolist())
        offset = draw(st.floats(-3e-9, 3e-9))
        s_bh = market["s_bh"] * (HALF * (1 + offset) / largest) if largest > 0 else 0.0
        if 0 < s_bh <= HALF:
            rows = game_rows(**{**market, "s_bh": s_bh})
    return rows


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(rows=pricing_blocks())
# a tie: at V = 1 and Lambda = 1 all five products are s_bh Gamma_1 in
# exact arithmetic; here Gamma_1 Lambda s_bh rounds to one ulp above half
# the float range, V Lambda^2 s_bh S_2^2 to it and the rest below it
@example(rows=game_rows([[1.0471285480508996]], [1.0], s_bh=8.583918078675725e307))
def test_pricing_guard_decides_like_every_row(rows):
    verdict = raised(equilibrium._require_pricing_domain, rows)
    assert verdict == raised(require_pricing_domain, rows)
    five = list(five_pricing_products(rows).values())
    if (verdict is None) != all((product <= HALF).all() for product in five):
        # only a dropped product, rounded above its bound, can tell the forms apart
        assert verdict is None
        for dropped, bound in zip(five[:2], (five[3], five[2])):
            assert (dropped <= bound * (1 + 1e-14)).all()


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
    """A block whose bounds overflow, though no row's products do, is solved.

    Row 0 holds the larger Lambda, row 1 the larger Gamma_1: taken
    together, Lambda s_bh max(S_3^2 Gamma_1^(1/3), S_2^2) is 1e308 (at
    V = 1 it is Gamma_1 Lambda s_bh), above half the float range, while
    every product of each row stays below it.
    """
    gammas, lams = [[1e305], [1e307]], [10.0, 1.0]
    rows = game_rows(gammas, lams)
    assert max(map(max, gammas)) * max(lams) > HALF
    for name, values in rows.pricing_products.items():
        assert (values <= HALF).all(), name
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
