"""Printed cells against the 50-digit game (mp_oracle).

A cell within 1 unit of its 12th significant digit is at most one
rounding step off.  Every cell is held to its own digit, a retailer's
profit too: the solver forms it as the surcharge's share Theta tau /
(Theta tau + Lambda), with no subtraction to cancel.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest
from mp_oracle import coverage, market_of, per_vr_rows, solve_rows, sweep_rows, units

from cachemarket import cli
from cachemarket.harness import sweep_values

GOLDEN = Path(__file__).parent / "golden"
K = 1.0


def cells(text: str) -> list:
    """The CSV's rows below its header, as lists of cells."""
    return list(csv.reader(io.StringIO(text)))[1:]


def assert_within_k(rows, truth, label, term_of=None):
    """Every cell within K units of its truth's 12th digit.

    term_of maps a column to a term its cells subtract: those are held
    to the 12th digit of the larger of the term and the truth.
    """
    for i, (row, want) in enumerate(zip(rows, truth, strict=True)):
        for j, (cell, value) in enumerate(zip(row, want, strict=True)):
            term = None if term_of is None else term_of.get(j)
            digit = None if term is None else max(abs(value), term)
            assert units(cell, value, digit) <= K, (label, i + 1, j + 1, cell, value)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("solve_ups_v5000", ["solve", "--scheme", "ups", "--V", "5000", "--gamma", "0"]),
        ("sweep_storage_v120", ["sweep-storage", "--V", "120", "--gamma", "0"]),
    ],
)
def test_goldens_are_within_k_units(name, argv):
    rows = cells((GOLDEN / f"{name}.csv").read_text())
    if argv[0] == "solve":
        truth = solve_rows(market_of(argv), "UPS")
    else:
        truth = sweep_rows(market_of(argv), "storage", sweep_values(10, 500, 10))
    assert_within_k(rows, truth, name)


def test_cancelling_sweep_is_within_k_units(tmp_path):
    # Theta cancels nine digits as A - C + 1 here, and Lambda/Theta is 1.6e5
    argv = ["sweep-gamma", "--alpha", "2.2193288013645645", "--delta", "80.49250043716155",
            "--V", "11", "--Q", "10", "--start", "0.05", "--stop", "1.5", "--step", "0.05"]  # fmt: skip
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    truth = sweep_rows(market_of(argv), "gamma", sweep_values(0.05, 1.5, 0.05))
    assert_within_k(cells(out.read_text()), truth, "sweep-gamma")


def _fuzz_markets(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 33])
    return [
        [
            "--alpha", repr(float(rng.uniform(2.05, 8.0))),
            "--delta", repr(float(10.0 ** rng.uniform(-4.0, 4.0))),
            "--V", str(int(rng.integers(1, 41))),
            "--gamma", repr(float(rng.uniform(0.0, 3.0))),
            "--Q", str(int(rng.integers(1, 501))),
        ]  # fmt: skip
        for _ in range(count)
    ]


def assert_command_within_k(tmp_path, argv, truth, term_of=None):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0, argv
    assert_within_k(cells(out.read_text()), truth, argv, term_of)


@pytest.mark.parametrize("scheme", ["NUPS", "UPS", "WATERFILL"])
def test_solved_cells_are_within_k_units(tmp_path, scheme):
    # the seed is fixed: a failure is a finding, not a reason to re-seed
    for market in _fuzz_markets(0, 20):
        argv = ["solve", "--scheme", scheme.lower(), *market]
        assert_command_within_k(tmp_path, argv, solve_rows(market_of(argv), scheme))


@pytest.mark.parametrize(
    "argv",
    [
        # Lambda/Theta is large in both: surcharge - rent cancelled, and the
        # profit of retailer 1 was 1920 and 3.6 units off
        ["solve", "--alpha", "2.9934024522209404", "--delta", "4132.702565370218",
         "--V", "33", "--gamma", "1.5309097492160562", "--Q", "78"],
        ["solve", "--delta", "1e3"],
    ],
)  # fmt: skip
def test_cancelling_profits_are_within_k_units(tmp_path, argv):
    assert_command_within_k(tmp_path, argv, solve_rows(market_of(argv), "NUPS"))


def test_per_vr_cells_are_within_k_units(tmp_path):
    for market in _fuzz_markets(0, 20):
        argv = ["per-vr", *market]
        assert_command_within_k(tmp_path, argv, per_vr_rows(market_of(argv)))


@pytest.mark.parametrize(
    "kind, grid", [("storage", ["1", "500", "50"]), ("gamma", ["0", "2.5", "0.5"])]
)
def test_swept_cells_are_within_k_units(tmp_path, kind, grid):
    # each fuzz market at eleven storages or six exponents; the swept
    # flag replaces the market's own
    swept = "--Q" if kind == "storage" else "--gamma"
    for market in _fuzz_markets(0, 20):
        flags = dict(zip(market[::2], market[1::2]))
        del flags[swept]
        argv = [f"sweep-{kind}", *[x for flag in flags.items() for x in flag]]
        argv += ["--start", grid[0], "--stop", grid[1], "--step", grid[2]]
        values = sweep_values(*map(float, grid))
        parsed = market_of(argv)
        # U_V and Ubar_V, N C (sum_j r_j / r_V - V) / Theta, are 0 at gamma = 0,
        # where they print the rounding of their terms: they are held to the
        # digit of the term N C V / Theta
        c, theta = coverage(parsed.alpha, parsed.delta)
        term = parsed.N * c * parsed.V / theta
        term_of = {1: term, 2: term} if kind == "gamma" else None
        assert_command_within_k(tmp_path, argv, sweep_rows(parsed, kind, values), term_of)
