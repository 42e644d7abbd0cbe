"""Printed cells against the 50-digit game (mp_oracle).

A cell within 1 unit of its 12th significant digit is at most one
rounding step off.  The retailer profit is the difference of the
surcharge and the rent, and cancels where Lambda/Theta is large, so a
profit cell is held to 1 unit of the surcharge's 12th digit: the
precision of its terms.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest
from mp_oracle import market_of, solve_rows, sweep_rows, units

from cachemarket import cli
from cachemarket.harness import sweep_values

GOLDEN = Path(__file__).parent / "golden"
K = 1.0


def cells(text: str) -> list:
    """The CSV's rows below its header, as lists of cells."""
    return list(csv.reader(io.StringIO(text)))[1:]


def assert_within_k(rows, truth, label):
    for i, (row, want) in enumerate(zip(rows, truth, strict=True)):
        for j, (cell, value) in enumerate(zip(row, want, strict=True)):
            assert units(cell, value) <= K, (label, i + 1, j + 1, cell, value)


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


@pytest.mark.parametrize("scheme", ["NUPS", "UPS", "WATERFILL"])
def test_solved_cells_are_within_k_units(tmp_path, scheme):
    # the seed is fixed: a failure is a finding, not a reason to re-seed
    out = tmp_path / "out.csv"
    for market in _fuzz_markets(0, 20):
        argv = ["solve", "--scheme", scheme.lower(), *market]
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
        rows = cells(out.read_text())
        truth = solve_rows(market_of(argv), scheme)
        for i, (row, want) in enumerate(zip(rows, truth, strict=True)):
            for j, (cell, value) in enumerate(zip(row, want, strict=True)):
                # a retailer's profit, in units of its surcharge's digit
                digit_of = want[3] if j == 5 and i < len(rows) - 2 else None
                assert units(cell, value, digit_of) <= K, (argv, i + 1, j + 1, cell, value)
