"""Golden CSV regression: CLI outputs must stay byte-identical.

Any change to a number, its formatting or a participant count shows up
here.  Regenerate tests/golden/ only in a change that declares a
numeric change.
"""

from pathlib import Path

import pytest

from cachemarket import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "solve_nups": ["solve", "--scheme", "nups"],
    "solve_ups": ["solve", "--scheme", "ups"],
    "solve_waterfill": ["solve", "--scheme", "waterfill"],
    "per_vr": ["per-vr", "--verify"],
    "sweep_gamma": ["sweep-gamma", "--verify"],
    "sweep_storage": ["sweep-storage", "--verify"],
    # non-integer Q: no exact file grouping, analytics only
    "sweep_storage_half_steps": [
        "sweep-storage", "--start", "10", "--stop", "500", "--step", "7.5", "--verify",
    ],
    # all 120 retailers participate, so the surrogate argmin spans many u
    "solve_nups_v120": ["solve", "--scheme", "nups", "--V", "120", "--gamma", "0"],
    "solve_ups_v120": ["solve", "--scheme", "ups", "--V", "120", "--gamma", "0"],
    "solve_waterfill_v120": [
        "solve", "--scheme", "waterfill", "--V", "120", "--gamma", "0",
    ],
    # 5000 participants: the totals are long left-to-right sums
    "solve_nups_v5000": ["solve", "--scheme", "nups", "--V", "5000", "--gamma", "0"],
    "solve_ups_v5000": ["solve", "--scheme", "ups", "--V", "5000", "--gamma", "0"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


# verify-coverage on a small (Q, lambda, tau) grid at 300 trials.  The
# exit code is pinned with the CSV: both cases pass the tolerance.
COVERAGE_GRID = "q_grid = 10, 500\nlambda_grid = 10, 30\ntau_grid = 0.1, 0.5, 1.0\n"

COVERAGE_CASES = {
    "verify_coverage": ["--trials", "300"],
    "verify_coverage_alpha33": ["--trials", "300", "--alpha", "3.3", "--delta", "1.0"],
}


@pytest.mark.parametrize("name", sorted(COVERAGE_CASES))
def test_verify_coverage_matches_golden(name, tmp_path):
    config = tmp_path / "grid.cfg"
    config.write_text(COVERAGE_GRID)
    out = tmp_path / f"{name}.csv"
    argv = ["verify-coverage", "--config", str(config), *COVERAGE_CASES[name]]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
