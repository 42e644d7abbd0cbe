"""Tests of the benchmark itself: clean runs and checks that bite.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()


def _round(ops, workdir):
    return run.run_round(cli.main, ops, workdir, checks)


def test_coverage_cell_runs_clean(tmp_path):
    ops = workloads.make_round("coverage", 3, 0, tmp_path)[:1]
    result = _round(ops, tmp_path)
    assert (result.failed, len(result.seconds)) == (0, 1)


def test_sweep_round_runs_clean(tmp_path):
    result = _round(workloads.make_round("sweep", 3, 0, tmp_path), tmp_path)
    assert result.failed == 0
    assert len(result.seconds) == 2 * workloads.SWEEP_MARKETS


def test_verify_round_runs_clean(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_V_RANGE", (40, 45))
    result = _round(workloads.make_round("verify", 3, 0, tmp_path), tmp_path)
    assert result.failed == 0
    assert len(result.seconds) == 3 * (workloads.VERIFY_SMALL_MARKETS + 1)


def _traced(ops, workdir):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = _round(ops, workdir)
    assert result.failed == 0 and not tracer.missing
    return tracer


def test_tracing_counts_repeat_and_patches_are_undone(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_V_RANGE", (20, 20))
    ops = workloads.make_round("verify", 4, 0, tmp_path)[-3:]
    ops += workloads.make_round("sweep", 4, 0, tmp_path)[:2]
    original = cli.run_solve
    first, second = _traced(ops, tmp_path), _traced(ops, tmp_path)
    assert cli.run_solve is original
    assert (first.calls, first.counts) == (second.calls, second.counts)
    for name in ("harness.make_instance", "special.hyp2f1", "economics.profit_report",
                 "equilibrium.verify_waterfill", "equilibrium.nups_solve"):  # fmt: skip
        assert first.calls[name] > 0, name
    for name in ("coverage.hit_probability", "equilibrium.verify_checks",
                 "equilibrium.best_response", "catalog.elements_built"):  # fmt: skip
        assert first.counts[name] > 0, name


def test_tracing_times_the_simulator_rng(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "COVERAGE_TRIALS", 20)
    op = workloads.make_round("coverage", 4, 0, tmp_path)[0]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main([*op.argv, "--out", str(tmp_path / "out.csv")]) in (0, 3)
    assert tracer.counts["ppp_sim.trials"] == 10 * 20
    assert tracer.calls["ppp_sim.rng_setup"] == 10 * 20 + 2 * 10  # default_rng; SeedSequence, spawn
    assert tracer.counts["ppp_sim.cells_drawn"] > 0


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.make_round(name, 11, 2, tmp_path)
        assert first == workloads.make_round(name, 11, 2, tmp_path)
        assert first != workloads.make_round(name, 12, 2, tmp_path)


def test_deltas_skip_the_gap_and_the_cancellation():
    alphas = np.linspace(*workloads.ALPHA_RANGE, 100_001)
    deltas = workloads._deltas(np.linspace(0.0, 1.0, 100_001), alphas)
    lo, hi = workloads.DELTA_GAP
    assert not np.any((deltas > lo) & (deltas < hi))
    assert deltas.min() == pytest.approx(1e-3) and deltas.max() == pytest.approx(1e2)
    kappa = [checks.coverage_constants(a, d).kappa for a, d in zip(alphas[::1000], deltas[::1000])]
    assert max(kappa) <= 1.05 * workloads.KAPPA_MAX


@pytest.mark.parametrize("alpha", [2.2, 2.5, 3.0, 3.5])
def test_delta_limit_sits_at_kappa_max(alpha):
    delta = 10.0 ** workloads.log10_delta_max(np.array(alpha))
    kappa = checks.coverage_constants(alpha, delta).kappa
    assert kappa == pytest.approx(workloads.KAPPA_MAX, rel=0.05)


def test_bare_directory_is_refused(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((run.HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0 and proc.stdout == ""


# ---- each check rejects a corrupted output -------------------------------

MARKET = {
    "alpha": 4.0, "delta": 0.01, "beta": 0.8, "gamma": 0.5, "Q": 500, "V": 15,
    "N": 500, "zeta": 50.0, "K": 10.0, "s_bh": 1.0, "s_ld": 1.0,
}  # fmt: skip


def _output(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _rows(text):
    return [line.split(",") for line in text.splitlines()]


def _text(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


def _corrupt(text, row, col, fn):
    rows = _rows(text)
    rows[row][col] = repr(fn(float(rows[row][col])))
    return _text(rows)


def _rejects(kind, params, text):
    with pytest.raises(checks.CheckFailure):
        checks.check_output(kind, params, text)


@pytest.fixture(scope="module")
def coverage(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("coverage")
    op = workloads.make_round("coverage", 5, 0, tmp)[0]
    text = _output(tmp, op.argv)
    checks.check_output(op.kind, op.params, text)
    return op, text


@pytest.mark.parametrize(
    "col, fn",
    [
        (6, lambda p: p * (1 + 1e-6)),  # p_analytic off the closed form
        (4, lambda p: p + 0.2 if p < 0.7 else p - 0.2),  # p_hat far from it
        (3, lambda t: t - 1),  # trials not as requested
        (1, lambda f: f + 1),  # another grid point
    ],
)
def test_coverage_check_rejects(coverage, col, fn):
    op, text = coverage
    _rejects(op.kind, op.params, _corrupt(text, 5, col, fn))


def test_coverage_check_rejects_a_missing_row(coverage):
    op, text = coverage
    _rejects(op.kind, op.params, _text(_rows(text)[:-1]))


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    base = workloads._market_argv(MARKET)
    gamma = {**MARKET, "grid": workloads._grid(*workloads.GAMMA_SWEEP)}
    storage = {**MARKET, "grid": workloads._grid(*workloads.STORAGE_SWEEP)}
    g_text = _output(tmp, ["sweep-gamma", *base, "--Q", "500", "--start", "0.05",
                           "--stop", "2.5", "--step", "0.05"])  # fmt: skip
    s_text = _output(tmp, ["sweep-storage", *base, "--gamma", "0.5"])
    checks.check_sweep_gamma(gamma, g_text)
    checks.check_sweep_storage(storage, s_text)
    return gamma, g_text, storage, s_text


@pytest.mark.parametrize(
    "col, fn",
    [
        (1, lambda u: u * (1 + 1e-6)),  # q_min is not U_V
        (2, lambda u: 0.0),  # qp_min < q_min
        (6, lambda s: s * 1.1),  # s_nsp_ups > s_nsp_nups
        (7, lambda s: s * 1.1),  # s_glb_nups > s_glb_ups
    ],
)
def test_sweep_gamma_check_rejects(sweeps, col, fn):
    gamma, text, _, _ = sweeps
    _rejects("sweep-gamma", gamma, _corrupt(text, 10, col, fn))


def test_sweep_storage_check_rejects_fewer_participants(sweeps):
    _, _, storage, text = sweeps
    rows = _rows(text)
    assert int(rows[-1][1]) > 1
    _rejects("sweep-storage", storage, _corrupt(text, len(rows) - 1, 1, lambda u: 1))


@pytest.mark.parametrize("col", [4, 5])  # s_nsp_ups, s_glb_nups
def test_sweep_storage_check_rejects_profit_order(sweeps, col):
    _, _, storage, text = sweeps
    _rejects("sweep-storage", storage, _corrupt(text, 20, col, lambda s: s * 1.1))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Q = 100 keeps 5 to 7 of the 15 retailers in the market."""
    tmp = tmp_path_factory.mktemp("solve")
    base = workloads._market_argv(MARKET) + ["--gamma", "0.5", "--Q", "100"]
    out = {}
    for scheme in workloads.SCHEMES:
        params = {**MARKET, "Q": 100, "scheme": scheme}
        text = _output(tmp, ["solve", "--scheme", scheme, *base])
        out[scheme] = (params, text, checks.check_solve(params, text))
    assert not checks.check_market({s: parsed for s, (_, _, parsed) in out.items()})
    return out


def _solve_rejects(solved, scheme, edit):
    params, text, _ = solved[scheme]
    rows = _rows(text)
    edit(rows)
    _rejects("solve", params, _text(rows))


@pytest.mark.parametrize("scheme", workloads.SCHEMES)
def test_solve_check_rejects_fraction_out_of_range(solved, scheme):
    _solve_rejects(solved, scheme, lambda rows: rows[1].__setitem__(2, "1.5"))


@pytest.mark.parametrize("scheme", workloads.SCHEMES)
def test_solve_check_rejects_budget_overrun(solved, scheme):
    _solve_rejects(solved, scheme, lambda rows: rows[1].__setitem__(2, "0.99"))


@pytest.mark.parametrize("scheme", workloads.SCHEMES)
def test_solve_check_rejects_a_gap_in_participation(solved, scheme):
    def swap(rows):
        rows[1][2], rows[15][2] = rows[15][2], rows[1][2]

    assert float(solved[scheme][1].splitlines()[15].split(",")[2]) == 0.0
    _solve_rejects(solved, scheme, swap)


@pytest.mark.parametrize("scheme", workloads.SCHEMES)
def test_solve_check_rejects_participant_count(solved, scheme):
    def bump(rows):
        rows[-1][1] = str(int(rows[-1][1]) + 1)

    _solve_rejects(solved, scheme, bump)


@pytest.mark.parametrize("scheme", workloads.SCHEMES)
def test_solve_check_rejects_sum_profit(solved, scheme):
    def bump(rows):
        rows[-1][5] = repr(float(rows[-1][5]) * (1 + 1e-6))

    _solve_rejects(solved, scheme, bump)


def test_market_check_rejects_ups_off_water_filling(solved):
    parsed = {s: dict(p) for s, (_, _, p) in solved.items()}
    parsed["ups"]["tau"] = parsed["ups"]["tau"] + 1e-6 * (parsed["ups"]["tau"] > 0)
    assert set(checks.check_market(parsed)) == {"ups"}


def test_market_check_rejects_water_filling_below_nups(solved):
    parsed = {s: dict(p) for s, (_, _, p) in solved.items()}
    parsed["waterfill"]["s_glb"] = parsed["nups"]["s_glb"] * (1 - 1e-6)
    assert set(checks.check_market(parsed)) == {"waterfill"}
