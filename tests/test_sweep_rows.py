"""Sweeps solve their points together: the rows must equal one point at a time."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from price_oracle import posted_prices

from cachemarket import cli, equilibrium, harness
from cachemarket.economics import ProfitReport, profit_report
from cachemarket.equilibrium import VerificationFailure, nups_solve, solve_rows, ups_solve
from cachemarket.harness import (
    ConfigError,
    ExperimentConfig,
    make_instance,
    run_sweep_gamma,
    run_sweep_storage,
    sweep_values,
)


def point_rows(cfg, kind, values):
    """Sweep rows built point by point from nups_solve / ups_solve.

    Returns the rows and the error of the first failing point, if any.
    """
    rows = []
    for value in values:
        try:
            instance = make_instance(cfg, **{kind: value})
            nups, ups = nups_solve(instance), ups_solve(instance)
        except (ValueError, ArithmeticError, VerificationFailure) as exc:
            return rows, exc
        th = instance.thresholds
        front = (float(th.u_values[-1]), float(th.u_bar_values[-1])) if kind == "gamma" else ()
        rows.append(
            (
                value,
                *front,
                nups.n_participants,
                ups.n_participants,
                nups.report.nsp_total,
                ups.report.nsp_total,
                nups.report.global_total,
                ups.report.global_total,
            )
        )
    return rows, None


def assert_sweep_matches_points(cfg, kind, values):
    run = run_sweep_gamma if kind == "gamma" else run_sweep_storage
    expected, error = point_rows(cfg, kind, values)
    if error is None:
        assert run(cfg, values) == expected
    else:
        with pytest.raises(type(error)) as exc:
            run(cfg, values)
        assert str(exc.value) == str(error)


def _market(rng):
    return ExperimentConfig(
        alpha=float(rng.uniform(2.2, 6.0)),
        delta=float(10.0 ** rng.uniform(-3.0, 1.5)),
        beta=float(rng.uniform(0.3, 1.5)),
        n_vrs=int(np.exp(rng.uniform(0.0, np.log(300.0)))),
        n_files=int(rng.choice([100, 500])),
        gamma=float(rng.uniform(0.0, 2.5)),
        storage=int(rng.integers(1, 600)),
    )


@pytest.mark.parametrize("seed", range(12))
def test_storage_sweep_equals_point_solves(seed):
    rng = np.random.default_rng([seed, 7])
    cfg = _market(rng)
    th = make_instance(cfg).thresholds
    # non-integer Q, Q > N, and Q on and around the first few bracket edges
    edges = [float(x) for x in np.concatenate([th.u_values[1:4], th.u_bar_values[1:4]])]
    values = sorted(
        {q for q in rng.uniform(1.0, 1.3 * cfg.n_files, 12).tolist()}
        | {q + d for q in edges if q + 1e-12 >= 1.0 for d in (-1e-12, 0.0, 1e-12)}
        | {1.0, float(cfg.n_files), cfg.n_files + 0.5}
    )
    assert_sweep_matches_points(cfg, "storage", values)


@pytest.mark.parametrize("seed", range(12))
def test_gamma_sweep_equals_point_solves(seed):
    rng = np.random.default_rng([seed, 8])
    cfg = _market(rng)
    # gamma = 1 takes ndarray **'s reciprocal shortcut in zipf_vector
    values = [0.0, 0.5, 1.0, 2.0] + rng.uniform(0.0, 2.5, 12).tolist()
    assert_sweep_matches_points(cfg, "gamma", values)


def test_zero_weight_retailers_in_a_gamma_sweep():
    cfg = ExperimentConfig(n_vrs=1000)
    assert_sweep_matches_points(cfg, "gamma", [0.5, 150.0, 200.0])


# the market of the subnormal FOUND case: the NUPS fraction at Q = 10
# rounds to 0 although a price is posted
SUBNORMAL = ExperimentConfig(
    s_bh=1e-164, requests_per_mu=3.162277660168379e-160, sbs_intensity=1, n_vrs=20, gamma=1
)
SUBNORMAL_MARKET = ["--s-bh", "1e-164", "--K", "3.162277660168379e-160", "--lambda", "1",
                    "--V", "20"]  # fmt: skip
SUBNORMAL_ARGV = [*SUBNORMAL_MARKET, "--gamma", "1"]


def test_subnormal_market_fails_at_its_first_point():
    values = sweep_values(10, 500, 10)
    rows, error = point_rows(SUBNORMAL, "storage", values)
    assert rows == [] and "inconsistent outcome" in str(error)
    assert_sweep_matches_points(SUBNORMAL, "storage", values)


def test_per_vr_fails_like_the_sweep_point(capsys):
    _, error = point_rows(SUBNORMAL, "storage", [10.0])
    line = f"verification failure: {error}\n"
    sweep = ["sweep-storage", *SUBNORMAL_ARGV, "--start", "10", "--stop", "500", "--step", "10"]
    assert cli.main(sweep) == 2
    assert capsys.readouterr().err == line
    assert cli.main(["per-vr", *SUBNORMAL_ARGV, "--Q", "10"]) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("scheme", ["nups", "ups"])
def test_solve_fails_like_per_vr(capsys, scheme):
    # solve checks the participants before the verifier sees the outcome
    _, error = point_rows(SUBNORMAL, "storage", [10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--scheme", scheme, *SUBNORMAL_ARGV, "--Q", "10"]) == 2
    assert capsys.readouterr().err == f"verification failure: {error}\n"


def assert_report_is_profit_report(outcome, instance):
    """outcome.report holds, bit for bit, what profit_report computes from it."""
    expected = profit_report(
        outcome.fractions, outcome.prices, instance.pops, instance.econ, instance.constants
    )
    for field in dataclasses.fields(ProfitReport):
        got, want = getattr(outcome.report, field.name), getattr(expected, field.name)
        assert type(got) is type(want), field.name
        got, want = np.asarray(got), np.asarray(want)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), field.name


REPORT_MARKETS = [
    ExperimentConfig(n_vrs=1),
    ExperimentConfig(n_vrs=1000, gamma=200.0),  # Zipf weights past retailer 1 underflow to 0
    ExperimentConfig(n_vrs=40, gamma=0.0, n_files=100),
]


@pytest.mark.parametrize("market", range(len(REPORT_MARKETS) + 6))
def test_row_reports_equal_profit_report(market):
    if market < len(REPORT_MARKETS):
        cfg = REPORT_MARKETS[market]
    else:
        cfg = _market(np.random.default_rng([market, 9]))
    n = cfg.n_files
    # Q = 1, non-integer Q, Q dividing N, Q = N and Q > N
    sweeps = {"storage": [1.0, 37.5, n / 4, float(n), n + 0.5, 3.0 * n],
              "gamma": [0.0, 0.5, 1.0, cfg.gamma]}  # fmt: skip
    for kind, values in sweeps.items():
        for value in values:
            instance = make_instance(cfg, **{kind: value})
            for solve in (nups_solve, ups_solve):
                assert_report_is_profit_report(solve(instance), instance)
        block = harness._block_rows(make_instance(cfg, **{kind: values[0]}), kind, values)
        for scheme in ("NUPS", "UPS"):
            outcomes = solve_rows(scheme, block)
            for i, value in enumerate(values):
                instance = make_instance(cfg, **{kind: value})
                assert_report_is_profit_report(outcomes.outcome(i), instance)


def _cli_bytes(tmp_path, argv, name):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-storage", "--V", "15", "--start", "10", "--stop", "500", "--step", "7.5"],
        ["sweep-gamma", "--V", "40", "--start", "0", "--stop", "2.5", "--step", "0.05"],
        ["sweep-gamma", "--V", "6", "--verify"],
        # 79 distinct NUPS participant counts over 100 points
        ["sweep-storage", "--V", "120", "--gamma", "0.2", "--start", "1", "--stop", "500",
         "--step", "5"],
    ],
)
def test_small_blocks_give_the_same_bytes(tmp_path, monkeypatch, argv):
    whole = _cli_bytes(tmp_path, argv, "whole.csv")
    v = int(argv[argv.index("--V") + 1])
    monkeypatch.setattr(harness, "_SWEEP_BLOCK", 3 * v)  # three points per block
    real = harness.solve_rows
    sizes = []

    def recording(scheme, rows):
        sizes.append(rows.shape[0])
        return real(scheme, rows)

    monkeypatch.setattr(harness, "solve_rows", recording)
    assert _cli_bytes(tmp_path, argv, "blocks.csv") == whole
    assert whole[0] == 0
    points = whole[1].count(b"\n") - 1
    assert len(sizes) == 2 * -(-points // 3) and max(sizes) == 3  # NUPS and UPS per block


LATE_FAILURES = {
    # the subnormal market's best responses break first at Q = 18
    "storage": ["sweep-storage", *SUBNORMAL_ARGV, "--start", "13", "--stop", "20",
                "--step", "1"],
    # ... and first at gamma = 0.95 for Q = 20
    "gamma": ["sweep-gamma", *SUBNORMAL_MARKET, "--Q", "20", "--start", "0.85", "--stop", "1.0",
              "--step", "0.05"],
}  # fmt: skip


@pytest.mark.parametrize("block", [None, 22])
@pytest.mark.parametrize("name", sorted(LATE_FAILURES))
def test_first_failing_point_raises_its_own_error(capsys, monkeypatch, name, block):
    argv = LATE_FAILURES[name]
    if block is not None:
        monkeypatch.setattr(harness, "_SWEEP_BLOCK", block)  # 1-2 points per block
    kind = "storage" if argv[0] == "sweep-storage" else "gamma"
    flags = dict(zip(argv[1::2], argv[2::2]))
    values = sweep_values(*(float(flags[f]) for f in ("--start", "--stop", "--step")))
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    rows, error = point_rows(cfg, kind, values)
    assert rows and error is not None  # the first point solves, a later one fails
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == f"numerical failure: {error}\n"


def test_verification_runs_point_by_point(capsys, monkeypatch):
    real = harness.verify_equilibrium
    checked = []

    def fail_at_q30(outcome, instance):
        checked.append((instance.storage, outcome.scheme))
        if instance.storage == 30 and outcome.scheme == "UPS":
            raise VerificationFailure("planted at Q = 30")
        return real(outcome, instance)

    monkeypatch.setattr(harness, "verify_equilibrium", fail_at_q30)
    argv = ["sweep-storage", "--start", "10", "--stop", "50", "--step", "10", "--verify"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "verification failure: planted at Q = 30\n"
    assert checked == [(q, s) for q in (10, 20, 30) for s in ("NUPS", "UPS")]


def test_one_instance_per_sweep(monkeypatch):
    calls = []
    real = harness.make_instance

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "make_instance", counted)
    vr_configs = []
    real_vr_config = harness.VrConfig

    def vr_config(*args, **kwargs):
        vr_configs.append(kwargs)
        return real_vr_config(*args, **kwargs)

    monkeypatch.setattr(harness, "VrConfig", vr_config)
    run_sweep_storage(ExperimentConfig(), sweep_values(10, 500, 10))
    run_sweep_gamma(ExperimentConfig(), sweep_values(0.1, 2.5, 0.1))
    assert len(calls) == 2
    assert len(vr_configs) == 2  # one per make_instance, none per gamma point


def test_bad_point_past_the_first_is_a_config_error():
    # sweep_values grids only grow, so only a library caller can place these
    # late; gamma = -1e-300 would otherwise solve like gamma = 0
    with pytest.raises(ConfigError, match="storage must be >= 1, got 0.5"):
        run_sweep_storage(ExperimentConfig(), [2.0, 0.5])
    with pytest.raises(ValueError, match="vr_exponent must be finite and >= 0, got -1e-300"):
        run_sweep_gamma(ExperimentConfig(), [0.5, -1e-300])
    # a block is checked at once; the error names its first bad value
    with pytest.raises(ValueError, match="vr_exponent must be finite and >= 0, got nan"):
        run_sweep_gamma(ExperimentConfig(), [0.5, 1.0, float("nan"), -1.0, float("inf")])
    with pytest.raises(ValueError, match="vr_exponent must be finite and >= 0, got -inf"):
        run_sweep_gamma(ExperimentConfig(), [0.5, float("-inf"), float("nan")])


@pytest.mark.parametrize("spread", ["shared", "own", "mixed"])
@pytest.mark.parametrize("kind", ["storage", "gamma"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(long_rows=st.booleans(), data=st.data())
def test_posted_prices_equal_the_row_loop(kind, spread, long_rows, data):
    """One root sum per distinct u gives the per-row loop's prices, bit for bit.

    A storage block broadcasts one Gamma row, a gamma block has its own
    Gamma per row.  Every row shares one u, has its own, or one of a
    few; u <= 7 sums in order, u >= 8 takes numpy's unrolled pairwise
    path.
    """
    n_vrs = data.draw(st.integers(8, 3000) if long_rows else st.integers(1, 3000))
    lo, hi = (8, n_vrs) if long_rows else (1, min(n_vrs, 7))
    max_rows = harness._SWEEP_BLOCK // n_vrs
    if spread == "own":
        max_rows = min(max_rows, hi - lo + 1)
    n_rows = data.draw(st.integers(1, max_rows))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if spread == "shared":
        u = np.full(n_rows, rng.integers(lo, hi + 1))
    elif spread == "own":
        u = rng.choice(np.arange(lo, hi + 1), n_rows, replace=False)
    else:
        u = rng.choice(rng.integers(lo, hi + 1, 3), n_rows)
    cfg = ExperimentConfig(n_vrs=n_vrs, gamma=float(rng.uniform(0.0, 2.5)))
    values = (rng.uniform(1.0, 600.0, n_rows) if kind == "storage"
              else rng.uniform(0.0, 2.5, n_rows)).tolist()  # fmt: skip
    rows = harness._block_rows(make_instance(cfg, **{kind: values[0]}), kind, values)
    assert n_rows == 1 or (rows.gammas.strides[0] == 0) == (kind == "storage")
    for scheme in ("NUPS", "UPS"):
        prices, posted = equilibrium._posted_prices(scheme, rows, u)
        want_prices, want_posted = posted_prices(scheme, rows, u)
        assert np.array_equal(prices, want_prices)
        assert np.array_equal(posted, want_posted)


@pytest.mark.parametrize("n_vrs, gamma", [(1, 0.8), (15, 0.8), (120, 0.2)])
def test_broadcast_row_equals_its_materialised_copy(n_vrs, gamma):
    """A storage block's roots and sums, taken on its one Gamma row, equal every row's."""
    values = sweep_values(1, 500, 5)
    first = make_instance(ExperimentConfig(n_vrs=n_vrs, gamma=gamma), storage=values[0])
    rows = harness._block_rows(first, "storage", values)
    # row-major, as a gamma block is (np.array would copy it column-major)
    copy = dataclasses.replace(rows, gammas=np.ascontiguousarray(rows.gammas))
    assert rows.gammas.strides[0] == 0 and copy.gammas.strides[0] != 0
    for name, value in rows.pricing_products.items():
        assert np.array_equal(value, copy.pricing_products[name]), name
    for scheme in ("NUPS", "UPS"):
        assert np.array_equal(
            equilibrium._surrogates(scheme, rows, n_vrs),
            equilibrium._surrogates(scheme, copy, n_vrs),
        )
        got, want = solve_rows(scheme, rows), solve_rows(scheme, copy)
        for field in ("n_participants", "prices", "fractions"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for field in dataclasses.fields(ProfitReport):
            name = field.name
            assert np.array_equal(getattr(got.report, name), getattr(want.report, name)), name
