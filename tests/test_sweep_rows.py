"""Sweeps solve their points together: the rows must equal one point at a time."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from price_oracle import posted_prices, row_constants

from cachemarket import cli, equilibrium, harness
from cachemarket.economics import ProfitReport, profit_report
from cachemarket.equilibrium import (
    RowOutcomes,
    VerificationFailure,
    nups_solve,
    solve_rows,
    ups_solve,
    verify_equilibrium,
)
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
        last = (float(instance.brackets("NUPS")[0, -1]), float(instance.brackets("UPS")[0, -1]))
        front = last if kind == "gamma" else ()
        rows.append(
            (
                value,
                *front,
                nups.n_participants[0],
                ups.n_participants[0],
                nups.report.nsp_total[0],
                ups.report.nsp_total[0],
                nups.report.global_total[0],
                ups.report.global_total[0],
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
    instance = make_instance(cfg)
    # non-integer Q, Q > N, and Q on and around the first few bracket edges
    edges = [float(x) for k in ("NUPS", "UPS") for x in instance.brackets(k)[0, 1:4]]
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
    # gamma = 1 takes ndarray **'s reciprocal shortcut in zipf_rows
    values = [0.0, 0.5, 1.0, 2.0] + rng.uniform(0.0, 2.5, 12).tolist()
    assert_sweep_matches_points(cfg, "gamma", values)


def test_zero_weight_retailers_in_a_gamma_sweep():
    cfg = ExperimentConfig(n_vrs=1000)
    assert_sweep_matches_points(cfg, "gamma", [0.5, 150.0, 200.0])


# the market of the subnormal FOUND case: Gamma_1 * Lambda * s_ld is
# 3.5e-322 at Q = 10, so the NUPS fraction rounded to 0 although a price
# was posted; the floor rejects it first
SUBNORMAL = ExperimentConfig(
    s_bh=1e-164, requests_per_mu=3.162277660168379e-160, sbs_intensity=1, n_vrs=20, gamma=1
)
SUBNORMAL_MARKET = ["--s-bh", "1e-164", "--K", "3.162277660168379e-160", "--lambda", "1",
                    "--V", "20"]  # fmt: skip
SUBNORMAL_ARGV = [*SUBNORMAL_MARKET, "--gamma", "1"]


def test_subnormal_market_fails_at_its_first_point():
    values = sweep_values(10, 500, 10)
    rows, error = point_rows(SUBNORMAL, "storage", values)
    assert rows == [] and type(error) is ValueError
    assert str(error).startswith("min(s_u, Theta^2 * lambda * s_u) = 4.94e-324 at u = 1 is below")
    assert_sweep_matches_points(SUBNORMAL, "storage", values)


def test_per_vr_fails_like_the_sweep_point(capsys):
    _, error = point_rows(SUBNORMAL, "storage", [10.0])
    line = f"config error: {error}\n"
    sweep = ["sweep-storage", *SUBNORMAL_ARGV, "--start", "10", "--stop", "500", "--step", "10"]
    assert cli.main(sweep) == 1
    assert capsys.readouterr().err == line
    assert cli.main(["per-vr", *SUBNORMAL_ARGV, "--Q", "10"]) == 1
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("scheme", ["nups", "ups"])
def test_solve_fails_like_per_vr(capsys, scheme):
    # solve and per-vr fail on the same price check, which names no scheme
    _, error = point_rows(SUBNORMAL, "storage", [10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--scheme", scheme, *SUBNORMAL_ARGV, "--Q", "10"]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"


def row_of(outcomes, i):
    """Row i of outcomes as a one-row RowOutcomes."""
    part = slice(i, i + 1)
    return RowOutcomes(
        outcomes.scheme,
        outcomes.n_participants[part],
        outcomes.prices[part],
        outcomes.fractions[part],
        outcomes.report.rows(part),
    )


def assert_report_is_profit_report(outcome, instance):
    """A one-row outcome's report holds, bit for bit, what profit_report computes from it."""
    expected = profit_report(
        outcome.fractions, outcome.prices, instance.gammas[0], instance.econ, row_constants(instance)
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
                assert_report_is_profit_report(row_of(outcomes, i), instance)


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
    calls = []

    def recording(scheme, rows):
        calls.append((scheme, rows.shape[0]))
        return real(scheme, rows)

    monkeypatch.setattr(harness, "solve_rows", recording)
    assert _cli_bytes(tmp_path, argv, "blocks.csv") == whole
    assert whole[0] == 0
    points = whole[1].count(b"\n") - 1
    # one pass for NUPS and UPS per block
    assert {scheme for scheme, _ in calls} == {("NUPS", "UPS")}
    sizes = [size for _, size in calls]
    assert len(sizes) == -(-points // 3) and max(sizes) == 3


# Theta^2 lambda s_u falls as gamma grows, and drops where Q admits one
# more retailer; in these markets it passes the normal floor at the first
# points and drops below it later
LATE_MARKET = ["--s-bh", "1e-164", "--lambda", "1", "--V", "20"]
LATE_FAILURES = {
    # ... first at Q = 360, where an 11th NUPS retailer joins
    "storage": ["sweep-storage", *LATE_MARKET, "--K", "5.32e-145", "--gamma", "1",
                "--start", "340", "--stop", "370", "--step", "10"],
    # ... and first at gamma = 0.35 for Q = 500
    "gamma": ["sweep-gamma", *LATE_MARKET, "--K", "3.52e-145", "--Q", "500",
              "--start", "0.25", "--stop", "0.4", "--step", "0.05"],
}  # fmt: skip


@pytest.mark.parametrize("block", [None, 22])
@pytest.mark.parametrize("name", sorted(LATE_FAILURES))
def test_first_failing_point_raises_its_own_error(capsys, monkeypatch, name, block):
    argv = LATE_FAILURES[name]
    if block is not None:
        monkeypatch.setattr(harness, "_SWEEP_BLOCK", block)  # one point per block
    kind = "storage" if argv[0] == "sweep-storage" else "gamma"
    flags = dict(zip(argv[1::2], argv[2::2]))
    values = sweep_values(*(float(flags[f]) for f in ("--start", "--stop", "--step")))
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    rows, error = point_rows(cfg, kind, values)
    assert len(rows) == 2 and "below the smallest normal float" in str(error)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_verification_runs_point_by_point(capsys, monkeypatch):
    real = harness.verify_equilibrium
    checked = []

    def fail_at_q30(outcome, rows, i):
        storage = rows.storage[i, 0]
        checked.append((storage, outcome.scheme))
        if storage == 30 and outcome.scheme == "UPS":
            raise VerificationFailure("planted at Q = 30")
        return real(outcome, rows, i)

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
    sweeps = [
        (run_sweep_storage, sweep_values(10, 500, 10)),
        (run_sweep_gamma, sweep_values(0.1, 2.5, 0.1)),
    ]
    # a verified sweep checks each point against its row of the block
    for verify in (False, True):
        for sweep, values in sweeps:
            calls.clear()
            vr_configs.clear()
            sweep(ExperimentConfig(), values, verify=verify)
            assert len(calls) == 1
            assert len(vr_configs) == 1  # one per make_instance, none per gamma point


@pytest.mark.parametrize(
    "kind, cfg, values",
    [
        ("storage", ExperimentConfig(n_vrs=120), sweep_values(10, 500, 10)),
        ("gamma", ExperimentConfig(n_vrs=1000, storage=50), sweep_values(0.1, 1.0, 0.1)),
    ],
    ids=["storage", "gamma"],
)
def test_block_row_verifies_like_its_own_market(monkeypatch, kind, cfg, values):
    # a point's row of the block holds its market's Gamma row and Lambda bit
    # for bit, so verifying against it gives the one-point market's record
    verified = []
    real = harness.verify_equilibrium

    def recorded(outcome, rows, i):
        record = real(outcome, rows, i)
        verified.append((outcome, rows, i, record))
        return record

    monkeypatch.setattr(harness, "verify_equilibrium", recorded)
    (run_sweep_storage if kind == "storage" else run_sweep_gamma)(cfg, values, verify=True)
    assert len(verified) == 2 * len(values)  # NUPS, then UPS, point by point
    for k, (outcome, rows, i, record) in enumerate(verified):
        own = make_instance(cfg, **{kind: values[k // 2]})
        assert rows.gammas[i].tobytes() == own.gammas[0].tobytes()
        assert rows.constants.lambda_big[i, 0] == own.constants.lambda_big[0, 0]
        assert real(row_of(outcome, i), own) == record


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["storage", "gamma"])
def test_one_point_block_is_its_market(kind, seed):
    # q, Gamma, U/Ubar, Q and Lambda of a one-point block are make_instance's, bit for bit
    rng = np.random.default_rng([seed, 12])
    cfg = _market(rng)
    if kind == "storage":  # Q = 1, non-integer Q, Q = N and Q > N
        values = [1.0, float(rng.uniform(1.0, cfg.n_files)), float(cfg.n_files), cfg.n_files + 0.5]
    else:  # gamma = 0 and 1 take ndarray **'s shortcuts in zipf_rows
        values = [0.0, 1.0, float(rng.uniform(0.0, 2.5))]
    first = make_instance(cfg, **{kind: values[0]})
    for value in values:
        got, want = harness._block_rows(first, kind, [value]), make_instance(cfg, **{kind: value})
        for name in ("q", "gammas", "storage"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (name, value)
        for scheme in ("NUPS", "UPS"):
            got_th, want_th = got.brackets(scheme), want.brackets(scheme)
            assert got_th.tobytes() == want_th.tobytes(), (scheme, value)
        assert got.constants.lambda_big.tobytes() == want.constants.lambda_big.tobytes(), value
        assert got.shape == want.shape == (1, cfg.n_vrs)


@pytest.mark.parametrize(
    "kind, values",
    [("storage", sweep_values(10, 500, 10)), ("gamma", sweep_values(0.1, 2.5, 0.1))],
    ids=["storage", "gamma"],
)
def test_verification_reads_row_i_of_the_outcomes(kind, values):
    # verifying row i of a block's outcomes gives the record of the
    # one-point block of point i; a fraction corrupted in row k fails
    # that row alone
    cfg = ExperimentConfig()
    first = make_instance(cfg, **{kind: values[0]})
    block = harness._block_rows(first, kind, values)
    k = len(values) // 2
    for outcomes in solve_rows(("NUPS", "UPS"), block):
        for i, value in enumerate(values):
            point = harness._block_rows(first, kind, [value])
            own = verify_equilibrium(solve_rows(outcomes.scheme, point), point)
            assert verify_equilibrium(outcomes, block, i) == own, value
        fractions = outcomes.fractions.copy()
        fractions[k, 0] *= 0.5
        corrupted = dataclasses.replace(outcomes, fractions=fractions)
        for i in range(len(values)):
            if i == k:
                with pytest.raises(VerificationFailure, match="^follower condition violated: "):
                    verify_equilibrium(corrupted, block, i)
            else:
                verify_equilibrium(corrupted, block, i)


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
        want_prices, want_posted = posted_prices(scheme, rows, u)
        prices = equilibrium._posted_prices(scheme, rows, u)
        assert np.array_equal(prices, want_prices)
        assert np.array_equal(prices > 0, want_posted)


def two_root_thresholds(q, n_files, constants):
    """U_v and Ubar_v of each row of q in one (2, R, V) pass, cbrt and sqrt stacked."""
    roots = np.stack([np.cbrt(q), np.sqrt(q)])
    ratios = np.full(roots.shape, np.inf)
    np.divide(np.cumsum(roots, axis=-1), roots, out=ratios, where=roots > 0)
    return (ratios - np.arange(1, q.shape[1] + 1)) * (n_files * constants.c / constants.theta)


@pytest.mark.parametrize(
    "kind, n_vrs, values",
    [
        ("storage", 15, sweep_values(1, 500, 5)),
        ("gamma", 120, sweep_values(0, 2.5, 0.1)),
        # Zipf weights past the first retailers underflow to 0: +inf thresholds
        ("gamma", 1000, [150.0, 200.0]),
    ],
)
def test_scheme_brackets_are_the_threshold_rows(kind, n_vrs, values):
    """Each scheme's brackets are U_v and Ubar_v; sweep-gamma's q_min and qp_min are the last."""
    cfg = ExperimentConfig(n_vrs=n_vrs)
    rows = harness._block_rows(make_instance(cfg), kind, values)
    stacked = two_root_thresholds(np.ascontiguousarray(rows.q), rows.n_files, rows.constants)
    for k, scheme in enumerate(("NUPS", "UPS")):
        got = rows.brackets(scheme)
        assert got.shape == ((1, n_vrs) if kind == "storage" else rows.shape)
        assert np.array_equal(np.broadcast_to(got, rows.shape), stacked[k])
        assert rows.brackets(scheme) is got
    if kind == "gamma":
        swept = list(zip(*run_sweep_gamma(cfg, values)))
        for k in (0, 1):  # the q_min and qp_min columns
            assert np.array(swept[1 + k]).tobytes() == stacked[k, :, -1].tobytes()
    if kind == "gamma" and n_vrs == 1000:
        assert np.isinf(stacked[:, :, -1]).all()


@pytest.mark.parametrize("n_vrs, gamma", [(1, 0.8), (15, 0.8), (120, 0.2)])
def test_broadcast_row_equals_its_materialised_copy(n_vrs, gamma):
    """A storage block's roots and sums, taken on its one Gamma row, equal every row's."""
    values = sweep_values(1, 500, 5)
    first = make_instance(ExperimentConfig(n_vrs=n_vrs, gamma=gamma), storage=values[0])
    rows = harness._block_rows(first, "storage", values)
    # row-major, as a gamma block is (np.array would copy it column-major)
    copy = dataclasses.replace(rows, q=np.ascontiguousarray(rows.q))
    assert rows.q.strides[0] == 0 and copy.q.strides[0] != 0
    assert rows.gammas.strides[0] == 0 and copy.gammas.strides[0] != 0
    # the block's brackets are taken on its one q row and broadcast
    for scheme in ("NUPS", "UPS"):
        assert rows.brackets(scheme).shape == (1, n_vrs)
        want = copy.brackets(scheme)
        assert np.array_equal(np.broadcast_to(rows.brackets(scheme), want.shape), want)
    for name, value in rows.pricing_products.items():
        assert np.array_equal(value, copy.pricing_products[name]), name
    for scheme in ("NUPS", "UPS"):
        got, want = solve_rows(scheme, rows), solve_rows(scheme, copy)
        for field in ("n_participants", "prices", "fractions"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for field in dataclasses.fields(ProfitReport):
            name = field.name
            assert np.array_equal(getattr(got.report, name), getattr(want.report, name)), name


@pytest.mark.parametrize("n_vrs", [1, 2, 7, 30, 64, 65, 119, 120])
@pytest.mark.parametrize("kind", ["storage", "gamma"])
def test_pair_pass_equals_one_scheme_calls(kind, n_vrs):
    """solve_rows(("NUPS", "UPS"), rows) gives, bit for bit, each scheme's own call."""
    rng = np.random.default_rng([n_vrs, 11])
    cfg = dataclasses.replace(_market(rng), n_vrs=n_vrs)
    if kind == "storage":  # one broadcast Gamma row
        values = rng.uniform(1.0, 1.3 * cfg.n_files, 40).tolist()
    else:  # gamma = 0 and 1 take ndarray **'s shortcuts in zipf_rows
        values = [0.0, 1.0, *rng.uniform(0.0, 2.5, 38).tolist()]
    rows = harness._block_rows(make_instance(cfg, **{kind: values[0]}), kind, values)
    pair = solve_rows(("NUPS", "UPS"), rows)
    assert len(pair) == 2
    for scheme, got in zip(("NUPS", "UPS"), pair):
        want = solve_rows(scheme, dataclasses.replace(rows))
        assert got.scheme == want.scheme == scheme
        for field in ("n_participants", "prices", "fractions"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for field in dataclasses.fields(ProfitReport):
            name = field.name
            assert np.array_equal(getattr(got.report, name), getattr(want.report, name)), name


def test_pair_budget_failure_names_its_scheme(monkeypatch):
    # UPS solves this market; NUPS, second in the stack, breaks the budget
    rows = make_instance(ExperimentConfig())
    solve_rows("UPS", rows)
    real = equilibrium._budget_fractions

    def nups_doubled(roots, *args):
        fractions = real(roots, *args)
        fractions[(roots == rows.q_roots("NUPS")).all(axis=1)] *= 2.0  # the NUPS rows
        return fractions

    monkeypatch.setattr(equilibrium, "_budget_fractions", nups_doubled)
    with pytest.raises(ArithmeticError) as one:
        solve_rows("NUPS", rows)
    with pytest.raises(ArithmeticError) as pair:
        solve_rows(("UPS", "NUPS"), rows)
    assert str(pair.value) == str(one.value)
    assert str(one.value).startswith("NUPS best responses sum to ")
