"""Config parsing, sweep runners, CSV formatting, and the CLI."""

import argparse
import math
import multiprocessing
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachemarket import cli, equilibrium, harness
from cachemarket.equilibrium import VerificationFailure, nups_solve, ups_solve
from cachemarket.harness import (
    COVERAGE_HEADER,
    EXCLUDED,
    ConfigError,
    ExperimentConfig,
    format_rows,
    load_config,
    make_instance,
    run_per_vr,
    run_solve,
    run_sweep_gamma,
    run_verify_coverage,
    sweep_values,
)

HELP = Path(__file__).parent / "help"
GOLDEN = Path(__file__).parent / "golden"
# a market where Theta = A - C + 1 loses nine digits to cancellation
CANCELLING = ["--alpha", "2.2193288013645645", "--delta", "80.49250043716155",
              "--beta", "0.42371299266268153", "--V", "11", "--N", "500"]  # fmt: skip
SMALL_SIM = dict(tau_grid=(0.2, 0.8), q_grid=(50,), lambda_grid=(10.0,), trials=300)


def _fmt(value) -> str:
    """The reference spelling of one CSV cell, which format_rows must match."""
    if value is EXCLUDED:
        return "EXCLUDED"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scenario\n"
            "alpha = 3.5\n"
            "lambda = 20   # cells per km^2\n"
            "V = 8\n"
            "Q = 100\n"
            "tau_grid = 0.25, 0.75\n"
            "q_grid = 10,50\n"
            "\n"
        )
        cfg = load_config(str(path))
        assert cfg.alpha == 3.5
        assert cfg.sbs_intensity == 20.0
        assert cfg.n_vrs == 8
        assert cfg.storage == 100
        assert cfg.tau_grid == (0.25, 0.75)
        assert cfg.q_grid == (10, 50)
        assert cfg.delta == 0.01  # untouched default

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = four\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("line", ["gamma = nan", "delta = inf", "tau_grid = 0.5, nan"])
    def test_non_finite_value(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"bad value for {key}: must be finite"):
            load_config(str(path))


class TestHelpers:
    def test_sweep_values(self):
        grid = sweep_values(0.1, 1.0, 0.1)
        assert len(grid) == 10
        assert grid[0] == 0.1
        assert grid[-1] == 1.0
        assert sweep_values(5.0, 5.0, 1.0) == [5.0]
        with pytest.raises(ConfigError):
            sweep_values(0.1, 1.0, 0.0)
        with pytest.raises(ConfigError):
            sweep_values(1.0, 0.1, 0.1)
        # rounding to 12 decimals merges points closer than that
        assert sweep_values(0.0, 3e-12, 1e-12) == [0.0, 1e-12, 2e-12, 3e-12]
        with pytest.raises(ConfigError, match="step 2e-13 is too small: sweep points 0 and 1"):
            sweep_values(0.0, 1e-12, 2e-13)
        with pytest.raises(ConfigError, match="step 6e-13 is too small: sweep points 1 and 2"):
            sweep_values(0.0, 3e-12, 6e-13)
        with pytest.raises(ConfigError, match="step 2e-13 is too small"):
            sweep_values(10.0, 10.000000000001, 2e-13)
        # a step this small overflows the point count; it is refused before
        # a single point is built
        with pytest.raises(ConfigError, match="step 1e-320 does not split"):
            sweep_values(0.0, 1.0, 1e-320)

    def test_format_rows(self):
        text = format_rows(["a", "b"], [(1, 0.5), (2, EXCLUDED)])
        assert text == "a,b\n1,0.5\n2,EXCLUDED\n"

    def test_format_rows_equals_formatting_each_cell(self):
        header = ["a", "b", "c", "d", "e", "f"]
        table = [
            (1, 0.5, np.float64(1 / 3), np.int64(-3), True, np.float32(0.1)),
            (2, math.nan, math.inf, -math.inf, -0.0, 5e-324),
            (3, 1.8e308, 10**20, 1e20, np.int32(7), np.uint8(255)),
            (4, 0.25, np.float64(-2.5e-7), np.int64(10), False, np.float32(3.0)),
            # the price column turns EXCLUDED, then back
            (5, EXCLUDED, 0.125, np.int64(1), True, np.float32(2.0)),
            (6, EXCLUDED, 0.375, np.int64(2), True, np.float32(4.0)),
            (7, 0.75, np.float64(0.0), np.int64(0), np.bool_(True), np.float32(-1.5)),
            (8, 0.875, np.float64(1e-300), np.int64(5), False, np.float32(8.0)),
        ]
        expected = [",".join(header)] + [",".join(map(_fmt, row)) for row in table]
        assert format_rows(header, table) == "\n".join(expected) + "\n"

    def test_format_rows_formats_rows_of_numbers_at_once(self):
        # rows of int, float and EXCLUDED cells, the runners' rows among
        # them, spell every cell as _fmt does
        header = ["a", "b", "c", "d", "e", "f"]
        table = [
            (1, EXCLUDED, 0.5, np.int64(-3), True, -0.0),
            (2, 0.25, EXCLUDED, np.int32(7), False, math.inf),
            (3, EXCLUDED, EXCLUDED, np.uint8(255), True, -math.inf),
            (4, EXCLUDED, 0.125, np.int64(0), False, np.float64(-0.0)),
        ]
        solved, summary = run_solve(ExperimentConfig(storage=10), "nups")
        assert solved[-1][1] is EXCLUDED
        rows = run_sweep_gamma(ExperimentConfig(), sweep_values(0.1, 2.5, 0.1))
        for head, body in [(header, table), (harness.OUTCOME_HEADER, solved),
                           (harness.SWEEP_GAMMA_HEADER, rows)]:  # fmt: skip
            expected = [",".join(head)] + [",".join(map(_fmt, row)) for row in body]
            assert format_rows(head, body) == "\n".join(expected) + "\n"
        nups = nups_solve(make_instance(ExperimentConfig(storage=10)))
        rep = nups.report
        totals = [rep.nsp_leasing, rep.nsp_backhaul_saving, rep.nsp_total, rep.global_total]
        cells = ["NUPS", nups.n_participants[0], *(t[0] for t in totals)]
        assert summary[1] == ",".join(cells[:1] + list(map(_fmt, cells[1:])))

    def test_format_rows_refuses_a_cell_it_cannot_spell(self):
        # %'s own error: a string is not spelled as the number it reads as
        with pytest.raises(TypeError, match="must be real number, not str"):
            format_rows(["a", "b"], [(1, 0.5), (2, "1.5")])

    def test_make_instance_clamps_storage(self):
        cfg = ExperimentConfig(n_files=100, storage=1000)
        instance = make_instance(cfg)
        assert instance.storage[0, 0] == 100
        assert instance.constants.lambda_big[0, 0] == instance.constants.c  # F = N/Q = 1

    def test_make_instance_non_divisible(self):
        instance = make_instance(ExperimentConfig(n_files=500, storage=300))
        assert instance.constants.lambda_big[0, 0] == pytest.approx(
            instance.constants.c * 5 / 3
        )


class TestRunners:
    def test_verify_coverage_rows(self):
        cfg = ExperimentConfig(**SMALL_SIM)
        rows, ok = run_verify_coverage(cfg)
        assert ok
        assert len(rows) == 2
        assert len(rows[0]) == len(COVERAGE_HEADER)

    def test_verify_coverage_deterministic(self):
        cfg = ExperimentConfig(**SMALL_SIM)
        first = format_rows(COVERAGE_HEADER, run_verify_coverage(cfg)[0])
        repeat = format_rows(COVERAGE_HEADER, run_verify_coverage(cfg)[0])
        assert first == repeat

    def test_verify_coverage_rejects_bad_storage(self):
        cfg = ExperimentConfig(q_grid=(7,), **{k: v for k, v in SMALL_SIM.items() if k != "q_grid"})
        with pytest.raises(ConfigError, match="does not divide"):
            run_verify_coverage(cfg)

    @pytest.mark.parametrize("q", ["0", "-5"])
    def test_verify_coverage_rejects_storage_below_one(self, capsys, tmp_path, q):
        # Q = 0 used to divide by zero (exit 4); Q < 0 blamed F, not Q
        path = tmp_path / "q.cfg"
        path.write_text(f"q_grid = {q}\n")
        assert cli.main(["verify-coverage", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: Q={q} in q_grid must be >= 1\n"

    def test_run_solve_output(self):
        rows, summary = run_solve(ExperimentConfig(), "nups")
        assert len(rows) == 15
        assert summary[0] == "scheme,participants,s_rt,s_bh,s_nsp,s_glb"
        assert summary[1].startswith("NUPS,15,")

    def test_run_solve_unknown_scheme(self):
        with pytest.raises(ConfigError):
            run_solve(ExperimentConfig(), "auction")

    def test_sweep_gamma_with_verification(self):
        rows = run_sweep_gamma(ExperimentConfig(), [0.3, 0.7], verify=True)
        assert len(rows) == 2
        assert all(len(row) == 9 for row in rows)


class TestCli:
    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = cli.main(["solve", "--scheme", "ups", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "vr,price,fraction,surcharge,rent,profit"
        assert lines[-2] == "scheme,participants,s_rt,s_bh,s_nsp,s_glb"
        assert lines[-1].startswith("UPS,")

    def test_solve_deterministic_output(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main(["per-vr", "--out", str(first)]) == 0
        assert cli.main(["per-vr", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert cli.main(["solve", "--config", str(path)]) == 1

    def test_invalid_value_exit_code(self):
        # mismatched surcharge has no pricing closed form
        assert cli.main(["solve", "--s-ld", "2.0"]) == 1

    def test_verification_failure_exit_code(self, monkeypatch):
        def broken(cfg, scheme, verify=True):
            raise VerificationFailure("planted")

        monkeypatch.setattr(cli, "run_solve", broken)
        assert cli.main(["solve"]) == 2

    def test_inconsistent_outcome_exit_code(self, capsys, monkeypatch):
        # every retailer takes part under both schemes at the defaults and Q >= 400
        instance = make_instance(ExperimentConfig())
        assert nups_solve(instance).n_participants == ups_solve(instance).n_participants == 15
        real = equilibrium._budget_fractions

        def last_fraction_lost(*args):
            fractions = real(*args)
            fractions[..., -1] = 0.0  # the last posted retailer's
            return fractions

        monkeypatch.setattr(equilibrium, "_budget_fractions", last_fraction_lost)
        message = "inconsistent outcome: participants=15, posted prices=15, positive fractions=14"
        with pytest.raises(VerificationFailure) as exc:
            run_per_vr(ExperimentConfig())
        assert str(exc.value) == message
        for argv in (
            ["per-vr"],
            ["solve", "--scheme", "nups"],
            ["solve", "--scheme", "ups"],
            ["sweep-storage", "--start", "400", "--stop", "500", "--step", "100"],
        ):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"verification failure: {message}\n"

    def test_nan_best_response_exit_code(self, capsys, monkeypatch):
        # a NaN fraction passes the budget check (its sum is NaN) and is
        # named by the fraction check, as the first fraction outside [0, 1]
        real = equilibrium._budget_fractions

        def third_fraction_nan(*args):
            fractions = real(*args)
            fractions[..., 2] = math.nan
            return fractions

        monkeypatch.setattr(equilibrium, "_budget_fractions", third_fraction_nan)
        assert cli.main(["solve", "--scheme", "ups"]) == 1
        assert capsys.readouterr().err == "config error: fraction 3 must lie in [0, 1], got nan\n"

    @pytest.mark.parametrize("argv", [["solve", "--V", "1"], ["solve", "--scheme", "ups", "--V", "1"]])
    def test_numerical_failure_exit_code(self, capsys, monkeypatch, argv):
        # fractions that break the budget: the identity keeps a row's sum
        # within rounding of 1, so only a planted fault reaches this check
        real = equilibrium._budget_fractions
        monkeypatch.setattr(equilibrium, "_budget_fractions", lambda *args: 2.0 * real(*args))
        assert cli.main(argv) == 4
        scheme = "UPS" if "ups" in argv else "NUPS"
        assert capsys.readouterr().err == (
            f"numerical failure: {scheme} best responses sum to 2.0; the posted prices are broken\n"
        )

    @pytest.mark.parametrize("scheme", ["nups", "ups", "waterfill"])
    def test_idle_budget_exit_code(self, capsys, monkeypatch, scheme):
        # fractions that leave 1e-5 of the budget idle, which the leader
        # could use: the certificate rejects the outcome
        real = equilibrium._budget_fractions
        monkeypatch.setattr(
            equilibrium, "_budget_fractions", lambda *args: (1.0 - 1e-5) * real(*args)
        )
        condition, label = {
            "nups": ("leader", "provider profit"),
            "ups": ("leader", "back-haul saving"),
            "waterfill": ("sum-profit", "sum profit"),
        }[scheme]
        assert cli.main(["solve", "--scheme", scheme, "--V", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"verification failure: {condition} condition violated: ")
        assert err.endswith(f"(relative); retailer 1 has the largest marginal {label}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # Lambda / Theta is 1.3e7 to 2.3e10 here, and the best responses
            # to the rounded prices cancelled: their sum broke the budget
            # (exit 4) or left 2e-6 of it idle (exit 2)
            ["solve", "--delta", "2e4"],
            ["solve", "--scheme", "ups", "--alpha", "2.000000000001", "--delta", "2.1"],
            ["solve", "--alpha", "2.000000000001", "--delta", "2.1"],
            ["solve", "--alpha", "2.1", "--delta", "2e4", "--V", "1"],
            ["solve", "--scheme", "ups", "--alpha", "2.1", "--delta", "2e4", "--V", "1"],
            ["solve", "--scheme", "waterfill", "--alpha", "2.3", "--delta", "3000", "--V", "1",
             "--Q", "1"],
            ["solve", "--N", "1000000000000000"],
            ["per-vr", "--N", "1000000000000000", "--verify"],
            ["sweep-gamma", "--N", "1000000000000000", "--verify"],
        ],
    )  # fmt: skip
    def test_cancelling_markets_fill_the_budget(self, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        if argv[0] == "sweep-gamma":
            return
        rows = make_instance(cli._build_config(cli.build_parser().parse_args(argv)))
        if "--scheme" in argv:
            schemes = [argv[argv.index("--scheme") + 1].upper()]
        else:
            schemes = ["NUPS"] if argv[0] == "solve" else ["NUPS", "UPS"]
        for scheme in schemes:
            outcome = equilibrium.solve_rows(scheme, rows)
            equilibrium.verify_equilibrium(outcome, rows)
            assert abs(math.fsum(outcome.fractions[0].tolist()) - 1.0) <= 1e-15, scheme

    @pytest.mark.parametrize("scheme", ["nups", "ups"])
    def test_subnormal_product_exit_code(self, capsys, scheme):
        # the posted price is 5e-324: Gamma_1 * Lambda * s_ld = 1.7e-322 is
        # subnormal too, and best responses built on them broke the budget
        argv = ["solve", "--scheme", scheme, "--s-bh", "1e-164", "--K", "3.162277660168379e-160",
                "--lambda", "1", "--V", "20", "--gamma", "1", "--Q", "20"]  # fmt: skip
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: min(s_u, Theta^2 * lambda * s_u) = 4.94e-324 at u = 1 is below the "
            "smallest normal float, 2.23e-308\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # the Pfaff series sums delta -> 1- in a bounded number of terms
            ["solve", "--delta", "0.99999"],
            # Theta by its series: no cancellation at delta = 80
            ["per-vr", *CANCELLING, "--gamma", "0.18531846939972652", "--Q", "10", "--verify"],
            ["solve", "--scheme", "nups", *CANCELLING, "--gamma", "0.18531846939972652",
             "--Q", "10"],
        ],
    )  # fmt: skip
    def test_near_one_and_cancelling_markets_solve(self, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("command", ["solve", "per-vr", "sweep-storage"])
    def test_overflowing_thresholds_exit_code(self, capsys, command):
        # Theta is about 3e-301 at delta = 1e300, so N C / Theta overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--delta", "1e300"]) == 1
        assert capsys.readouterr().err == "config error: N * C / Theta = inf overflows a float\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--V", "x"],
            ["solve", "--scheme", "auction"],
            ["solve", "--no-such-flag"],
            [],
        ],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        # argparse's own code 2 would read as a verification failure
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, demand",
        [
            # zeta * K underflows to 0: every Gamma_v and so every price was
            # 0 ("price must be positive, got 0.0")
            *[([command, "--zeta", "1e-200", "--K", "1e-200"], "0")
              for command in ("solve", "per-vr", "sweep-gamma", "sweep-storage")],
            (["solve", "--scheme", "waterfill", "--zeta", "1e-200", "--K", "1e-200"], "0"),
            # subnormal: the floor on Gamma_u * Lambda * s_ld named that product
            (["solve", "--zeta", "1e-160", "--K", "1e-160"], "1e-320"),
        ],
    )  # fmt: skip
    def test_subnormal_demand_scale_exit_code(self, capsys, tmp_path, argv, demand):
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: zeta * K = {argv[argv.index('--zeta') + 1]} * "
            f"{argv[argv.index('--K') + 1]} = {demand} is below the smallest normal float, "
            "2.23e-308\n"
        )
        assert not out.exists()

    def test_overflowing_demand_scale_exit_code(self, capsys):
        assert cli.main(["solve", "--K", "1e300", "--zeta", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: zeta * K = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, product",
        [
            # zeta * K = 1e105 is finite; its product with s_bh is not
            (["solve", "--s-bh", "1e250", "--K", "1e100", "--zeta", "1e5"],
             "s * zeta * K = inf"),
            # the shared price divides by a tiny lambda
            (["solve", "--scheme", "ups", "--s-bh", "6.65169e+37",
              "--K", "1.33107e+69", "--zeta", "3.69877e+31", "--lambda", "4.65231e-186"],
             "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2)"),
            # Lambda = C N / Q is large at Q = 1
            (["solve", "--zeta", "1", "--K", "1e307", "--Q", "1"],
             "V * Lambda^2 * s_bh * S_2^2 = inf"),
            # Theta < 1 at delta = 10, so lambda * Theta^2 underflows to 0
            (["solve", "--lambda", "5e-324", "--delta", "10"],
             "Lambda * s_bh * max(S_3^2 Gamma_1^(1/3), S_2^2) / (lambda * Theta^2) = inf"),
        ],
    )  # fmt: skip
    def test_overflowing_product_exit_code(self, capsys, argv, product):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {product}")
        assert "overflows a float" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, u",
        [
            # lambda s_u is about 1e-340: the verifier's best responses
            # would divide 0 by 0.  u is the first failing row's count: 30 at
            # the default Q = 500, 1 at the storage sweep's Q = 10 and all 99
            # at the gamma sweep's gamma = 0.1
            *[([command, "--s-bh", "4.51602e-171", "--K", "6.30277e-170",
                "--lambda", "1.56591e-63", "--V", "99"], u)
              for command, u in (("solve", 30), ("sweep-storage", 1), ("sweep-gamma", 99))],
            # the posted price is 5e-324, and Theta^2 lambda times it is 0
            (["solve", "--scheme", "ups", "--V", "17", "--Q", "17", "--s-bh", "1.15734e-146",
              "--K", "1.07744e-178", "--lambda", "0.105123", "--delta", "0.22613121306098913"], 1),
            # the NUPS price scale is positive, but the last posted price,
            # scale * Gamma_15^(1/3), underflows to 0
            (["sweep-gamma", "--s-bh", "1e-164", "--K", "3.162277660168379e-160",
              "--lambda", "1", "--V", "20", "--Q", "20",
              "--start", "0.05", "--stop", "2.5", "--step", "0.05"], 15),
            # q_2 > 0, but Gamma_2 = q_2 zeta K, and so s_2, underflow to 0
            (["solve", "--delta", "1e-12", "--V", "2", "--gamma", "56",
              "--zeta", "1", "--K", "2.3e-308"], 2),
        ],
    )  # fmt: skip
    def test_underflowing_product_exit_code(self, capsys, argv, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: min(s_u, Theta^2 * lambda * s_u) = 0 at u = {u} is below the "
            "smallest normal float, 2.23e-308\n"
        )

    @pytest.mark.parametrize("command", ["solve", "sweep-storage"])
    def test_price_underflowing_to_zero_exit_code(self, capsys, command):
        # the posted-price scale is below the smallest float.  All 15
        # retailers take part at the defaults, 1 at the sweep's Q = 10.
        u = 15 if command == "solve" else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--s-bh", "1e-300", "--lambda", "1e300"]) == 1
        assert capsys.readouterr().err == (
            f"config error: min(s_u, Theta^2 * lambda * s_u) = 0 at u = {u} is below the "
            "smallest normal float, 2.23e-308\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--Q", "5"],
            ["solve", "--scheme", "ups", "--Q", "5"],
            ["sweep-storage", "--start", "1", "--stop", "12", "--step", "1"],
        ],
    )
    def test_demand_past_the_bracket_forms_no_overflow(self, tmp_path, command):
        # (sum_{j<=u} Gamma_j^(1/3))^3 overflows only for u past the 4
        # retailers Q = 5 admits; nothing the solver forms may warn
        argv = [*command, "--s-bh", "1e-10", "--zeta", "1", "--K", "5.623413251903491e+305",
                "--lambda", "1", "--V", "20", "--gamma", "0.05"]  # fmt: skip
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--V", "1000", "--gamma", "200"],
            ["sweep-gamma", "--V", "1000", "--start", "150", "--stop", "200", "--step", "50"],
        ],
    )
    def test_zero_zipf_weights_have_infinite_thresholds(self, tmp_path, argv):
        # q_v underflows to 0 for v >= 2: those retailers can never take part
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 0
        text = out.read_text()
        if argv[0] == "sweep-gamma":
            assert [row.split(",")[1:4] for row in text.splitlines()[1:]] == [
                ["inf", "inf", "1"]
            ] * 2
        else:
            assert text.count("EXCLUDED") == 999

    def test_pricing_bounds_leave_water_filling_alone(self, tmp_path):
        # the UPS price above overflows, but water-filling posts no price
        out = tmp_path / "waterfill.csv"
        argv = ["solve", "--scheme", "waterfill", "--s-bh", "6.65169e+37",
                "--K", "1.33107e+69", "--zeta", "3.69877e+31",
                "--lambda", "4.65231e-186", "--out", str(out)]  # fmt: skip
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert out.read_text().splitlines()[-1].startswith("WATERFILL,15,")

    @pytest.mark.parametrize("n_files", ["0", "-3"])
    def test_zero_file_count_names_n(self, capsys, n_files):
        assert cli.main(["solve", "--N", n_files]) == 1
        err = capsys.readouterr().err
        expected = f"file count N (--N, n_files) must be >= 1, got {n_files}"
        assert err == f"config error: {expected}\n"

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_keeps_no_state(self, capsys, tmp_path):
        # an error, a help request and non-default flags leave the golden intact
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--V", "x"])
        assert exc.value.code == 1
        assert "invalid int value: 'x'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cachemarket solve ")
        argv = ["sweep-gamma", "--V", "3", "--start", "0.5", "--stop", "1", "--step", "0.5"]
        assert cli.main([*argv, "--verify", "--out", str(tmp_path / "first.csv")]) == 0
        out = tmp_path / "sweep_gamma.csv"
        assert cli.main(["sweep-gamma", "--verify", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep_gamma.csv").read_bytes()

    def test_parsing_leaves_no_state(self):
        parser = cli.build_parser()
        plain = ["per-vr", "--V", "3"]
        first = vars(parser.parse_args(plain))
        parser.parse_args(["per-vr", "--verify", "--config", "run.cfg", "--gamma", "0.3"])
        assert vars(parser.parse_args(plain)) == first

    @pytest.mark.parametrize(
        "command",
        ["", "verify-coverage", "sweep-gamma", "sweep-storage", "per-vr", "solve"],
    )
    def test_help_text_unchanged(self, capsys, monkeypatch, command):
        # tests/help/ pins the help text at 80 columns; regenerate it only
        # with a declared interface change
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main([command, "--help"] if command else ["--help"])
        expected = HELP / f"{command or 'cachemarket'}.txt"
        assert capsys.readouterr().out == expected.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "--alpha", "nan"], "--alpha"),
            (["solve", "--gamma", "nan"], "--gamma"),
            (["solve", "--lambda", "inf"], "--lambda"),
            (["sweep-gamma", "--start", "nan"], "--start"),
            (["sweep-storage", "--step=-inf"], "--step"),
        ],
    )
    def test_non_finite_flag_exit_code(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-gamma", "--start", "0", "--stop", "1e-12", "--step", "2e-13"],
            ["sweep-storage", "--start", "10", "--stop", "10.000000000001", "--step", "2e-13"],
            ["sweep-gamma", "--start", "0", "--stop", "1", "--step", "1e-320"],
        ],
    )
    def test_colliding_sweep_points_exit_code(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: step {argv[-1]} ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_config_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("gamma = nan\n")
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert "bad value for gamma: must be finite" in capsys.readouterr().err

    def test_coverage_mismatch_exit_code(self, monkeypatch, tmp_path):
        def mismatched(cfg):
            return [(0.5, 10, 10.0, 10, 0.9, 0.01, 0.1, 0.8)], False

        monkeypatch.setattr(cli, "run_verify_coverage", mismatched)
        out = tmp_path / "cov.csv"
        assert cli.main(["verify-coverage", "--out", str(out)]) == 3
        assert out.exists()

    def test_jobs_flag_is_ignored(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.cfg"
        path.write_text("tau_grid = 0.2, 0.8\nq_grid = 50\nlambda_grid = 10\n")
        argv = ["verify-coverage", "--config", str(path), "--trials", "300"]

        def no_threads(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        assert cli.main([*argv, "--out", str(tmp_path / "serial.csv")]) == 0
        assert cli.main([*argv, "--jobs", "4", "--out", str(tmp_path / "jobs.csv")]) == 0
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial.count(b"\n") == 3  # header + 2 grid points
        assert (tmp_path / "jobs.csv").read_bytes() == serial

    def test_unwritable_output_exit_code(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert cli.main(["solve", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_names_the_flag(self, capsys, tmp_path):
        out = tmp_path / "cov.csv"
        argv = ["verify-coverage", "--seed", "-1", "--trials", "5", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["solve"], ["sweep-storage", "--verify"]])
    @pytest.mark.parametrize("beta", ["0", "2.5"])
    def test_beta_changes_no_output(self, tmp_path, argv, beta):
        # the solvers read only the retailer weights q, never the file weights
        default, other = tmp_path / "default.csv", tmp_path / "beta.csv"
        assert cli.main([*argv, "--out", str(default)]) == 0
        assert cli.main([*argv, "--beta", beta, "--out", str(other)]) == 0
        assert other.read_bytes() == default.read_bytes()

    def test_coverage_rejects_lambda_and_q_flags(self, capsys, tmp_path):
        # verify-coverage reads lambda_grid and q_grid; it once ignored these flags
        out = tmp_path / "cov.csv"
        for flag, value, grid in [("--lambda", "1e308", "lambda_grid"), ("--Q", "7", "q_grid")]:
            argv = ["verify-coverage", "--trials", "1", flag, value, "--out", str(out)]
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                f"config error: verify-coverage reads {grid} (set in a --config file), "
                f"not {flag}\n"
            )
            assert not out.exists()

    def test_coverage_window_overflow_exit_code(self, capsys, tmp_path):
        out = tmp_path / "cov.csv"
        argv = ["verify-coverage", "--radius", "1e200", "--trials", "1", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: expected SBS count lambda * pi * R^2 = inf is not finite "
            "(lambda = 10.0, R = 1e+200)\n"
        )
        assert not out.exists()

    def test_coverage_window_past_poisson_limit_exit_code(self, capsys, tmp_path):
        # numpy refused this mean with "lam value too large", naming neither R nor the mean
        out = tmp_path / "cov.csv"
        argv = ["verify-coverage", "--radius", "1e9", "--trials", "1", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: expected SBS count lambda * pi * R^2 = 3.14e+19 exceeds numpy's "
            "Poisson limit, 9.22e+18 (lambda = 10.0, R = 1000000000.0)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--V"])
    @pytest.mark.parametrize("command", ["solve", "per-vr", "sweep-gamma"])
    def test_market_too_large_for_memory_exit_code(self, capsys, tmp_path, command, flag):
        # 10^15 float64 values (7.1 PiB): numpy refuses the allocation
        # before any page is touched
        out = tmp_path / "out.csv"
        assert cli.main([command, flag, str(10**15), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the market does not fit in memory: Unable to allocate")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "per-vr"])
    def test_catalog_of_any_size_solves_as_its_group_count(self, tmp_path, command):
        # N = 10^15 files at Q = 2 10^13 is F = 50 groups, as N = 500 at Q = 10;
        # the closed forms never build an N-long popularity vector
        huge, small = tmp_path / "huge.csv", tmp_path / "small.csv"
        argv = ["--N", str(10**15), "--Q", str(2 * 10**13), "--out", str(huge)]
        assert cli.main([command, *argv]) == 0
        assert cli.main([command, "--N", "500", "--Q", "10", "--out", str(small)]) == 0
        assert huge.read_bytes() == small.read_bytes()

    def test_subcommand_skips_the_top_level_parse(self, monkeypatch, tmp_path):
        cli.build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed subcommand argv")

        # every parser of the tree: the top-level one and the subcommand's
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert cli.main(["solve", "--V", "3", "--out", str(tmp_path / "out.csv")]) == 0
        monkeypatch.undo()
        full = tmp_path / "full.csv"
        assert cli.main(["solve", "--V=3", "--out", str(full)]) == 0  # argparse reads "--V=3"
        assert (tmp_path / "out.csv").read_bytes() == full.read_bytes()

    def test_subcommand_leftovers_get_the_top_level_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "extra", "--V", "3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cachemarket [-h]")
        assert err.endswith("cachemarket: error: unrecognized arguments: extra\n")

    def test_override_flags(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli.main(["per-vr", "--V", "3", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 retailers


def _subcommand_parsers() -> dict:
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


# forms that argparse reads another way than a subcommand's exact flags:
# abbreviations (one ambiguous), "=" forms, "--" and help
ODD_OPTIONS = ["--alp", "--sch", "--no-v", "--st", "--alpha=4", "--V=3", "--", "-h", "--help", "-x"]
VALUES = ["3", "0.5", "4", "1e-3", "ups", "waterfill", "run.cfg", "-1", "-1e-3", "nan",
          "inf", "", " 2 ", "0x10", "NUPS", "solve"]  # fmt: skip


def _sound_flags(name: str) -> dict:
    """Each flag of one subcommand and the values its type accepts."""
    values = {int: ["3", " 2 "], float: ["0.5", "nan", "1e-3"], None: ["run.cfg", "ups"]}
    actions = _subcommand_parsers()[name]._option_string_actions
    return {
        option: [()] if action.nargs == 0  # store_true
        else [(value,) for value in action.choices or values[action.type]]
        for option, action in sorted(actions.items())
        if option not in ("-h", "--help")
    }


@st.composite
def _argvs(draw) -> list:
    """A subcommand, or not, then pieces: mostly its own flags with values
    its types accept, else a flag with any token, with none, or one odd
    token, which may be any subcommand's option."""
    parsers = _subcommand_parsers()
    every = sorted({option for p in parsers.values() for option in p._option_string_actions})
    first = draw(st.sampled_from([*sorted(parsers), "frobnicate", "--V", "-h"]))
    flags = _sound_flags(first if first in parsers else "solve")
    argv = [first]
    for _ in range(draw(st.integers(0, 8))):
        option, kind = draw(st.sampled_from(sorted(flags))), draw(st.integers(0, 9))
        if kind < 7:
            argv += [option, *draw(st.sampled_from(flags[option]))]
        elif kind == 7:
            argv += [option, draw(st.sampled_from(VALUES + ODD_OPTIONS))]
        elif kind == 8:
            argv.append(option)
        else:
            argv.append(draw(st.sampled_from(ODD_OPTIONS + VALUES + every)))
    return argv


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(argv=_argvs())
@example(argv=["solve", "--alph", "4"])
@example(argv=["solve", "--alpha=4"])
@example(argv=["solve", "--gamma", "-1"])
@example(argv=["solve", "--delta", "-1e-3"])
@example(argv=["solve", "--V", "3", "--V", "4"])
@example(argv=["per-vr", "--verify", "3"])
@example(argv=["solve", "--", "--V", "3"])
@example(argv=["sweep-gamma", "--V", "3", "-h"])
@example(argv=["solve", "--scheme", "NUPS"])
@example(argv=["solve", "--config", "-h"])
@example(argv=["solve", "--V", "0x10", "--alpha", "nan", "--out", ""])
@example(argv=["sweep-storage", "--st", "1"])
@example(argv=["per-vr", "--help", "run.cfg"])
def test_flag_reader_declines_or_matches_argparse(argv):
    """The flag reader returns None or exactly what parse_args returns.

    Compared by repr, so that NaN matches NaN and the field order counts.
    """
    args = cli._read_flags(argv)
    if args is None:
        return
    try:
        expected = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        raise AssertionError(f"read {argv}, which argparse refuses (exit {exc.code})")
    assert repr(vars(args)) == repr(vars(expected))


# four points of 200 trials: quick on either path
POOL_GRID = "tau_grid = 0.2, 0.8\nq_grid = 50\nlambda_grid = 10, 20\n"


def _coverage_path(monkeypatch, pooled: bool) -> None:
    """Send verify-coverage down the pool path or the serial one."""
    monkeypatch.setattr(harness, "_POOL_MIN_TRIALS", 0 if pooled else math.inf)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})


class TestCoveragePool:
    def _run(self, tmp_path, name, *extra):
        path = tmp_path / "grid.cfg"
        path.write_text(POOL_GRID)
        out = tmp_path / name
        argv = ["verify-coverage", "--config", str(path), "--trials", "200", *extra]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        return out.read_bytes()

    def test_pool_and_serial_write_the_same_bytes(self, tmp_path, monkeypatch):
        _coverage_path(monkeypatch, pooled=False)
        serial = self._run(tmp_path, "serial.csv")
        assert serial.count(b"\n") == 5  # header + 4 grid points
        _coverage_path(monkeypatch, pooled=True)
        assert harness._pool_workers(4, 200) == 3
        assert self._run(tmp_path, "pool.csv") == serial
        assert self._run(tmp_path, "jobs.csv", "--jobs", "4") == serial

    def test_pool_runs_a_wrapped_simulator(self, tmp_path, monkeypatch):
        # perfbench's tracer replaces the simulator with a closure, which
        # does not pickle; the workers must still find and run it
        _coverage_path(monkeypatch, pooled=False)
        serial = self._run(tmp_path, "serial.csv")
        calls = tmp_path / "calls"
        original = harness.simulate_hit_probability

        def wrapped(*args):
            with calls.open("a") as log:
                log.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(harness, "simulate_hit_probability", wrapped)
        _coverage_path(monkeypatch, pooled=True)
        assert self._run(tmp_path, "pool.csv") == serial
        pids = calls.read_text().split()
        assert len(pids) == 4 and str(os.getpid()) not in pids

    def test_bad_point_fails_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(harness, "simulate_hit_probability", no_trials)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "bad.cfg"
        path.write_text("tau_grid = 0.2, 1.5\n")
        out = tmp_path / "cov.csv"
        argv = ["verify-coverage", "--config", str(path), "--trials", "1000"]
        assert harness._pool_workers(24, 1000) == 2  # the grid is pool-sized
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: tau_v must lie in [0, 1], got 1.5\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_pool_size(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)))
        minimum = harness._POOL_MIN_TRIALS
        assert harness._pool_workers(10, minimum // 10) == 8
        assert harness._pool_workers(3, minimum) == 3  # at most one per point
        assert harness._pool_workers(10, minimum // 10 - 1) == 1
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert harness._pool_workers(10, minimum) == 1

    def test_other_threads_keep_the_grid_here(self, monkeypatch):
        # fork copies a lock another thread holds, but not the thread
        _coverage_path(monkeypatch, pooled=True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert harness._pool_workers(4, 200) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert harness._pool_workers(4, 200) == 3

    def test_daemonic_process_simulates_serially(self, tmp_path, monkeypatch):
        # a daemonic process may not start children, so it keeps the grid
        _coverage_path(monkeypatch, pooled=True)
        cfg = ExperimentConfig(**SMALL_SIM)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            assert pool.apply(harness._pool_workers, (2, 300)) == 1
            nested = pool.apply(run_verify_coverage, (cfg,))
        finally:
            pool.close()
            pool.join()
        assert nested == run_verify_coverage(cfg)
        assert multiprocessing.active_children() == []
