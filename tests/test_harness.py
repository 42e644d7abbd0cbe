"""Config parsing, sweep runners, CSV formatting, and the CLI."""

import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from cachemarket import cli, harness
from cachemarket.equilibrium import VerificationFailure, nups_solve
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
SMALL_SIM = dict(tau_grid=(0.2, 0.8), q_grid=(50,), lambda_grid=(10.0,), trials=300)


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

    def test_format_rows(self):
        text = format_rows(["a", "b"], [(1, 0.5), (2, EXCLUDED)])
        assert text == "a,b\n1,0.5\n2,EXCLUDED\n"

    def test_make_instance_clamps_storage(self):
        cfg = ExperimentConfig(n_files=100, storage=1000)
        instance = make_instance(cfg)
        assert instance.storage == 100
        assert instance.constants.lambda_big == instance.constants.c  # F = N/Q = 1

    def test_make_instance_non_divisible(self):
        instance = make_instance(ExperimentConfig(n_files=500, storage=300))
        assert instance.pops.p is None
        assert instance.constants.lambda_big == pytest.approx(
            instance.constants.c * 5 / 3
        )


class TestRunners:
    def test_verify_coverage_rows(self):
        cfg = ExperimentConfig(**SMALL_SIM)
        rows, ok = run_verify_coverage(cfg)
        assert ok
        assert len(rows) == 2
        assert len(rows[0]) == len(COVERAGE_HEADER)

    def test_verify_coverage_deterministic_across_jobs(self):
        cfg = ExperimentConfig(**SMALL_SIM)
        serial = format_rows(COVERAGE_HEADER, run_verify_coverage(cfg, jobs=1)[0])
        threaded = format_rows(COVERAGE_HEADER, run_verify_coverage(cfg, jobs=4)[0])
        repeat = format_rows(COVERAGE_HEADER, run_verify_coverage(cfg, jobs=1)[0])
        assert serial == threaded == repeat

    def test_verify_coverage_rejects_bad_storage(self):
        cfg = ExperimentConfig(q_grid=(7,), **{k: v for k, v in SMALL_SIM.items() if k != "q_grid"})
        with pytest.raises(ConfigError, match="does not divide"):
            run_verify_coverage(cfg)

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

    def test_inconsistent_outcome_exit_code(self, monkeypatch):
        def inconsistent(instance):
            outcome = nups_solve(instance)
            return replace(outcome, n_participants=outcome.n_participants + 1)

        monkeypatch.setattr(harness, "nups_solve", inconsistent)
        with pytest.raises(VerificationFailure, match="inconsistent outcome"):
            run_per_vr(ExperimentConfig())
        assert cli.main(["per-vr"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--delta", "2e4"],  # the 2F1 series does not converge
            # Theta = A - C + 1 cancels: best responses sum past 1 + 1e-9
            ["solve", "--scheme", "nups", "--alpha", "2.2193288013645645",
             "--delta", "80.49250043716155", "--beta", "0.42371299266268153",
             "--V", "11", "--N", "500", "--gamma", "0.18531846939972652",
             "--Q", "10"],
        ],
    )
    def test_numerical_failure_exit_code(self, capsys, argv):
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

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
             "Gamma_1 * Lambda * s_bh = 1.22e+308"),
        ],
    )  # fmt: skip
    def test_overflowing_product_exit_code(self, capsys, argv, product):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {product}")
        assert "overflows a float" in err and err.count("\n") == 1

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

    def test_non_finite_config_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("gamma = nan\n")
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert "bad value for gamma: must be finite" in capsys.readouterr().err

    def test_coverage_mismatch_exit_code(self, monkeypatch, tmp_path):
        def mismatched(cfg, jobs=1):
            return [(0.5, 10, 10.0, 10, 0.9, 0.01, 0.1, 0.8)], False

        monkeypatch.setattr(cli, "run_verify_coverage", mismatched)
        out = tmp_path / "cov.csv"
        assert cli.main(["verify-coverage", "--out", str(out)]) == 3
        assert out.exists()

    def test_override_flags(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli.main(["per-vr", "--V", "3", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 retailers
