"""Command-line interface.

Subcommands: verify-coverage, sweep-gamma, sweep-storage, per-vr, solve.
Exit codes: 0 success, 1 config error (including a non-finite number
in a flag or config file), 2 equilibrium verification failure,
3 simulator-analytic mismatch beyond tolerance, 4 numerical failure
(an ArithmeticError, such as a series that does not converge).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .equilibrium import VerificationFailure
from .harness import (
    COVERAGE_HEADER,
    OUTCOME_HEADER,
    PER_VR_HEADER,
    SWEEP_GAMMA_HEADER,
    SWEEP_STORAGE_HEADER,
    ConfigError,
    ExperimentConfig,
    format_rows,
    load_config,
    run_per_vr,
    run_solve,
    run_sweep_gamma,
    run_sweep_storage,
    run_verify_coverage,
    sweep_values,
)

_OVERRIDES = [
    # (flag, config field, type)
    ("--alpha", "alpha", float),
    ("--delta", "delta", float),
    ("--lambda", "sbs_intensity", float),
    ("--zeta", "mu_intensity", float),
    ("--K", "requests_per_mu", float),
    ("--s-bh", "s_bh", float),
    ("--s-ld", "s_ld", float),
    ("--N", "n_files", int),
    ("--Q", "storage", int),
    ("--beta", "beta", float),
    ("--V", "n_vrs", int),
    ("--gamma", "gamma", float),
    ("--P", "tx_power", float),
    ("--sigma2", "noise_power", float),
    ("--radius", "window_radius", float),
    ("--trials", "trials", int),
    ("--seed", "seed", int),
]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    for flag, dest, kind in _OVERRIDES:
        parser.add_argument(flag, dest=f"cfg_{dest}", type=kind, default=None)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = [(flag, getattr(args, f"cfg_{dest}")) for flag, dest, _ in _OVERRIDES]
    flags += [(f"--{n}", getattr(args, n, None)) for n in ("start", "stop", "step")]
    for flag, value in flags:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    updates = {}
    for _, dest, _ in _OVERRIDES:
        value = getattr(args, f"cfg_{dest}")
        if value is not None:
            updates[dest] = value
    return replace(cfg, **updates)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachemarket",
        description="Stackelberg pricing for small-cell video caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-coverage", help="Monte-Carlo check of the hit-probability closed form"
    )
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="concurrent grid points")

    p = sub.add_parser("sweep-gamma", help="sweep the retailer preference exponent")
    _add_common(p)
    p.add_argument("--start", type=float, default=0.1)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--verify", action="store_true", help="perturbation-check outcomes")

    p = sub.add_parser("sweep-storage", help="sweep the per-SBS storage size")
    _add_common(p)
    p.add_argument("--start", type=float, default=10.0)
    p.add_argument("--stop", type=float, default=500.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--verify", action="store_true", help="perturbation-check outcomes")

    p = sub.add_parser("per-vr", help="per-retailer prices and fractions")
    _add_common(p)
    p.add_argument("--verify", action="store_true", help="perturbation-check outcomes")

    p = sub.add_parser("solve", help="solve one instance and print the outcome")
    _add_common(p)
    p.add_argument(
        "--scheme",
        choices=["nups", "ups", "waterfill"],
        default="nups",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the equilibrium perturbation checks",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "verify-coverage":
            rows, ok = run_verify_coverage(cfg, jobs=args.jobs)
            _emit(format_rows(COVERAGE_HEADER, rows), args.out)
            if not ok:
                print(
                    "simulator-analytic mismatch beyond tolerance", file=sys.stderr
                )
                return 3
        elif args.command == "sweep-gamma":
            gammas = sweep_values(args.start, args.stop, args.step)
            rows = run_sweep_gamma(cfg, gammas, verify=args.verify)
            _emit(format_rows(SWEEP_GAMMA_HEADER, rows), args.out)
        elif args.command == "sweep-storage":
            storages = sweep_values(args.start, args.stop, args.step)
            rows = run_sweep_storage(cfg, storages, verify=args.verify)
            _emit(format_rows(SWEEP_STORAGE_HEADER, rows), args.out)
        elif args.command == "per-vr":
            rows = run_per_vr(cfg, verify=args.verify)
            _emit(format_rows(PER_VR_HEADER, rows), args.out)
        elif args.command == "solve":
            rows, summary = run_solve(cfg, args.scheme, verify=not args.no_verify)
            text = format_rows(OUTCOME_HEADER, rows) + "\n".join(summary) + "\n"
            _emit(text, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
