"""Command-line interface.

Subcommands: verify-coverage, sweep-gamma, sweep-storage, per-vr, solve.
verify-coverage simulates its grid points on a fork process pool, one
worker per CPU, when the grid holds at least 10 000 trials (points x trials)
and the process can fork safely; smaller grids run in order in this process.
Each point owns its random stream, so the CSV is the same bytes on either
path.  --jobs is accepted for compatibility and ignored: the program sizes
the pool itself.
verify-coverage reads its grid from lambda_grid and q_grid (--config) and
ignores --lambda and --Q.
Exit codes: 0 success, 1 config error (including a usage error, a
non-finite number in a flag or config file, an --out path that cannot be
written, a pricing product below the smallest normal float, a coverage
window whose expected cell count lambda pi R^2 is not finite, and a market
whose arrays do not fit in memory, with numpy's message), 2 equilibrium
verification failure, 3 simulator-analytic mismatch beyond tolerance,
4 numerical failure (an ArithmeticError, such as best responses that break
the budget because rounding spoiled their closed form).
main can be called repeatedly in one process; it builds its parser on the
first call and reuses it.  When argv starts with a subcommand, that
subcommand's parser alone reads the rest; any other argv goes through the
top-level parser.
"""

from __future__ import annotations

import argparse
import functools
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
    _KEY_MAP,
    format_rows,
    load_config,
    run_per_vr,
    run_solve,
    run_sweep_gamma,
    run_sweep_storage,
    run_verify_coverage,
    sweep_values,
)

# (flag, config field, type): every number key of a config file is a flag too
_FLAGS = [
    ("--" + key.replace("_", "-"), field, kind)
    for key, (field, kind) in _KEY_MAP.items()
    if kind in (int, float)
]


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    flags = []
    for flag, dest, _ in _FLAGS:
        value = getattr(args, f"cfg_{dest}")
        if value is not None:
            updates[dest] = value
            flags.append((flag, value))
    flags += [(f"--{n}", getattr(args, n, None)) for n in ("start", "stop", "step")]
    for flag, value in flags:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.config:
        return replace(load_config(args.config), **updates)
    return ExperimentConfig(**updates)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}")
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a verification failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Reuse is safe because parsing leaves the tree as it was: every default
    is immutable, the help width is read when help is formatted, and usage
    and help go to the sys.stdout / sys.stderr of the moment.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(
        prog="cachemarket",
        description="Stackelberg pricing for small-cell video caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags of every subcommand
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    for flag, dest, kind in _FLAGS:
        common.add_argument(flag, dest=f"cfg_{dest}", type=kind, default=None)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=summary)

    p = add("verify-coverage", "Monte-Carlo check of the hit-probability closed form")
    p.add_argument(
        "--jobs", type=int, default=1, help="ignored; the program sizes its process pool"
    )

    p = add("sweep-gamma", "sweep the retailer preference exponent")
    p.add_argument("--start", type=float, default=0.1)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--verify", action="store_true", help="certify the equilibria")

    p = add("sweep-storage", "sweep the per-SBS storage size")
    p.add_argument("--start", type=float, default=10.0)
    p.add_argument("--stop", type=float, default=500.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--verify", action="store_true", help="certify the equilibria")

    p = add("per-vr", "per-retailer prices and fractions")
    p.add_argument("--verify", action="store_true", help="certify the equilibria")

    p = add("solve", "solve one instance and print the outcome")
    p.add_argument("--scheme", choices=["nups", "ups", "waterfill"], default="nups")
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the equilibrium certificates",
    )

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), reading a subcommand's flags once.

    When argv starts with a subcommand, that subcommand's parser alone
    parses the rest: the top-level parser would scan every token first
    and then hand them all to it.  Tokens it leaves over get the
    top-level parser's usage error, as parse_args reports them.  Any
    other argv goes through the top-level parser.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _build_config(args)
        if args.command == "verify-coverage":
            rows, ok = run_verify_coverage(cfg)
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
    except MemoryError as exc:
        print(f"config error: the market does not fit in memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
