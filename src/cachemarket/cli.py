"""Command-line interface.

Subcommands: verify-coverage, sweep-gamma, sweep-storage, per-vr, solve.
verify-coverage simulates its grid points on a fork process pool, one
worker per CPU, when the grid holds at least 10 000 trials (points x trials)
and the process can fork safely; smaller grids run in order in this process.
Each point owns its random stream, so the CSV is the same bytes on either
path.  --jobs is accepted for compatibility and ignored: the program sizes
the pool itself.
verify-coverage reads its grid from lambda_grid and q_grid (--config);
--lambda or --Q on its command line is a config error that names the grid.
Exit codes: 0 success, 1 config error (including a usage error, a
non-finite number in a flag or config file, an --out path that cannot be
written, a posted price s_u, or Theta^2 lambda s_u, below the smallest
normal float, a coverage window whose expected cell count lambda pi R^2 is
not finite, and a market whose arrays do not fit in memory, with numpy's
message), 2 equilibrium verification failure, 3 simulator-analytic
mismatch beyond tolerance, 4 numerical failure (an ArithmeticError, such
as fractions that break the budget; no market is known to reach it).
main can be called repeatedly in one process; it builds its parser on the
first call and reuses it.  When argv is a subcommand followed by that
subcommand's exact long flags, each value flag followed by a value that
does not start with "-", main reads the flags straight from a table built
from the parser's own actions: each value goes through the flag's type and
choices.  Any other argv (a help request, an abbreviated flag, --flag=value,
"--", a value such as -1, a value its type or choices refuse, a flag before
the subcommand) goes to argparse, so help, usage errors and abbreviations
are argparse's.
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
# (flag, its attribute in the parsed namespace, config field)
_FLAG_ATTRS = [(flag, f"cfg_{dest}", dest) for flag, dest, _ in _FLAGS]
_SWEEP_FLAGS = [(f"--{name}", name) for name in ("start", "stop", "step")]


# verify-coverage reads these config fields from its grids, never from a flag
_COVERAGE_GRIDS = {"sbs_intensity": "lambda_grid", "storage": "q_grid"}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    flags = []
    for flag, attr, dest in _FLAG_ATTRS:
        value = getattr(args, attr)
        if value is not None:
            if args.command == "verify-coverage" and dest in _COVERAGE_GRIDS:
                grid = _COVERAGE_GRIDS[dest]
                raise ConfigError(
                    f"verify-coverage reads {grid} (set in a --config file), not {flag}"
                )
            updates[dest] = value
            flags.append((flag, value))
    flags += [(flag, getattr(args, name, None)) for flag, name in _SWEEP_FLAGS]
    for flag, value in flags:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.config:
        return replace(load_config(args.config), **updates)
    return ExperimentConfig(**updates)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(text.encode())
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
    """The top-level parser and each subcommand's flag table by name."""
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

    return parser, {name: _flag_table(command) for name, command in sub.choices.items()}


def _flag_table(command: argparse.ArgumentParser) -> tuple[dict, dict]:
    """A subcommand's defaults, and (dest, type, choices, store_true) by flag.

    Both come from the subcommand's parser: the defaults are what it
    returns for no flags, and only its plain one-value and store_true
    actions get entries, so the help flag and any other kind of action
    send an argv to argparse.
    """
    flags = {}
    for action in command._actions:
        store = type(action) is argparse._StoreAction and action.nargs is None
        store_true = type(action) is argparse._StoreTrueAction
        if store or store_true:
            for flag in action.option_strings:
                flags[flag] = (action.dest, action.type, action.choices, store_true)
    return vars(command.parse_args([])), flags


def _read_flags(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) for argv it reads alike, else None.

    argv must be a subcommand followed by its exact flags, each value flag
    followed by a value that does not start with "-" and that the flag's
    type and choices accept.  Any other token declines: a help request, an
    abbreviation, --flag=value, "--", a value such as -1, a missing value.
    """
    table = _parsers()[1].get(argv[0]) if argv else None
    if table is None:
        return None
    defaults, flags = table
    # parse_args sets command first, then the subcommand's fields in order
    values = {"command": argv[0], **defaults}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = flags.get(token)
        if flag is None:
            return None
        dest, kind, choices, store_true = flag
        if store_true:
            values[dest] = True
            continue
        raw = next(tokens, "-")  # a missing value declines as a dash does
        if raw.startswith("-"):
            return None
        try:
            value = raw if kind is None else kind(raw)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), without argparse where it can.

    _read_flags reads a subcommand's well-formed argv from its flag table.
    Any argv it declines goes to the top-level parser, the only path that
    prints help and usage errors and expands abbreviated flags.
    """
    args = _read_flags(argv)
    return build_parser().parse_args(argv) if args is None else args


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
