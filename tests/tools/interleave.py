"""Time two source trees of cachemarket op by op on perfbench's rounds.

Usage:
    python tests/tools/interleave.py PARENT_SRC CHANGE_SRC --workload {sweep,verify}
        [--seed N] [--seconds S]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Both packages are loaded into this one process, each under its own name,
and perfbench's rounds of the workload (``perfbench/workloads.py``,
imported read-only as ``same_bytes.py`` imports it) run through each
tree's ``cli.main``, op by op: every op runs on both trees back to back,
the parent first on even ops and the change first on odd ones, so a
drift in the machine's speed falls on both alike.  One untimed round
fills each tree's caches; then whole rounds run until --seconds have
passed.  Only the main() call is timed, as perfbench times it.

Prints the total ratio (the change's time over the parent's, summed over
the ops), the median of the per-op ratios, each tree's median op time,
and the ops whose exit codes differ.  A ratio below 1 means the change
ran faster.  The tool sizes a difference; it never establishes a gain,
which takes perfbench's paired runs.  A tree run against itself bounds
the noise: on a 2-core machine that read 0.987-1.005.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

from same_bytes import load_workloads


def load_cli(src: Path, name: str):
    """The cli module of the cachemarket package under src, imported as name.cli."""
    init = src / "cachemarket" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # the package's relative imports look it up there
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def timed(main, argv: tuple, out: Path) -> tuple[float, int]:
    """Seconds main() took on argv, writing to out, and its exit code."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    code = main([*argv, "--out", str(out)])
    return time.perf_counter() - start, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=("sweep", "verify"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    make_round = {"sweep": workloads.sweep_round, "verify": workloads.verify_round}[args.workload]
    mains = [
        load_cli(args.parent_src, "cachemarket_parent").main,
        load_cli(args.change_src, "cachemarket_change").main,
    ]
    times = ([], [])
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for op in make_round(args.seed, 0):
            for run in mains:
                timed(run, op.argv, out)
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            for op in make_round(args.seed, rounds):
                codes = [None, None]
                for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
                    seconds, codes[side] = timed(mains[side], op.argv, out)
                    times[side].append(seconds)
                if codes[0] != codes[1]:
                    differing += 1
                    print(f"exit codes {codes[0]} -> {codes[1]}: {' '.join(op.argv)}")
            rounds += 1
    parent, change = times
    per_op = statistics.median(c / p for p, c in zip(parent, change))
    print(
        f"{args.workload}, seed {args.seed}: {len(parent)} ops in {rounds} rounds; "
        f"change / parent time: total {sum(change) / sum(parent):.3f}, "
        f"median per op {per_op:.3f}; p50 parent {statistics.median(parent) * 1e3:.3f} ms, "
        f"change {statistics.median(change) * 1e3:.3f} ms; "
        f"{differing} ops with differing exit codes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
