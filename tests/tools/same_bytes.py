"""Check that two source trees of cachemarket write the same bytes.

Usage:
    python tests/tools/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The command list is every sweep and verify op of perfbench rounds 0-1
for seeds 1..N (from ``perfbench/workloads.py``, imported read-only),
each sweep op also in its ``--verify`` form, plus EDGE, the commands that end in a named error, a usage error or a
help request, or sit at the edge of the solvers, and three
verify-coverage grids, which show a change of the simulator's random
stream: two run in one process, one on the process pool.  Each tree runs the whole list through its own ``cli.main``, in
one process of its own, with ``--out`` to a scratch file.  A command differs when its CSV, its exit
code, its stdout or its stderr differ; stderr is compared with file
paths and line numbers stripped from warnings.  Prints each difference
and exits 1 if there is any.  A differing CSV is shown by its md5 and
the largest relative difference between its numeric cells; the summary
line gives the largest over all CSVs, so a declared numeric change can
be bounded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

# The subnormal FOUND market: "inconsistent outcome" at Q = 10, broken
# best responses at Q = 20.
SUBNORMAL = ["--s-bh", "1e-164", "--K", "3.162277660168379e-160", "--lambda", "1", "--V", "20"]
# Theta = A - C + 1 cancels here (nine digits lost).  Computed as the
# difference, it broke NUPS at Q = 10 and at gamma = 1.05.
CANCELLING = [
    "--alpha", "2.2193288013645645", "--delta", "80.49250043716155",
    "--beta", "0.42371299266268153", "--V", "11", "--N", "500",
]  # fmt: skip
CANCEL_GAMMA = ["--gamma", "0.18531846939972652"]
UNDERFLOW = ["--s-bh", "4.51602e-171", "--K", "6.30277e-170", "--lambda", "1.56591e-63"]
# Markets whose smaller floor product is Gamma_u * Lambda * s_ld (FLOOR_U)
# or Theta^2 * lambda * s_u (FLOOR_S); both products scale with K.
FLOOR_U = ["solve", "--s-bh", "1e-164", "--lambda", "1", "--V", "20", "--gamma", "1"]
FLOOR_S = [
    "solve", "--scheme", "ups", "--V", "17", "--Q", "17", "--s-bh", "1.15734e-146",
    "--lambda", "0.105123", "--delta", "0.22613121306098913",
]  # fmt: skip
EDGE = [
    ["sweep-storage", *SUBNORMAL, "--gamma", "1", "--start", "10", "--stop", "500", "--step", "10"],
    ["sweep-gamma", *SUBNORMAL, "--Q", "20", "--start", "0.05", "--stop", "2.5", "--step", "0.05"],
    ["per-vr", *SUBNORMAL, "--gamma", "1", "--Q", "10"],
    ["per-vr", *SUBNORMAL, "--gamma", "1", "--Q", "20"],
    ["solve", *SUBNORMAL, "--gamma", "1", "--Q", "20"],
    ["sweep-storage", *CANCELLING, *CANCEL_GAMMA, "--start", "7", "--stop", "12", "--step", "1"],
    ["sweep-gamma", *CANCELLING, "--Q", "10", "--start", "0.05", "--stop", "1.5", "--step", "0.05"],
    ["per-vr", *CANCELLING, *CANCEL_GAMMA, "--Q", "10"],
    # Zipf weights past retailer 1 underflow to 0
    ["sweep-gamma", "--V", "1000", "--start", "150", "--stop", "200", "--step", "10", "--verify"],
    ["per-vr", "--V", "1000", "--gamma", "200", "--verify"],
    # products that overflow or underflow, named as config errors
    ["per-vr", "--s-bh", "1e250", "--K", "1e100", "--zeta", "1e5"],
    ["sweep-storage", "--K", "1e300", "--zeta", "1e300"],
    ["sweep-storage", *UNDERFLOW, "--V", "99"],
    ["per-vr", *UNDERFLOW, "--V", "99"],
    # each pricing product just inside half the float range (within the
    # bounds' 1e-9 margin, so the rows decide) and one ulp of s_bh past it;
    # the first two pairs place Gamma_1 Lambda s_bh and Lambda^2 s_bh S_3^3,
    # which the guard no longer forms, so a product that bounds them decides
    ["solve", "--Q", "1", "--s-bh", "1.468095369440308e+304"],
    ["solve", "--Q", "1", "--s-bh", "1.468095370174356e+304"],
    ["solve", "--gamma", "0", "--s-bh", "3.238122598380131e+304"],
    ["solve", "--gamma", "0", "--s-bh", "3.2381225999991927e+304"],
    ["sweep-gamma", "--s-bh", "3.238122598380131e+304", "--start", "0", "--stop", "0.5", "--step", "0.25"],
    ["sweep-gamma", "--s-bh", "3.2381225999991927e+304", "--start", "0", "--stop", "0.5", "--step", "0.25"],
    ["solve", "--s-bh", "3.378493108141811e+304"],
    ["solve", "--s-bh", "3.378493109831058e+304"],
    ["solve", "--V", "1000", "--gamma", "1", "--delta", "4e-7", "--s-bh", "6.094886706436163e+304"],
    ["solve", "--V", "1000", "--gamma", "1", "--delta", "4e-7", "--s-bh", "6.094886709483607e+304"],
    ["solve", "--gamma", "0", "--lambda", "1e-6", "--s-bh", "5.5499318472482185e+298"],
    ["solve", "--gamma", "0", "--lambda", "1e-6", "--s-bh", "5.549931850023185e+298"],
    # each best-response floor product at the smallest normal float, then
    # one ulp of K below it
    [*FLOOR_U, "--K", "1.4269617077629532e-143"],
    [*FLOOR_U, "--K", "1.426961707762953e-143"],
    [*FLOOR_S, "--K", "2.8242286258941863e-161"],
    [*FLOOR_S, "--K", "2.824228625894186e-161"],
    # Q < 1
    ["per-vr", "--Q", "0"],
    ["sweep-storage", "--start", "0.5", "--stop", "5", "--step", "0.5"],
    # argv that the flag reader declines, so argparse reads it: a flag
    # before the subcommand, a help request, no subcommand, a leftover
    # token, an abbreviated flag, an "=" form, a value that starts with
    # "-", "--", a store_true flag with a value; and a repeated flag,
    # which the reader reads itself
    ["--V", "3", "solve"],
    ["-h", "solve"],
    ["solve", "--sche", "ups", "--V", "3"],
    ["solve", "extra"],
    ["solve", "--V", "3", "--V", "4"],
    [],
    ["solve", "--alph", "4"],
    ["solve", "--alpha=4"],
    ["solve", "--gamma", "-1"],
    ["solve", "--delta", "-1e-3"],
    ["per-vr", "--verify", "3"],
    ["solve", "--", "--V", "3"],
    ["sweep-gamma", "--V", "3", "-h"],
    # verify-coverage reads lambda_grid and q_grid, not --lambda or --Q
    ["verify-coverage", "--lambda", "1e308", "--trials", "1"],
    ["verify-coverage", "--Q", "7", "--trials", "1"],
    # larger markets, each after a usage error or a help request, so that
    # state one main() call leaves in the parser shows in the next
    ["solve", "--V", "x"],
    ["per-vr", "--V", "120", "--verify"],
    ["solve", "--scheme", "bogus"],
    ["sweep-storage", "--V", "120", "--verify"],
    ["frobnicate"],
    ["sweep-gamma", "--V", "1000", "--Q", "50", "--start", "0", "--stop", "2.5", "--step", "0.1"],
    ["sweep-gamma", "--help"],
    ["sweep-storage", "--V", "5000", "--gamma", "0.2"],
    ["solve", "--help"],
    ["per-vr", "--V", "5000"],
    # every retailer posted: the certificates' array passes at large u
    ["solve", "--V", "20000", "--gamma", "0"],
    ["solve", "--V", "20000", "--gamma", "0", "--scheme", "ups"],
    # the best response cancels and leaves budget idle, which the leader's
    # certificate rejects (exit 2)
    ["solve", "--alpha", "2.1", "--delta", "2e4", "--V", "1"],
    ["solve", "--scheme", "ups", "--alpha", "2.1", "--delta", "2e4", "--V", "1"],
    # the posted-price scale underflows to 0 (a config error)
    ["solve", "--s-bh", "1e-300", "--lambda", "1e300"],
    # markets still broken or inexact: best responses that break the budget
    # (exit 4), Theta rounding to 0 (exit 1), and a profit cell that
    # cancellation leaves off in its 12th digit (exit 0)
    ["solve", "--delta", "2e4"],
    ["solve", "--alpha", "2.000000000001", "--delta", "2.1"],
    ["solve", "--alpha", "2.00000000000001", "--delta", "2"],
    ["solve", "--alpha", "2.00000000000001", "--delta", "1"],
    ["solve", "--delta", "1e3"],
    # the water-filling count at large V, with few and with all retailers in
    ["solve", "--scheme", "waterfill", "--V", "20000", "--gamma", "0.5", "--no-verify"],
    ["solve", "--scheme", "waterfill", "--V", "20000", "--gamma", "0", "--no-verify"],
    # water-filling outside the pricing domain (s_ld != s_bh), where the Zipf
    # weights underflow (every price cell 0, none EXCLUDED), with one
    # retailer, and its lone fraction left short of the budget (exit 2)
    ["solve", "--scheme", "waterfill", "--s-ld", "2"],
    ["solve", "--scheme", "waterfill", "--V", "5000", "--gamma", "300"],
    ["solve", "--scheme", "waterfill", "--V", "1"],
    ["solve", "--scheme", "waterfill", "--alpha", "2.3", "--delta", "3000", "--V", "1", "--Q", "1"],
    # sweep blocks with 79 distinct NUPS participant counts in 100 rows,
    # with 40 in 101 rows, and three blocks of up to 21 points
    ["sweep-storage", "--V", "120", "--gamma", "0.2", "--start", "1", "--stop", "500", "--step", "5"],
    ["sweep-gamma", "--V", "120", "--Q", "500", "--start", "0", "--stop", "2.5", "--step", "0.025"],
    ["sweep-gamma", "--V", "3000", "--start", "0.05", "--stop", "2.5", "--step", "0.05"],
    # gamma = 0 and 1, whose Zipf rows take ndarray **'s scalar shortcuts
    ["sweep-gamma", "--V", "120", "--start", "0", "--stop", "2", "--step", "0.5"],
    ["sweep-gamma", "--V", "1000", "--start", "0", "--stop", "2", "--step", "0.5"],
    # zeta * K below the normal range: 0, and subnormal (config errors)
    ["solve", "--zeta", "1e-200", "--K", "1e-200"],
    ["solve", "--zeta", "1e-160", "--K", "1e-160"],
    # steps so small that rounded sweep points collide (config errors)
    ["sweep-gamma", "--start", "0", "--stop", "1e-12", "--step", "2e-13"],
    ["sweep-storage", "--start", "10", "--stop", "10.000000000001", "--step", "2e-13"],
    ["sweep-gamma", "--start", "0", "--stop", "1", "--step", "1e-320"],
    # the simulator's random stream: two grids below the pool minimum and
    # one above it, then a pool-sized grid whose window is too small
    ["verify-coverage", "--trials", "50"],
    ["verify-coverage", "--alpha", "3.3", "--delta", "1.0", "--trials", "50"],
    ["verify-coverage", "--trials", "100"],
    ["verify-coverage", "--radius", "1", "--trials", "1000"],
    # an expected cell count past numpy's Poisson limit (a config error)
    ["verify-coverage", "--radius", "1e9", "--trials", "1"],
]  # fmt: skip

_WARNING_AT = re.compile(r"^\S+\.py:\d+: (?=\w+Warning: )", re.MULTILINE)


def perfbench_commands(seeds: int) -> list:
    """Every sweep and verify op of rounds 0-1 for seeds 1..seeds.

    Each sweep op comes twice: as perfbench runs it, then with --verify.
    """
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    commands = []
    for seed in range(1, seeds + 1):
        for index in (0, 1):
            sweeps = [list(op.argv) for op in workloads.sweep_round(seed, index)]
            commands += sweeps + [[*argv, "--verify"] for argv in sweeps]
            commands += [list(op.argv) for op in workloads.verify_round(seed, index)]
    return commands


def run_commands(commands: list) -> list:
    """Run each command through this process's cachemarket.cli.main."""
    from cachemarket import cli

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for argv in commands:
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = cli.main([*argv, "--out", str(out)])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            text = out.read_bytes().decode() if out.exists() else None
            err = _WARNING_AT.sub("", stderr.getvalue().replace(str(out), "OUT"))
            results.append({"code": code, "csv": text, "stdout": stdout.getvalue(), "stderr": err})
    return results


def run_tree(src: Path, commands: list) -> list:
    """run_commands in a fresh interpreter that imports cachemarket from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _worker(src: str) -> None:
    import cachemarket

    if not Path(cachemarket.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cachemarket.__file__}, not from {src}")
    # each command's warnings in full, whatever ran before it
    warnings.simplefilter("always")
    json.dump(run_commands(json.load(sys.stdin)), sys.stdout)


def relative_difference(old: str, new: str) -> float:
    """Largest |a - b| / max(|a|, |b|) over the cells of two CSVs.

    inf when the CSVs differ in shape, in a cell that is not a number,
    or in a non-finite number.
    """
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if [len(row) for row in old_rows] != [len(row) for row in new_rows]:
        return math.inf
    worst = 0.0
    for old_row, new_row in zip(old_rows, new_rows):
        for a, b in zip(old_row, new_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return math.inf
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _md5(text: str | None) -> str | None:
    return None if text is None else hashlib.md5(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, default=40, help="perfbench seeds 1..N")
    args = parser.parse_args(argv)
    commands = perfbench_commands(args.seeds) + EDGE
    parent = run_tree(args.parent_src, commands)
    change = run_tree(args.change_src, commands)
    differences = csv_differences = 0
    largest = 0.0
    for argv, old, new in zip(commands, parent, change):
        fields = [key for key in old if old[key] != new[key]]
        if fields:
            differences += 1
            print(f"DIFF {' '.join(argv)}")
            for key in fields:
                if key != "csv":
                    print(f"  {key}: {old[key]!r} -> {new[key]!r}")
                    continue
                change_of = f"  csv: {_md5(old['csv'])} -> {_md5(new['csv'])}"
                if None in (old["csv"], new["csv"]):  # the exit code differs too
                    print(change_of)
                    continue
                csv_differences += 1
                rel = relative_difference(old["csv"], new["csv"])
                largest = max(largest, rel)
                print(f"{change_of}, relative {rel:.2g}")
    codes = sorted({r["code"] for r in change})
    print(
        f"{len(commands)} commands ({len(EDGE)} edge), exit codes {codes}: "
        f"{differences} differences, {csv_differences} in CSVs both wrote, "
        f"largest relative difference {largest:.2g}"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        _worker(sys.argv[2])
    else:
        sys.exit(main())
