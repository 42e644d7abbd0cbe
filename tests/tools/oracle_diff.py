"""Count the CSV cells two source trees print differently, against the 50-digit game.

Usage:
    python tests/tools/oracle_diff.py PARENT_SRC CHANGE_SRC [--seeds N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Both trees run ``same_bytes.py``'s command list (perfbench's sweep and
verify ops for seeds 1..N, then its EDGE commands), each in a process of
its own.  For every ``solve``, ``per-vr`` and sweep CSV that both trees
write and that differs, each moved cell is measured against
``tests/mp_oracle.py`` in units of its 12th significant digit
(``mp_oracle.units``), before and after.  A moved cell is closer, farther
or as far.  Prints the counts, the worst cell of each direction (before
-> after), the first 50 cells that got farther and the first 50 more
than 1 unit off in the change, and the largest distance of a moved cell
in the change, per column.  The swept values and the
scheme are read through CHANGE_SRC's own parser.  Exits 1 if a moved
cell got farther.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from same_bytes import EDGE, perfbench_commands, run_tree

TESTS = Path(__file__).resolve().parents[1]
_COLUMNS = {
    "solve": ["vr", "price", "fraction", "surcharge", "rent", "profit"],
    "per-vr": ["vr", "nups_price", "ups_price", "nups_fraction", "ups_fraction"],
    "sweep-storage": ["storage", "u_nups", "u_ups", "s_nsp_nups", "s_nsp_ups",
                      "s_glb_nups", "s_glb_ups"],
    "sweep-gamma": ["gamma", "q_min", "qp_min", "u_nups", "u_ups", "s_nsp_nups",
                    "s_nsp_ups", "s_glb_nups", "s_glb_ups"],
}  # fmt: skip
_TOTALS = ["scheme", "participants", "s_rt", "s_bh", "s_nsp", "s_glb"]


def truth_rows(argv: list, cli, sweep_values) -> list:
    """The 50-digit cells of argv's CSV below its header, as mp_oracle gives them."""
    import mp_oracle

    args = cli.build_parser().parse_args(argv)
    market = mp_oracle.market_of(argv)
    if argv[0] == "solve":
        return mp_oracle.solve_rows(market, args.scheme.upper())
    if argv[0] == "per-vr":
        return mp_oracle.per_vr_rows(market)
    kind = "storage" if argv[0] == "sweep-storage" else "gamma"
    return mp_oracle.sweep_rows(market, kind, sweep_values(args.start, args.stop, args.step))


def cell_rows(text: str) -> list:
    """The CSV's rows of cells below its header."""
    return list(csv.reader(io.StringIO(text)))[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, default=40, help="perfbench seeds 1..N")
    args = parser.parse_args(argv)
    commands = perfbench_commands(args.seeds) + EDGE
    parent = run_tree(args.parent_src, commands)
    change = run_tree(args.change_src, commands)
    sys.path[:0] = [str(args.change_src), str(TESTS)]
    from cachemarket import cli
    from cachemarket.harness import sweep_values
    from mp_oracle import units

    counts = {"closer": 0, "farther": 0, "as far": 0}
    # (before, after, label): the closer cell worst before, every cell that
    # got farther, every moved cell more than 1 unit off after
    closer, farther, missed = (0.0, 0.0, ""), [], []
    largest = {}  # column -> (after, label)
    seen = set()
    csvs = 0
    for command, old, new in zip(commands, parent, change):
        if not command or command[0] not in _COLUMNS or None in (old["csv"], new["csv"]):
            continue
        if old["csv"] == new["csv"] or (old["csv"], new["csv"]) in seen:
            continue
        seen.add((old["csv"], new["csv"]))
        csvs += 1
        truth = truth_rows(command, cli, sweep_values)
        rows = zip(cell_rows(old["csv"]), cell_rows(new["csv"]), truth, strict=True)
        for i, (a_row, b_row, want) in enumerate(rows):
            # solve's last two rows are the totals' header and cells
            totals = command[0] == "solve" and i >= len(truth) - 2
            columns = _TOTALS if totals else _COLUMNS[command[0]]
            for j, (a, b, value) in enumerate(zip(a_row, b_row, want, strict=True)):
                if a == b:
                    continue
                before, after = units(a, value), units(b, value)
                label = f"{' '.join(command)} | row {i + 1} {columns[j]}: {a} -> {b}"
                way = "closer" if after < before else "farther" if after > before else "as far"
                counts[way] += 1
                if way == "closer" and before > closer[0]:
                    closer = (before, after, label)
                if way == "farther":
                    farther.append((before, after, label))
                if after > 1.0:
                    missed.append((before, after, label))
                if after > largest.get(columns[j], (-1.0,))[0]:
                    largest[columns[j]] = (after, label)
    moved = sum(counts.values())
    print(
        f"{len(commands)} commands, {csvs} distinct differing CSVs, {moved} moved cells: "
        + ", ".join(f"{n} {way}" for way, n in counts.items())
    )
    worst = {"closer": [closer] if counts["closer"] else []}
    worst["farther"] = sorted(farther, key=lambda cell: cell[1])[-1:]
    for way, cells in worst.items():
        for before, after, label in cells:
            print(f"worst {way}: {before:.3g} -> {after:.3g} units  {label}")
    for kind, cells in (("farther", farther), ("over 1 unit", missed)):
        print(f"{len(cells)} moved cells {kind}")
        for before, after, label in cells[:50]:
            print(f"{kind}: {before:.3g} -> {after:.3g} units  {label}")
    for column, (after, label) in sorted(largest.items()):
        print(f"largest after, {column}: {after:.3g} units  {label}")
    return 1 if counts["farther"] else 0


if __name__ == "__main__":
    sys.exit(main())
