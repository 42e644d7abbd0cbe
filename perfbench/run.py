"""Benchmark of the cachemarket CLI.

    python3 perfbench/run.py --workload {coverage,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``.  Each op calls ``cachemarket.cli.main`` in this process with
``--out`` pointing into a temporary directory under ``perfbench/out/``;
every output file is checked by ``checks.py``, which shares no code with
the program.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def import_cli():
    """Import ``cachemarket.cli`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "cachemarket" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import cachemarket.cli

    if not Path(cachemarket.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {cachemarket.cli.__file__}, not {SRC}")
    return cachemarket.cli


@dataclass
class RoundResult:
    """Per-op wall times, plus ops that errored and ops whose output was wrong."""

    seconds: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # op index -> message
    wrong: dict = field(default_factory=dict)  # op index -> failed check

    @property
    def failed(self) -> int:
        return len(self.errors.keys() | self.wrong.keys())


def run_round(main, ops: list, workdir: Path, checks) -> RoundResult:
    """Run ops back to back, timing only the CLI call, then check each output."""
    result = RoundResult()
    out = workdir / "out.csv"
    solved = defaultdict(dict)  # market -> scheme -> (op index, parsed)
    for i, op in enumerate(ops):
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit):  # a traceback is a failed op, not a crash
            code = None
            result.errors[i] = traceback.format_exc(limit=-2)
        result.seconds.append(time.perf_counter() - start)
        if code is None:
            continue
        if code != 0:
            result.errors[i] = f"exit code {code}"
            continue
        try:
            text = out.read_text(encoding="utf-8")
            parsed = checks.check_output(op.kind, op.params, text)
        except (checks.CheckFailure, OSError) as exc:
            result.wrong[i] = str(exc)
            continue
        if op.kind == "solve":
            solved[op.group][op.params["scheme"]] = (i, parsed)
    for by_scheme in solved.values():
        if len(by_scheme) == len(workloads.SCHEMES):
            parsed = {scheme: p for scheme, (_, p) in by_scheme.items()}
            for scheme, message in checks.check_market(parsed).items():
                result.wrong[by_scheme[scheme][0]] = message
    for i, message in sorted({**result.errors, **result.wrong}.items()):
        print(f"perfbench: op {' '.join(ops[i].argv)} failed: {message}", file=sys.stderr)
    return result


def setup_seconds(workload: str, seed: int) -> list:
    """Wall times of fresh interpreters that import the CLI and build round 0."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cli, checks, args, workdir: Path) -> tuple:
    """Whole rounds until --seconds have passed; returns (rounds, metrics, True)."""
    setup = setup_seconds(args.workload, args.seed)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        ops = workloads.make_round(args.workload, args.seed, len(rounds), workdir)
        rounds.append(run_round(cli.main, ops, workdir, checks))
    op_seconds = [s for r in rounds for s in r.seconds]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(sum(r.seconds) for r in rounds), "s"),
        "ops_per_s": _metric(len(op_seconds) / sum(op_seconds), "1/s"),
        "op_p50_ms": _metric(statistics.median(op_seconds) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return rounds, metrics, True


# per-layer metric -> (unit, how it is read from one traced round)
_LAYERS = {
    "cli.self_ms": ("ms", "self", "cli.main"),
    "harness.make_instance_ms": ("ms", "total", "harness.make_instance"),
    "harness.make_instance_calls": ("count", "calls", "harness.make_instance"),
    "special.hyp2f1_ms": ("ms", "total", "special.hyp2f1"),
    "special.hyp2f1_calls": ("count", "calls", "special.hyp2f1"),
    "special.c_factor_ms": ("ms", "total", "special.c_factor"),
    "catalog.build_popularity_ms": ("ms", "total", "catalog.build_popularity"),
    "catalog.elements_built": ("count", "counts", "catalog.elements_built"),
    "coverage.make_constants_ms": ("ms", "total", "coverage.make_constants"),
    "coverage.hit_probability_calls": ("count", "counts", "coverage.hit_probability"),
    "economics.profit_report_ms": ("ms", "total", "economics.profit_report"),
    "economics.profit_report_calls": ("count", "calls", "economics.profit_report"),
    "equilibrium.nups_solve_ms": ("ms", "total", "equilibrium.nups_solve"),
    "equilibrium.ups_solve_ms": ("ms", "total", "equilibrium.ups_solve"),
    "equilibrium.waterfill_solve_ms": ("ms", "total", "equilibrium.waterfill_solve"),
    "equilibrium.verify_nups_ms": ("ms", "total", "equilibrium.verify_nups"),
    "equilibrium.verify_ups_ms": ("ms", "total", "equilibrium.verify_ups"),
    "equilibrium.verify_waterfill_ms": ("ms", "total", "equilibrium.verify_waterfill"),
    "equilibrium.verify_checks": ("count", "counts", "equilibrium.verify_checks"),
    "equilibrium.best_response_calls": ("count", "counts", "equilibrium.best_response"),
    "ppp_sim.simulate_ms": ("ms", "total", "ppp_sim.simulate"),
    "ppp_sim.sample_hppp_ms": ("ms", "total", "ppp_sim.sample_hppp"),
    "ppp_sim.rng_setup_ms": ("ms", "total", "ppp_sim.rng_setup"),
    "ppp_sim.trials": ("count", "counts", "ppp_sim.trials"),
    "ppp_sim.cells_drawn": ("count", "counts", "ppp_sim.cells_drawn"),
}


def _layer_value(tracer, kind: str, key: str):
    if kind == "calls":
        return tracer.calls[key]
    if kind == "counts":
        return tracer.counts[key]
    table = tracer.self_time if kind == "self" else tracer.total
    return table[key] * 1e3


def trace(cli, checks, args, workdir: Path) -> tuple:
    """Round 0 run alternately untraced and traced until --seconds have passed.

    Returns (rounds, metrics, whether the traced counts repeated exactly).
    verify-coverage runs at --jobs 1, so spans are not split across
    threads; the pool is timed apart, untraced, on coverage round 0 at
    jobs 1 and 2 (harness.pool_speedup).
    """
    import tracing

    ops = workloads.make_round(args.workload, args.seed, 0, workdir)
    rounds, untraced, tracers, traced = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(cli.main, ops, workdir, checks))
        untraced.append(len(ops) / sum(rounds[-1].seconds))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            main = tracer.span("cli.main", cli.main)
            rounds.append(run_round(main, ops, workdir, checks))
        traced.append(len(ops) / sum(rounds[-1].seconds))
        tracers.append(tracer)
    pool = {}
    for jobs in (1, 2):
        cov = workloads.coverage_round(args.seed, 0, workdir, jobs)
        rounds.append(run_round(cli.main, cov, workdir, checks))
        pool[jobs] = sum(rounds[-1].seconds)

    consistent = all(
        (t.calls, t.counts) == (tracers[0].calls, tracers[0].counts) for t in tracers
    )
    if not consistent:
        print("perfbench: counts differ between traced repeats of one round", file=sys.stderr)
    if tracers[0].missing:
        print(f"perfbench: not traced: {', '.join(tracers[0].missing)}", file=sys.stderr)
    metrics = {}
    for name, (unit, kind, key) in _LAYERS.items():
        values = [_layer_value(t, kind, key) for t in tracers]
        metrics[name] = _metric(values[0] if unit == "count" else statistics.median(values), unit)
    metrics["harness.pool_speedup"] = _metric(pool[1] / pool[2], "x")
    overhead = statistics.median(untraced) - statistics.median(traced)
    metrics["trace.overhead_ops_per_s"] = _metric(overhead, "1/s")
    return rounds, metrics, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            workloads.make_round(args.workload, args.seed, 0, workdir)
            return 0
        import checks  # scipy: imported after, and never in, the set-up probes

        run = trace if args.trace else measure
        rounds, metrics, correct = run(cli, checks, args, workdir)
    result = {
        "correct": correct and not any(r.wrong for r in rounds),
        "attempted": sum(len(r.seconds) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    detail = {**result, "op_seconds": [r.seconds for r in rounds]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
