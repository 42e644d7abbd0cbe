"""Per-layer spans and counts, recorded from outside the program.

Modules of ``cachemarket`` import each other's functions by name
(``from .special import a_factor``), so a wrapper replaces the name where
the caller looks it up, e.g. ``cachemarket.coverage.c_factor``.  Spans
nest: a span's self time is its duration minus the durations of the
spans opened inside it.  Spans are aggregated by name in memory.

The wrappers assume one thread; the benchmark traces verify-coverage at
``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

import numpy

_clock = time.perf_counter


class Tracer:
    """Aggregated spans (calls, inclusive and self seconds) and counts."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._children = []  # child time of each open span, innermost last

    def open(self) -> None:
        self._children.append(0.0)

    def close(self, name: str, start: float) -> None:
        elapsed = _clock() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child

    def span(self, name, fn, count=None):
        """Wrap fn in a span; ``name`` may be a function of the arguments.

        ``count(args, result)`` returns {counter: increment} for the call.
        """

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            self.open()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(label, start)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def counter(self, name: str, fn):
        """Count calls of a function too hot to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def rng_numpy(self):
        """A stand-in for ``numpy`` whose SeedSequence and default_rng are timed."""
        tracer = self

        class SeedSequence:
            def __init__(self, *args, **kwargs):
                tracer.open()
                start = _clock()
                self._seq = numpy.random.SeedSequence(*args, **kwargs)
                tracer.close("ppp_sim.rng_setup", start)

            def spawn(self, n):
                return tracer.span("ppp_sim.rng_setup", self._seq.spawn)(n)

            def __getattr__(self, attr):
                return getattr(self._seq, attr)

        class Random:
            def __init__(self):
                self.SeedSequence = SeedSequence
                self.default_rng = tracer.span("ppp_sim.rng_setup", numpy.random.default_rng)

            def __getattr__(self, attr):
                return getattr(numpy.random, attr)

        class Numpy:
            random = Random()

            def __getattr__(self, attr):
                return getattr(numpy, attr)

        return Numpy()


def _elements(args, pops) -> dict:
    sizes = pops.t.size + pops.q.size + (0 if pops.p is None else pops.p.size)
    return {"catalog.elements_built": sizes}


def _checks(args, record) -> dict:
    return {"equilibrium.verify_checks": record.follower_checks + record.leader_checks}


def _simulated(args, estimate) -> dict:
    return {"ppp_sim.trials": estimate.trials}


def _cells(args, points) -> dict:
    return {"ppp_sim.cells_drawn": points.shape[0]}


def _verify_name(args) -> str:
    return f"equilibrium.verify_{args[0].scheme.lower()}"


# (module where the name is looked up, name, span name, counts).  The
# cli entries are the callees subtracted from cli.main for cli.self_ms.
SPANS = [
    ("cli", "run_verify_coverage", "harness.run_verify_coverage", None),
    ("cli", "run_sweep_gamma", "harness.run_sweep_gamma", None),
    ("cli", "run_sweep_storage", "harness.run_sweep_storage", None),
    ("cli", "run_per_vr", "harness.run_per_vr", None),
    ("cli", "run_solve", "harness.run_solve", None),
    ("cli", "format_rows", "harness.format_rows", None),
    ("cli", "load_config", "harness.load_config", None),
    ("cli", "sweep_values", "harness.sweep_values", None),
    ("harness", "make_instance", "harness.make_instance", None),
    ("harness", "build_popularity", "catalog.build_popularity", _elements),
    ("harness", "make_constants", "coverage.make_constants", None),
    ("harness", "nups_solve", "equilibrium.nups_solve", None),
    ("harness", "ups_solve", "equilibrium.ups_solve", None),
    ("harness", "waterfill_solve", "equilibrium.waterfill_solve", None),
    ("harness", "verify_equilibrium", _verify_name, _checks),
    ("harness", "simulate_hit_probability", "ppp_sim.simulate", _simulated),
    ("coverage", "c_factor", "special.c_factor", None),
    ("special", "hyp2f1_unit_a", "special.hyp2f1", None),
    ("equilibrium", "profit_report", "economics.profit_report", None),
    ("ppp_sim", "sample_hppp", "ppp_sim.sample_hppp", _cells),
]
COUNTERS = [
    ("harness", "hit_probability", "coverage.hit_probability"),
    ("economics", "hit_probability", "coverage.hit_probability"),
    ("equilibrium", "best_response_fraction", "equilibrium.best_response"),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every lookup site for the duration of the block."""
    saved = []

    def patch(module_name, attr, make):
        module = importlib.import_module(f"cachemarket.{module_name}")
        if not hasattr(module, attr):
            tracer.missing.append(f"cachemarket.{module_name}.{attr}")
            return
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    try:
        for module_name, attr, name, count in SPANS:
            patch(module_name, attr, lambda fn: tracer.span(name, fn, count))
        for module_name, attr, name in COUNTERS:
            patch(module_name, attr, lambda fn: tracer.counter(name, fn))
        patch("ppp_sim", "np", lambda _: tracer.rng_numpy())
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
