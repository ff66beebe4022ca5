"""Spans around the program's public functions, and the per-layer metrics.

The traced run replaces each function below at the name it is bound to,
so calls the program makes internally (``compare`` and
``epsilon_threshold`` calling ``brute_force_solve``, ``compose_solve``
calling ``farey_neighbors``, the CLI calling everything) are recorded
with their parent span.  Spans stay in memory until the run ends; the
counters are computed from each call's inputs and outputs, so they do not
depend on how the program does its work.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from time import perf_counter

# (module, binding, span name).  A span's layer is the text before the
# first dot of its name.
TRACED = (
    ("fareyapprox.cli", "run", "cli.run"),
    ("fareyapprox.cli", "parse_real", "rationals.parse_real"),
    ("fareyapprox.rationals", "parse_real", "rationals.parse_real"),
    ("fareyapprox.cli", "farey_neighbors", "farey.farey_neighbors"),
    ("fareyapprox.simultaneous", "farey_neighbors", "farey.farey_neighbors"),
    ("fareyapprox.cli", "farey_sequence", "farey.farey_sequence"),
    ("fareyapprox.cli", "subdivide", "mediants.subdivide"),
    ("fareyapprox.cli", "compose_solve", "simultaneous.compose_solve"),
    ("fareyapprox.cli", "brute_force_solve", "simultaneous.brute_force_solve"),
    ("fareyapprox.simultaneous", "brute_force_solve", "simultaneous.brute_force_solve"),
    ("fareyapprox.cli", "dirichlet_solve", "simultaneous.dirichlet_solve"),
    ("fareyapprox.simultaneous", "dirichlet_solve", "simultaneous.dirichlet_solve"),
    ("fareyapprox.cli", "epsilon_threshold", "simultaneous.epsilon_threshold"),
    ("fareyapprox.simultaneous", "epsilon_threshold", "simultaneous.epsilon_threshold"),
    ("fareyapprox.cli", "compare", "simultaneous.compare"),
    ("fareyapprox.simultaneous", "compare", "simultaneous.compare"),
)
GENERATORS = {"farey.farey_sequence"}
REQUEST = "bench.request"
LAYERS = ("cli", "rationals", "farey", "mediants", "simultaneous", "bench")

_BRUTE = "simultaneous.brute_force_solve"
_RATE = ("calls", "s", "q_range", "q_per_s")

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    [(f"{_BRUTE}.{m}", u) for m, u in zip(_RATE, ("count", "s", "count", "1/s"))]
    + [(f"{_BRUTE}.{v}.{m}", u) for v in ("feasible", "infeasible")
       for m, u in zip(_RATE, ("count", "s", "count", "1/s"))]
    + [(f"simultaneous.dirichlet_solve.{m}", u) for m, u in zip(_RATE, ("count", "s", "count", "1/s"))]
    + [("simultaneous.epsilon_threshold.calls", "count"), ("simultaneous.epsilon_threshold.s", "s"),
       ("simultaneous.epsilon_threshold.grid_points", "count"),
       ("simultaneous.epsilon_threshold.q_range", "count"),
       ("simultaneous.epsilon_threshold.q_per_s", "1/s")]
    + [("simultaneous.compose_solve.calls", "count"), ("simultaneous.compose_solve.s", "s"),
       ("simultaneous.compose_solve.success_frac", "frac")]
    + [("farey.farey_neighbors.calls", "count"), ("farey.farey_neighbors.s", "s"),
       ("farey.farey_neighbors.us_per_call", "us")]
    + [("farey.farey_sequence.terms", "count"), ("farey.farey_sequence.s", "s"),
       ("farey.farey_sequence.terms_per_s", "1/s")]
    + [("mediants.subdivide.calls", "count"), ("mediants.subdivide.points", "count"),
       ("mediants.subdivide.s", "s")]
    + [("cli.run.calls", "count"), ("cli.run.s", "s"), ("cli.run.self_s", "s"),
       ("cli.run.stdout_bytes", "bytes")]
    + [("rationals.parse_real.calls", "count"), ("rationals.parse_real.s", "s"),
       ("rationals.parse_real.digits", "digits")]
    + [(f"share.{layer}", "frac") for layer in LAYERS]
    + [("trace.untraced_rps", "1/s"), ("trace.traced_rps", "1/s"), ("trace.overhead_rps", "1/s")]
)


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "busy", "args", "kwargs",
                 "result", "error", "items")

    def __init__(self, name, request, parent):
        self.name, self.request, self.parent = name, request, parent
        self.start = self.end = self.busy = None
        self.args = self.kwargs = self.result = self.error = None
        self.items = 0

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


class Tracer:
    """Records spans; ``install`` wraps the traced bindings until ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name) -> Span:
        span = Span(name, self.request, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the span keeps the inputs and output."""
        span = self._open(name)
        span.args, span.kwargs = args, kwargs
        self._stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.result = result
        return result

    def _iterate(self, name, fn, args, kwargs):
        # A generator's span is busy only inside next(); the consumer's
        # work between items belongs to the consumer.
        span = self._open(name)
        span.args, span.kwargs = args, kwargs
        span.start, span.busy = perf_counter(), 0.0
        inner = fn(*args, **kwargs)
        try:
            while True:
                started = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span.busy += perf_counter() - started
                span.items += 1
                yield item
        finally:
            inner.close()
            span.end = perf_counter()

    def _wrapper(self, name, fn):
        if name in GENERATORS:
            return lambda *a, **kw: self._iterate(name, fn, a, kw)
        return lambda *a, **kw: self.call(name, fn, *a, **kw)

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _arg(span: Span, index: int, name: str, default=None):
    if len(span.args) > index:
        return span.args[index]
    return span.kwargs.get(name, default)


def brute_q_range(cs, epsilon, result, solution_type) -> int:
    """Denominators an exhaustive scan covers to reach this answer.

    The witness q when feasible; otherwise the whole range
    floor(t_min/eps), which is 0 when the range is empty.
    """
    if isinstance(result, solution_type):
        return result.q
    return max(0, math.floor(cs.t_min / Fraction(epsilon)))


def threshold_q_range(cs, report) -> int:
    return sum(w.q if w is not None else math.floor(cs.t_min / g)
               for g, w in zip(report.grid, report.witnesses))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def _total(group: list[Span]) -> float:
    return sum(s.duration for s in group)


def _rate(work: float, secs: float) -> float:
    return work / secs if secs > 0 else 0.0


def per_layer(fa, spans: list[Span], stdout_bytes: int, untraced_rps: float,
              traced_rps: float) -> dict[str, float]:
    """Every metric of PER_LAYER from one traced pass."""
    sim = fa.simultaneous
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}

    def ok(name):
        return [s for s in by_name.get(name, ()) if s.error is None]

    def scan(prefix, group, q_range):
        secs = _total(group)
        work = sum(q_range(s) for s in group if s.error is None)
        m.update({f"{prefix}.calls": len(group), f"{prefix}.s": secs,
                  f"{prefix}.q_range": work, f"{prefix}.q_per_s": _rate(work, secs)})

    def brute_q(s):
        return brute_q_range(_arg(s, 0, "cs"), _arg(s, 1, "epsilon"), s.result, sim.Solution)

    brute = by_name.get(_BRUTE, [])
    scan(_BRUTE, brute, brute_q)
    scan(f"{_BRUTE}.feasible", [s for s in ok(_BRUTE) if isinstance(s.result, sim.Solution)], brute_q)
    scan(f"{_BRUTE}.infeasible", [s for s in ok(_BRUTE) if isinstance(s.result, sim.Infeasible)], brute_q)
    scan("simultaneous.dirichlet_solve", by_name.get("simultaneous.dirichlet_solve", []),
         lambda s: s.result.q)
    thresholds = by_name.get("simultaneous.epsilon_threshold", [])
    scan("simultaneous.epsilon_threshold", thresholds,
         lambda s: threshold_q_range(_arg(s, 0, "cs"), s.result))
    m["simultaneous.epsilon_threshold.grid_points"] = sum(
        len(s.result.grid) for s in thresholds if s.error is None)

    compose = by_name.get("simultaneous.compose_solve", [])
    m["simultaneous.compose_solve.calls"] = len(compose)
    m["simultaneous.compose_solve.s"] = _total(compose)
    m["simultaneous.compose_solve.success_frac"] = (
        sum(1 for s in compose if s.error is None and s.result.satisfies_constraints is True)
        / len(compose) if compose else 0.0)

    neighbors = by_name.get("farey.farey_neighbors", [])
    m["farey.farey_neighbors.calls"] = len(neighbors)
    m["farey.farey_neighbors.s"] = _total(neighbors)
    m["farey.farey_neighbors.us_per_call"] = _rate(1e6 * _total(neighbors), len(neighbors))
    sequences = by_name.get("farey.farey_sequence", [])
    terms = sum(s.items for s in sequences)
    m["farey.farey_sequence.terms"] = terms
    m["farey.farey_sequence.s"] = _total(sequences)
    m["farey.farey_sequence.terms_per_s"] = _rate(terms, _total(sequences))

    subdivisions = by_name.get("mediants.subdivide", [])
    m["mediants.subdivide.calls"] = len(subdivisions)
    m["mediants.subdivide.points"] = sum(len(s.result.points) for s in ok("mediants.subdivide"))
    m["mediants.subdivide.s"] = _total(subdivisions)

    own = self_times(spans)
    runs = by_name.get("cli.run", [])
    m["cli.run.calls"] = len(runs)
    m["cli.run.s"] = _total(runs)
    m["cli.run.self_s"] = sum(own[id(s)] for s in runs)
    m["cli.run.stdout_bytes"] = stdout_bytes

    parses = by_name.get("rationals.parse_real", [])
    names = fa.rationals.CONSTANT_NAMES
    m["rationals.parse_real.calls"] = len(parses)
    m["rationals.parse_real.s"] = _total(parses)
    m["rationals.parse_real.digits"] = sum(
        _arg(s, 1, "precision", fa.rationals.DEFAULT_PRECISION)
        for s in parses if str(_arg(s, 0, "text")).strip().lower() in names)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += own[id(s)]
    traced = _total(by_name.get(REQUEST, []))
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / traced if traced > 0 else 0.0

    m["trace.untraced_rps"] = untraced_rps
    m["trace.traced_rps"] = traced_rps
    m["trace.overhead_rps"] = untraced_rps - traced_rps
    return m
