"""Arithmetic and tracing shared by the benchmark workloads.

Everything here is independent of ottocircle's numerics: item bookkeeping
(latency, checks, failures), the percentile and ratio arithmetic behind the
reported metrics, and the tracer that wraps the package's public functions to
give per-layer call counts and self times.
"""

from __future__ import annotations

import functools
import math
import operator
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

# -- item bookkeeping --------------------------------------------------------


OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """One output check.  With a limit it requires `value op limit`, and a
    `<=` check (a tolerance) also feeds worst_tol_ratio; without a limit,
    value must be truthy."""

    name: str
    value: float
    limit: float | None = None
    op: str = "<="

    @property
    def passed(self) -> bool:
        if self.limit is None:
            return bool(self.value)
        return math.isfinite(self.value) and OPS[self.op](self.value, self.limit)

    @property
    def ratio(self) -> float | None:
        if self.limit is None or self.op != "<=" or self.limit <= 0.0:
            return None
        return self.value / self.limit


@dataclass
class Tally:
    """Outcome of every item a run attempted.

    An item fails when its call raises, when its check raises, or when any
    check it returns does not pass; the failure is kept with the item's name
    and never stops the pass.
    """

    samples: list[tuple[str, float]] = field(default_factory=list)  # (item, latency in ms)
    failures: list[tuple[int, str, str]] = field(default_factory=list)  # (attempt, item, reason)
    attempted: int = 0
    worst_tol_ratio: float = 0.0

    def item(self, name: str, call, check=None, clock=time.perf_counter):
        """Run call() as one timed item, then check(result) -> [Check, ...].

        Only call() is inside the latency; the check runs after it.  Returns
        the call's result, or None when it raised.
        """
        self.attempted += 1
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a raising item is a failed item, not a crash
            self.samples.append((name, 1e3 * (clock() - start)))
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.samples.append((name, 1e3 * (clock() - start)))
        if check is not None:
            try:
                checks = list(check(result))
            except Exception as exc:
                self.fail(name, f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                return result
            self._record(name, checks)
        return result

    def verify(self, name: str, checks) -> None:
        """An untimed item made only of checks (cross-item and cross-pass
        properties such as determinism); it adds no latency sample."""
        self.attempted += 1
        self._record(name, checks)

    def _record(self, name: str, checks) -> None:
        breached = []
        for c in checks:
            ratio = c.ratio
            if ratio is not None and math.isfinite(ratio):
                self.worst_tol_ratio = max(self.worst_tol_ratio, ratio)
            if not c.passed:
                breached.append(c.name if c.limit is None else f"{c.name}={c.value:.3e}, not {c.op} {c.limit:.1e}")
        if breached:
            self.fail(name, "check failed: " + ", ".join(breached))

    def fail(self, name: str, reason: str) -> None:
        self.failures.append((self.attempted, name, reason))

    def item_latencies_ms(self) -> list[float]:
        """One latency per distinct item: its median over the run's attempts,
        so that a burst of machine noise during one pass does not move it."""
        attempts: dict[str, list[float]] = defaultdict(list)
        for name, ms in self.samples:
            attempts[name].append(ms)
        return [median(v) for v in attempts.values()]

    @property
    def failed(self) -> int:
        """Attempts with at least one failure."""
        return len({attempt for attempt, _, _ in self.failures})

    @property
    def error_rate(self) -> float:
        return error_rate(self.attempted, self.failed)


# -- arithmetic --------------------------------------------------------------

CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _rank(count: int, q: float) -> int:
    # rounded first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by the nearest-rank rule (an observed sample)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of count samples lie above the nearest-rank q-th percentile."""
    return count - _rank(count, q)


def tail_percentile(count: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least min_beyond samples beyond
    it; None when not even the median has that many."""
    supported = [q for q in CANDIDATE_PERCENTILES if samples_beyond(count, q) >= min_beyond]
    return max(supported) if supported else None


def hit_ratio(builds: int, lookups: int) -> tuple[float, int]:
    """Cache hit ratio 1 - builds / lookups with its base (lookups).

    No lookups means no hits: the ratio is 0.0 over a base of 0.
    """
    if builds < 0 or lookups < 0 or builds > lookups:
        raise ValueError(f"inconsistent cache counts: {builds} builds, {lookups} lookups")
    if lookups == 0:
        return 0.0, 0
    return 1.0 - builds / lookups, lookups


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"cannot form an error rate from {failed} failed of {attempted}")
    return failed / attempted


def median(values) -> float:
    return float(statistics.median(values))


# -- tracing -----------------------------------------------------------------

# Layer functions get calls and self time.  Names map to a module-level
# function, or to (class, method) where the layer's entry point is a method.
LAYERS = {
    "grid": ("eval_trig", "deriv", "basis_matrix"),
    "density": ("pushforward_monotone",),
    "operators": ("context", "assemble_gram", "green_mu_coeffs", "project_exact"),
    "tangent": ("metric_gram", "vector_from_potential", "flow_map"),
    "connection": ("lie_bracket", "christoffel", "christoffel_residual", "parallel_transport"),
    "curvature": ("t_tensor", "riemann", "sectional", "riemann_fd_oracle"),
    "geodesics": ("geodesic_hj", "geodesic_christoffel", "displacement_path", "flow_path",
                  "constant_speed_report"),
    "ot_oracle": ("distance", "table", "table_build", "w2_lp", "density_atoms"),
    "cli": ("write_report", "write_csv"),
}
METHODS = {
    ("operators", "context"): ("WeightedOperatorContext", "__init__"),
    ("ot_oracle", "distance"): ("CircleDistanceSolver", "distance"),
    ("ot_oracle", "table"): ("CircleDistanceSolver", "table"),
    ("ot_oracle", "table_build"): ("_QuantileTable", "__init__"),
}
CLI_SUBCOMMANDS = ("metric", "bracket", "christoffel", "geodesic", "transport", "curvature",
                   "distance", "validate")
CRITERIA = tuple(f"criterion_{i:02d}" for i in range(1, 13))
# layers whose self time should carry galerkin_large
GALERKIN_LAYERS = ("connection", "geodesics", "operators", "grid")


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    out += [(f"validation.{c}.wall_s", "s", "lower") for c in CRITERIA]
    out += [(f"cli.{s}.wall_s", "s", "lower") for s in CLI_SUBCOMMANDS]
    out += [
        ("ot_oracle.table_hit_ratio", "ratio", "higher"),
        ("cli.bytes_written", "B", "lower"),
        ("setup.import_s", "s", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
        ("unattributed_s", "s", "lower"),
        ("check.worst_tol_ratio", "ratio", "lower"),
        ("check.error_rate", "fraction", "lower"),
    ]
    return out


class Tracer:
    """Span bookkeeping for wrapped functions.

    Layer spans nest: a span's self time is its duration minus the durations
    of the layer spans directly inside it.  Phase spans (CLI subcommands,
    acceptance criteria) only accumulate their inclusive wall time and are
    transparent to the nesting, so their work is attributed to the layers.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open layer span

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.clock()
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                child = self._children.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child
                if self._children:
                    self._children[-1] += duration
        return traced

    def phase(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall_s[name] += self.clock() - start
        return timed

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _rebind(modules, replacements: dict[int, tuple[object, object]]) -> None:
    """Point every module-level binding of an original at its wrapper,
    including entries of module-level dicts and tuples (dispatch tables)."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)][1])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in replacements:
                        value[key] = replacements[id(entry)][1]
            elif isinstance(value, tuple) and any(id(e) in replacements for e in value):
                setattr(module, attr, tuple(replacements.get(id(e), (e, e))[1] for e in value))


def install(tracer: Tracer, package) -> None:
    """Wrap the traced functions of an imported ottocircle package.

    Functions are wrapped on every module that binds them, not only on the
    defining one (operators does `from .grid import deriv`); methods are
    wrapped on their class.  Raises if an original binding survives.
    """
    prefix = package.__name__ + "."
    modules = [package] + [m for name, m in sorted(sys.modules.items())
                           if name.startswith(prefix) and m is not None]
    mod = {m.__name__[len(prefix):]: m for m in modules[1:]}
    replacements: dict[int, tuple[object, object]] = {}
    for layer, names in LAYERS.items():
        for name in names:
            label = f"{layer}.{name}"
            if (layer, name) in METHODS:
                cls_name, method = METHODS[(layer, name)]
                cls = getattr(mod[layer], cls_name)
                setattr(cls, method, tracer.span(label, cls.__dict__[method]))
            else:
                original = getattr(mod[layer], name)
                replacements[id(original)] = (original, tracer.span(label, original))
    for sub, fn in mod["cli"].SUBCOMMANDS.items():
        replacements[id(fn)] = (fn, tracer.phase(f"cli.{sub}", fn))
    for fn in mod["validation"].CRITERIA:
        index = int(fn.__name__.split("_")[1])
        replacements[id(fn)] = (fn, tracer.phase(f"validation.criterion_{index:02d}", fn))
    _rebind(modules, replacements)
    for module in modules:
        for attr, value in vars(module).items():
            if id(value) in replacements and value is replacements[id(value)][0]:
                raise RuntimeError(f"{module.__name__}.{attr} escaped tracing")
