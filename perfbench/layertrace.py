"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each ``repro`` module that
the benchmark names as a layer boundary.  Nothing in ``src/`` changes:
the wrappers are installed at run time by rebinding every reference the
package holds to the original function (module globals, class
attributes and default-argument values, which is how
``ObjectiveCache`` binds ``async_makespan_ms``).

Each wrapped call is a span with a parent, the innermost open span.
Spans are folded as they close: a span's self time is its duration
minus the time its child spans cover, and the fold keeps per-span call
counts, self and total time, parent->child call edges, and the counts
the span hooks read off arguments and results.  A function that no
longer exists is recorded as missing, and every metric that depends on
it is reported absent instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

Before = Callable[["LayerTracer", tuple], object]
Hook = Callable[["LayerTracer", Optional[str], tuple, object, object], None]

#: Phases whose stats are kept apart: set-up (planner construction,
#: profiling, estimator fit) and the measured pass.
SETUP, RUN = "setup", "run"


class _Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class LayerTracer:
    """Wraps layer-boundary functions and folds their spans."""

    def __init__(self) -> None:
        self.active = False
        self.phase = SETUP
        self.stats: Dict[str, Dict[str, _Stat]] = {
            SETUP: defaultdict(_Stat),
            RUN: defaultdict(_Stat),
        }
        self.edges: Dict[str, Dict[Tuple[Optional[str], str], int]] = {
            SETUP: defaultdict(int),
            RUN: defaultdict(int),
        }
        self.counts: Dict[str, Dict[str, float]] = {
            SETUP: defaultdict(float),
            RUN: defaultdict(float),
        }
        #: Span names whose function (or a hook's attribute) is gone.
        self.missing: Set[str] = set()
        # Open spans: [name, child seconds].
        self._stack: List[list] = []

    # ----------------------------------------------------------- control

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark-side bookkeeping without recording spans."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.phase][name] += amount

    def calls(self, span: str) -> int:
        """Calls recorded for ``span`` over every phase."""
        return sum(
            stats[span].calls for stats in self.stats.values() if span in stats
        )

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        module: str,
        qualname: str,
        span: str,
        before: Optional[Before] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Wrap ``module.qualname`` as span ``span``.

        ``qualname`` is a function name or ``Class.method``.
        ``before(tracer, args)`` sees the call's positional arguments
        and returns a token that ``after(tracer, parent, args, token,
        result)`` receives.
        """
        try:
            owner: object = importlib.import_module(module)
        except ImportError:
            self.missing.add(span)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.add(span)
                return
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.add(span)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, span, before, after))
            setattr(owner, attr, wrapped)
        elif isinstance(owner, type):
            setattr(owner, attr, self._wrapper(raw, span, before, after))
        else:
            self._rebind(raw, self._wrapper(raw, span, before, after))

    def _rebind(self, original: object, replacement: object) -> None:
        """Point every reference the ``repro`` package holds at the wrapper."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                elif isinstance(value, types.FunctionType):
                    self._rebind_defaults(value, original, replacement)
                elif isinstance(value, type) and value.__module__ == name:
                    for member in vars(value).values():
                        func = getattr(member, "__func__", member)
                        if isinstance(func, types.FunctionType):
                            self._rebind_defaults(func, original, replacement)

    def _rebind_defaults(
        self, func: types.FunctionType, original: object, replacement: object
    ) -> None:
        defaults = func.__defaults__
        if defaults and any(d is original for d in defaults):
            func.__defaults__ = tuple(
                replacement if d is original else d for d in defaults
            )

    def _wrapper(
        self,
        fn: Callable,
        span: str,
        before: Optional[Before],
        after: Optional[Hook],
    ) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            token = before(tracer, args) if before is not None else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                phase = tracer.phase
                stat = tracer.stats[phase][span]
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                stat.total_s += elapsed
                tracer.edges[phase][(parent, span)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(tracer, parent, args, token, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


# ------------------------------------------------------------- the layers


def _attr_or_missing(tracer: LayerTracer, span: str, obj: object, attr: str):
    value = getattr(obj, attr, None)
    if value is None:
        tracer.missing.add(span)
    return value


def _profile_before(tracer, args: tuple) -> object:
    cache = _attr_or_missing(tracer, "profiling", args[0], "_cache")
    return None if cache is None else len(cache)


def _profile_after(tracer, parent, args, token, result) -> None:
    if token is not None and len(args[0]._cache) > token:
        tracer.count("profiling.misses")


def _probe_before(tracer, args: tuple) -> object:
    return _attr_or_missing(tracer, "core.objective.probe", args[0], "hits")


def _probe_after(tracer, parent, args, token, result) -> None:
    if token is not None and args[0].hits > token:
        tracer.count("core.objective.hits")


def _steal_after(tracer, parent, args, token, result) -> None:
    tracer.count("core.stealing.moves", result[0])


def _engine_after(tracer, parent, args, token, result) -> None:
    events = _attr_or_missing(tracer, "runtime.engine", args[0], "_events_processed")
    tasks = _attr_or_missing(tracer, "runtime.engine", args[0], "_total_tasks")
    if events is not None and tasks is not None:
        tracer.count("runtime.engine.events", events)
        tracer.count("runtime.engine.tasks", tasks)


def _timeline_after(tracer, parent, args, token, result) -> None:
    tracer.count("obs.timeline.events", len(args[1]))


def _online_after(tracer, parent, args, token, result) -> None:
    tracer.count("core.online.windows", len(result.windows))
    tracer.count("obs.drift.replans", result.replans)


def _plan_before(tracer, args: tuple) -> object:
    cache = getattr(args[0], "_plan_cache", None)
    return getattr(cache, "hits", None)


def _plan_after(tracer, parent, args, token, result) -> None:
    cache = getattr(args[0], "_plan_cache", None)
    hit = cache is not None and token is not None and cache.hits > token
    online = parent == "core.online"
    if online:
        tracer.count("core.online.plans")
    if hit:
        tracer.count("core.planner.plan_cache_hits")
        if online:
            tracer.count("core.online.plan_cache_hits")
        return
    tracer.count("core.planner.plan_cache_misses")
    tracer.count("core.planner.partition_requests", len(args[1]))
    identity = tuple(range(len(args[1])))
    mitigation = result.mitigation
    if mitigation is not None and tuple(mitigation.order) != identity:
        tracer.count("core.mitigation.reorders_proposed")
        if tuple(result.plan.order) != identity:
            tracer.count("core.mitigation.reorders_won")


def _drift_after(tracer, parent, args, token, result) -> None:
    tracer.count("obs.drift.fired", len(result))


#: (module, function or Class.method, span name, before hook, after hook).
#: The span name's prefix is the layer; spans of one layer share a prefix.
WRAPS = (
    ("repro.profiling.profiler", "SocProfiler.profile", "profiling",
     _profile_before, _profile_after),
    ("repro.core.contention", "ContentionEstimator.fit_from_zoo",
     "core.contention.fit", None, None),
    ("repro.core.contention", "ContentionEstimator.classify",
     "core.contention.classify", None, None),
    ("repro.core.partition", "partition_model", "core.partition", None, None),
    ("repro.core.mitigation", "mitigate_sequence", "core.mitigation",
     None, None),
    ("repro.core.stealing", "vertical_alignment", "core.stealing",
     None, _steal_after),
    ("repro.core.stealing", "optimize_tail", "core.stealing.tail", None, None),
    ("repro.core.objective", "ObjectiveCache.__call__", "core.objective.probe",
     _probe_before, _probe_after),
    ("repro.runtime.schedule", "async_makespan_ms", "core.objective.eval",
     None, None),
    ("repro.runtime.executor", "plan_to_chains",
     "runtime.executor.plan_to_chains", None, None),
    ("repro.runtime.executor", "simulate_chains", "runtime.executor.simulate",
     None, None),
    ("repro.runtime.executor", "replicate_chains",
     "runtime.executor.replicate", None, None),
    ("repro.runtime.engine", "DiscreteEventEngine.run", "runtime.engine",
     None, _engine_after),
    ("repro.obs.timeline", "TimelineAggregator.observe_many", "obs.timeline",
     None, _timeline_after),
    ("repro.obs.slo", "SloEvaluator.observe_many", "obs.slo", None, None),
    ("repro.obs.blame", "blame_requests", "obs.blame", None, None),
    ("repro.obs.blame", "aggregate_blame", "obs.blame.aggregate", None, None),
    ("repro.obs.blame", "extract_critical_path", "obs.blame.path", None, None),
    ("repro.core.online", "StreamingPlanner.run", "core.online",
     None, _online_after),
    ("repro.core.planner", "Hetero2PipePlanner.plan", "core.planner",
     _plan_before, _plan_after),
    ("repro.core.planner", "Hetero2PipePlanner.invalidate_caches",
     "core.planner.invalidate", None, None),
    ("repro.obs.accuracy", "join_execution", "obs.accuracy", None, None),
    ("repro.obs.drift", "DriftMonitor.observe_report", "obs.drift",
     None, _drift_after),
)

#: Layers whose work is mostly set-up: their metrics cover set-up and
#: the traced pass; every other layer covers the traced pass only.
SETUP_LAYERS = ("profiling", "core.contention.fit")


def install(tracer: LayerTracer) -> LayerTracer:
    for module, qualname, span, before, after in WRAPS:
        tracer.wrap(module, qualname, span, before, after)
    return tracer


class _View:
    """Read-only merge of the phases a metric covers."""

    def __init__(self, tracer: LayerTracer, phases: Tuple[str, ...]) -> None:
        self.t = tracer
        self.phases = phases

    def calls(self, *spans: str) -> float:
        return sum(self.t.stats[p][s].calls for p in self.phases for s in spans)

    def self_ms(self, *spans: str) -> float:
        return 1e3 * sum(
            self.t.stats[p][s].self_s for p in self.phases for s in spans
        )

    def total_ms(self, *spans: str) -> float:
        return 1e3 * sum(
            self.t.stats[p][s].total_s for p in self.phases for s in spans
        )

    def edge(self, parent: str, span: str) -> float:
        return sum(self.t.edges[p][(parent, span)] for p in self.phases)

    def n(self, name: str) -> float:
        return sum(self.t.counts[p][name] for p in self.phases)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer,
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Every per-layer metric the tracer can derive, as (value, unit),
    and the names of those left out because a span they read is missing.
    """
    both = _View(tracer, (SETUP, RUN))
    run = _View(tracer, (RUN,))
    defs: List[Tuple[str, Tuple[str, ...], Callable[[], float], str]] = [
        ("profiling.calls", ("profiling",), lambda: both.calls("profiling"), "count"),
        ("profiling.self_ms", ("profiling",), lambda: both.self_ms("profiling"), "ms"),
        ("profiling.hit_frac", ("profiling",),
         lambda: 1.0 - _ratio(both.n("profiling.misses"), both.calls("profiling")),
         "frac"),
        ("core.contention.fit_ms", ("core.contention.fit",),
         lambda: both.total_ms("core.contention.fit"), "ms"),
        ("core.contention.classify_self_ms", ("core.contention.classify",),
         lambda: run.self_ms("core.contention.classify"), "ms"),
        ("core.partition.calls", ("core.partition",),
         lambda: run.calls("core.partition"), "count"),
        ("core.partition.self_ms", ("core.partition",),
         lambda: run.self_ms("core.partition"), "ms"),
        ("core.mitigation.self_ms", ("core.mitigation",),
         lambda: run.self_ms("core.mitigation"), "ms"),
        ("core.mitigation.reorder_win_frac", ("core.mitigation", "core.planner"),
         lambda: _ratio(run.n("core.mitigation.reorders_won"),
                        run.n("core.mitigation.reorders_proposed")), "frac"),
        ("core.stealing.self_ms", ("core.stealing", "core.stealing.tail"),
         lambda: run.self_ms("core.stealing", "core.stealing.tail"), "ms"),
        ("core.stealing.moves_per_probe",
         ("core.stealing", "core.stealing.tail", "core.objective.probe"),
         lambda: _ratio(run.n("core.stealing.moves"),
                        run.edge("core.stealing", "core.objective.probe")
                        + run.edge("core.stealing.tail", "core.objective.probe")),
         "ratio"),
        ("core.objective.probes", ("core.objective.probe",),
         lambda: run.calls("core.objective.probe"), "count"),
        ("core.objective.evaluations", ("core.objective.eval",),
         lambda: run.calls("core.objective.eval"), "count"),
        ("core.objective.hit_frac", ("core.objective.probe",),
         lambda: _ratio(run.n("core.objective.hits"),
                        run.calls("core.objective.probe")), "frac"),
        ("core.objective.self_ms", ("core.objective.probe", "core.objective.eval"),
         lambda: run.self_ms("core.objective.probe", "core.objective.eval"), "ms"),
        ("core.planner.self_ms", ("core.planner",),
         lambda: run.self_ms("core.planner"), "ms"),
        ("core.planner.plan_cache_hits", ("core.planner",),
         lambda: run.n("core.planner.plan_cache_hits"), "count"),
        ("core.planner.plan_cache_misses", ("core.planner",),
         lambda: run.n("core.planner.plan_cache_misses"), "count"),
        ("core.planner.partition_cache_hits", ("core.planner", "core.partition"),
         lambda: run.n("core.planner.partition_requests")
         - run.calls("core.partition"), "count"),
        ("core.planner.partition_cache_misses", ("core.partition",),
         lambda: run.calls("core.partition"), "count"),
        ("runtime.executor.plan_to_chains_calls", ("runtime.executor.plan_to_chains",),
         lambda: run.calls("runtime.executor.plan_to_chains"), "count"),
        ("runtime.executor.plan_to_chains_self_ms",
         ("runtime.executor.plan_to_chains",),
         lambda: run.self_ms("runtime.executor.plan_to_chains"), "ms"),
        ("runtime.executor.simulate_calls", ("runtime.executor.simulate",),
         lambda: run.calls("runtime.executor.simulate"), "count"),
        ("runtime.engine.self_ms", ("runtime.engine",),
         lambda: run.self_ms("runtime.engine"), "ms"),
        ("runtime.engine.events", ("runtime.engine",),
         lambda: run.n("runtime.engine.events"), "count"),
        ("runtime.engine.tasks", ("runtime.engine",),
         lambda: run.n("runtime.engine.tasks"), "count"),
        ("runtime.engine.us_per_event", ("runtime.engine",),
         lambda: 1e3 * _ratio(run.self_ms("runtime.engine"),
                              run.n("runtime.engine.events")), "us"),
        ("obs.timeline.self_ms", ("obs.timeline",),
         lambda: run.self_ms("obs.timeline"), "ms"),
        ("obs.timeline.us_per_event", ("obs.timeline",),
         lambda: 1e3 * _ratio(run.self_ms("obs.timeline"),
                              run.n("obs.timeline.events")), "us"),
        ("obs.slo.self_ms", ("obs.slo",), lambda: run.self_ms("obs.slo"), "ms"),
        ("obs.blame.self_ms", ("obs.blame", "obs.blame.aggregate", "obs.blame.path"),
         lambda: run.self_ms("obs.blame", "obs.blame.aggregate", "obs.blame.path"),
         "ms"),
        ("core.online.windows", ("core.online",),
         lambda: run.n("core.online.windows"), "count"),
        ("core.online.plan_cache_hit_frac", ("core.online", "core.planner"),
         lambda: _ratio(run.n("core.online.plan_cache_hits"),
                        run.n("core.online.plans")), "frac"),
        ("core.online.invalidations", ("core.online", "core.planner.invalidate"),
         lambda: run.edge("core.online", "core.planner.invalidate"), "count"),
        ("obs.accuracy.self_ms", ("obs.accuracy",),
         lambda: run.self_ms("obs.accuracy"), "ms"),
        ("obs.drift.self_ms", ("obs.drift",), lambda: run.self_ms("obs.drift"), "ms"),
        ("obs.drift.fired", ("obs.drift",), lambda: run.n("obs.drift.fired"), "count"),
        ("obs.drift.replans", ("core.online",),
         lambda: run.n("obs.drift.replans"), "count"),
    ]
    out: Dict[str, Tuple[float, str]] = {}
    absent: List[str] = []
    for name, spans, value, unit in defs:
        if tracer.missing.intersection(spans):
            absent.append(name)
            continue
        out[name] = (float(value()), unit)
    return out, absent

