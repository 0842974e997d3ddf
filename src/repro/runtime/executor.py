"""Plan execution: the adapter between plans and the event engine.

The synchronized-column timetable (:mod:`repro.runtime.schedule`) is the
planner's optimization proxy; this module is the *evaluation* front-end:
it adapts :class:`~repro.core.plan.PipelinePlan` objects (and the
baselines' hand-built chains) onto the discrete-event engine in
:mod:`repro.runtime.engine`, which owns the continuous-time,
piecewise-constant-rate simulation itself.

The core entry point is :func:`simulate_chains`: each request is a
*chain* of tasks (slice, processor) executed in order.  Chains built
from a :class:`~repro.core.plan.PipelinePlan` give the Hetero2Pipe
semantics (stage k on processor k); baselines such as Band build their
own chains with arbitrary per-segment processor choices and are measured
by the identical machinery.

Semantics (implemented by the engine — see its module docstring for the
event taxonomy and the golden-equivalence guarantee vs the pre-engine
loop preserved in :mod:`repro.runtime._legacy_executor`):

* A chain's next task becomes ready when its previous task finishes
  (precedence, Eq. 8) and the request has arrived; each processor runs
  its ready tasks FIFO in request order.
* While a set of slices co-runs, each progresses at rate
  ``1 / (1 + slowdown)`` with the slowdown recomputed from the live
  co-runner set whenever it changes — the dynamic form of Eq. 2's
  ``T^co``.
* A slice's working set is resident while it executes; a task cannot
  start if it would push residency beyond the physical capacity
  (Constraint 6) and instead waits for memory to drain.
* Every event edge is sampled into a trace of bandwidth demand, memory
  use and the DVFS memory frequency the governor would select (Fig. 9).
* Open-loop extras (arrival processes, relative deadlines with drop
  accounting, cancellation/preemption) ride on the engine's event heap
  and are no-ops for the closed-loop plan-evaluation path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..hardware.processor import ProcessorSpec
from ..profiling.slowdown import SliceWorkload
from ..util import LRUCache
from .arrivals import ArrivalsLike
from .engine import (  # noqa: F401  (re-exported: the historical home)
    _EPS,
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    CompiledSlice,
    DiscreteEventEngine,
    Event,
    ExecutionResult,
    RateMemo,
    TaskRecord,
    TracePoint,
)
from ..hardware.soc import SocSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.plan import PipelinePlan

__all__ = [
    "ARENA_OVERHEAD_FACTOR",
    "ChainTask",
    "Event",
    "ExecutionResult",
    "TaskRecord",
    "TracePoint",
    "execute_plan",
    "execute_plan_perturbed",
    "plan_to_chains",
    "replicate_chains",
    "scale_chain_tasks",
    "simulate_chains",
]


def simulate_chains(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    arrivals: ArrivalsLike = None,
    with_contention: bool = True,
    enforce_memory: bool = True,
    trace: bool = False,
    processor_offline_ms: Optional[Dict[str, float]] = None,
    record: bool = True,
    deadline_ms: Optional[object] = None,
    keep_events: bool = False,
    track_causality: bool = True,
    rate_memo: Optional[RateMemo] = None,
) -> ExecutionResult:
    """Simulate per-request task chains on one SoC.

    A thin adapter over :class:`~repro.runtime.engine.DiscreteEventEngine`
    — one engine instance per call, run to completion.  Argument
    semantics, return type and raised exceptions are the engine's; the
    historical signature (a plain ``arrivals`` sequence, no deadlines)
    behaves exactly as before the refactor.

    Args:
        soc: The platform (contention coupling, memory capacity, DVFS).
        chains: One ordered task chain per request; tasks run strictly
            in chain order, each on its own processor.
        arrivals: Per-request arrival times in ms, an
            :class:`~repro.runtime.arrivals.ArrivalProcess`, or None
            (closed loop: everything arrives at t=0).
        with_contention: Apply dynamic co-execution slowdown.
        enforce_memory: Enforce Constraint 6 (tasks wait for residency).
        trace: Record :class:`TracePoint` samples at event edges.
        processor_offline_ms: Fault injection — processors stop
            accepting *new* tasks at the given times (a running task
            completes); pending tasks bound for an offline unit fall
            back to the best online processor supporting their slice.
        record: Feed the observability recorder (span + execution
            metrics).  The planner's objective function re-simulates
            candidate plans hundreds of times per plan; those internal
            evaluations pass False so ``tasks_executed`` and the
            ``execute`` span describe only real executions.
        deadline_ms: Scalar or per-request relative deadlines; a request
            whose first slice has not started this long after its
            arrival is dropped (see the engine docs).
        keep_events: Keep the processed-event log on the result.
        track_causality: Record per-task
            :class:`~repro.runtime.engine.TaskCausality` rows and the
            co-run inflation matrix (the blame layer's input).  Executed
            runs keep it on; the planner's objective probes
            (:func:`~repro.runtime.schedule.async_makespan_ms`) skip it.
        rate_memo: Co-run rates memoized across runs (the planner's
            objective passes its
            :attr:`~repro.runtime.compiled.CompiledTables.rates`).

    Returns:
        The :class:`ExecutionResult`.

    Raises:
        ValueError: on arrival-length mismatch, a task whose processor
            is not part of the SoC, or a negative deadline.
        MemoryError: if a single slice alone exceeds the capacity.
        RuntimeError: if the simulation wedges — for valid fault-free
            inputs this cannot happen; with faults it signals that a
            task has no online processor able to run it.
    """
    return DiscreteEventEngine(
        soc,
        chains,
        arrivals=arrivals,
        with_contention=with_contention,
        enforce_memory=enforce_memory,
        trace=trace,
        processor_offline_ms=processor_offline_ms,
        deadline_ms=deadline_ms,
        record=record,
        keep_events=keep_events,
        track_causality=track_causality,
        rate_memo=rate_memo,
    ).run()


class SliceEntry(NamedTuple):
    """One compiled plan slice; ``soc``/``processors`` pin the key's ids."""

    soc: SocSpec
    processors: Tuple[ProcessorSpec, ...]
    proc: ProcessorSpec
    solo_ms: float
    workload: SliceWorkload
    working_set: float
    compiled: CompiledSlice


#: ``(id(soc), id(processors), id(profile), stage, start, end)``.
SliceKey = Tuple[int, int, int, int, int, int]

#: Compiled plan slices, reused across the plans of one objective scope.
SliceTable = LRUCache[SliceKey, SliceEntry]


def plan_to_chains(
    plan: "PipelinePlan", slices: Optional[SliceTable] = None
) -> List[List[ChainTask]]:
    """Adapt a pipeline plan to the chain representation.

    ``slices`` is an optional cache of compiled slices (the planner's
    objective passes its
    :attr:`~repro.runtime.compiled.CompiledTables.slices`).  An entry
    holds exactly what this function would compute for its slice, so
    the chains are the same with or without it.  The SoC, processor
    tuple and profile enter the key by identity, and every entry holds
    references to those objects, so an identity cannot be reused by
    another object while its entry lives.
    """
    soc, processors = plan.soc, plan.processors
    chains: List[List[ChainTask]] = []
    for i, assignment in enumerate(plan.assignments):
        profile = assignment.profile
        chain: List[ChainTask] = []
        for k, slc in enumerate(assignment.slices):
            if slc is None:
                continue
            start, end = slc
            key = (id(soc), id(processors), id(profile), k, start, end)
            entry = None if slices is None else slices.get(key)
            if entry is None:
                proc = processors[k]
                workload = SliceWorkload(
                    profile=profile, proc=proc, start=start, end=end
                )
                entry = SliceEntry(
                    soc=soc,
                    processors=processors,
                    proc=proc,
                    solo_ms=assignment.stage_time_ms(k, processors),
                    workload=workload,
                    working_set=ARENA_OVERHEAD_FACTOR
                    * profile.working_set_bytes(start, end),
                    compiled=CompiledSlice.of(proc, workload),
                )
                if slices is not None:
                    slices.put(key, entry)
            chain.append(
                ChainTask(
                    request=i,
                    proc=entry.proc,
                    solo_ms=entry.solo_ms,
                    workload=entry.workload,
                    working_set=entry.working_set,
                    stage=k,
                    compiled=entry.compiled,
                )
            )
        chains.append(chain)
    return chains


def replicate_chains(
    chains: Sequence[Sequence[ChainTask]],
    copies: int,
) -> List[List[ChainTask]]:
    """Tile a chain set into ``copies`` back-to-back request rounds.

    Open-loop streaming runs (the ``slo`` verb, the SLO guard) need far
    more requests than a plan has models; this builds fresh
    :class:`ChainTask` clones (engine tasks are mutable — sharing
    them across requests would corrupt ``remaining_ms``) with request
    ids offset by ``round * len(chains)``, matching the arrival order
    of a repeated model mix.  A clone copies every field but the
    request id and per-run progress, so one copy of an executed chain
    set is a fresh run of it (the what-if layer's counterfactuals).

    Raises:
        ValueError: on a non-positive copy count.
    """
    if copies <= 0:
        raise ValueError(f"copies must be >= 1, got {copies}")
    replicated: List[List[ChainTask]] = []
    for round_index in range(copies):
        offset = round_index * len(chains)
        for i, chain in enumerate(chains):
            replicated.append(
                [replace(task, request=offset + i) for task in chain]
            )
    return replicated


def scale_chain_tasks(
    chains: Sequence[Sequence[ChainTask]],
    factors: Dict[str, float],
) -> int:
    """Perturbation injection: scale task solo times per processor.

    Multiplies ``solo_ms`` / ``remaining_ms`` of every not-yet-started
    task bound to a processor in ``factors`` (e.g. ``{"gpu": 1.3}`` is
    a +30% slowdown — thermal throttling, an unplanned co-runner).  The
    planner never sees the perturbation, so the executed run diverges
    from its prediction — the scenario the drift detectors exist for.

    Returns:
        The number of tasks scaled.

    Raises:
        ValueError: on a non-positive factor.
    """
    for name, factor in factors.items():
        if factor <= 0:
            raise ValueError(f"factor for {name!r} must be > 0, got {factor}")
    scaled = 0
    for chain in chains:
        for task in chain:
            factor = factors.get(task.proc.name)
            if factor is None:
                continue
            task.solo_ms = task.solo_ms * factor
            task.remaining_ms = task.remaining_ms * factor
            scaled += 1
    return scaled


def execute_plan_perturbed(
    plan: "PipelinePlan",
    factors: Dict[str, float],
    arrivals: ArrivalsLike = None,
    with_contention: bool = True,
    enforce_memory: bool = True,
    trace: bool = False,
    record: bool = True,
) -> ExecutionResult:
    """Execute a plan with per-processor slowdown factors injected.

    The factors scale the solo times of the plan's own SoC,
    ``plan.soc``.  After a recalibrating replan
    (:class:`~repro.core.online.StreamingPlanner` with
    ``recalibrate_on_drift``) that is the *recalibrated* SoC, whose
    drifting processor is already slower, so a constant factor such as
    ``{"gpu": 1.3}`` compounds on the recalibration: the executed device
    is slower than the one the factor was meant to model, and drift
    keeps firing.  To model a fixed true device, pass the ratio of its
    speed to the plan SoC's instead.
    """
    chains = plan_to_chains(plan)
    scale_chain_tasks(chains, factors)
    return simulate_chains(
        plan.soc,
        chains,
        arrivals=arrivals,
        with_contention=with_contention,
        enforce_memory=enforce_memory,
        trace=trace,
        record=record,
    )


def execute_plan(
    plan: "PipelinePlan",
    arrivals: ArrivalsLike = None,
    with_contention: bool = True,
    enforce_memory: bool = True,
    trace: bool = False,
    record: bool = True,
    deadline_ms: Optional[object] = None,
) -> ExecutionResult:
    """Simulate one plan end to end (see :func:`simulate_chains`)."""
    return simulate_chains(
        plan.soc,
        plan_to_chains(plan),
        arrivals=arrivals,
        with_contention=with_contention,
        enforce_memory=enforce_memory,
        trace=trace,
        record=record,
        deadline_ms=deadline_ms,
    )
