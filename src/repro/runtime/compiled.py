"""The objective's compiled simulation inputs: a slice table and a rate memo.

Every objective probe re-simulates a whole plan, and every probe used to
re-derive each chain task from the profile: its solo time
(``slice_cost_ms``), working set, :class:`SliceWorkload`, and — on every
engine step — the workload's bus intensity and sensitivity for each
co-runner.  A descent changes one or two slices per probe, so nearly all
of that work repeats.  :class:`CompiledTables` keeps it once per scope:

* a **slice table** keyed by ``(soc, processor tuple, profile, stage,
  slice)``, each entry holding exactly the values :func:`plan_to_chains`
  would compute, plus the :class:`~repro.runtime.engine.CompiledSlice`
  contention constants the engine reads instead of the workload;
* a **rate memo** (:data:`~repro.runtime.engine.RateMemo`) mapping a
  co-running tuple of slice keys to its per-task rates.

Both are bounded LRUs.  The SoC, processor tuple and profile enter the
table key by identity, and every entry holds references to those
objects, so an identity cannot be reused by another object while its
entry lives.  Slice keys are handed out from a counter that never
repeats within a table, so a rate-memo entry can only ever be hit by the
slices it was computed for, and rates are per SoC because slice keys
are.  The tables must share a scope with the profiles they were built
from: :class:`~repro.core.objective.ObjectiveCache` owns one and empties
it in :meth:`~repro.core.objective.ObjectiveCache.clear`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..profiling.profiler import ModelProfile
from ..profiling.slowdown import SliceWorkload
from ..util import LRUCache
from .engine import ARENA_OVERHEAD_FACTOR, ChainTask, CompiledSlice, RateMemo

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.plan import PipelinePlan, StageAssignment

#: ``(id(soc), id(processors), id(profile), stage, start, end)``.
SliceKey = Tuple[int, int, int, int, int, int]

#: Default bounds.  A cold three-to-eight-model plan touches up to ~400
#: distinct slices and ~2.1k (five models) to ~2.7k (eight) co-running
#: sets.  Past the bound the memo drops sets from earlier descent
#: phases, which are not probed again: on eight-model plans its miss
#: share stays 6.0% with or without evictions.  The bounds cap what a
#: long-lived planner holds between invalidations (~1 MB).
DEFAULT_SLICE_TABLE_SIZE = 1024
DEFAULT_RATE_MEMO_SIZE = 2048


class _SliceEntry(NamedTuple):
    """One compiled slice; ``soc``/``processors`` pin the key's ids."""

    soc: SocSpec
    processors: Tuple[ProcessorSpec, ...]
    proc: ProcessorSpec
    solo_ms: float
    workload: SliceWorkload
    working_set: float
    compiled: CompiledSlice


class CompiledTables:
    """Slice table and co-run rate memo for one objective scope.

    The LRUs are sized by :data:`DEFAULT_SLICE_TABLE_SIZE` and
    :data:`DEFAULT_RATE_MEMO_SIZE`.
    """

    def __init__(self) -> None:
        self.slices: LRUCache[SliceKey, _SliceEntry] = LRUCache(
            DEFAULT_SLICE_TABLE_SIZE
        )
        self.rates: RateMemo = LRUCache(DEFAULT_RATE_MEMO_SIZE)
        self._next_key = 0

    def clear(self) -> None:
        """Drop every compiled slice and memoized rate."""
        self.slices.clear()
        self.rates.clear()

    def chains(self, plan: "PipelinePlan") -> List[List[ChainTask]]:
        """Fresh chain tasks for ``plan``, built from the slice table.

        Field for field what :func:`~repro.runtime.executor.plan_to_chains`
        builds, plus each task's ``compiled`` constants.
        """
        soc, processors = plan.soc, plan.processors
        soc_id, procs_id = id(soc), id(processors)
        chains: List[List[ChainTask]] = []
        for i, assignment in enumerate(plan.assignments):
            profile_id = id(assignment.profile)
            chain: List[ChainTask] = []
            for k, slc in enumerate(assignment.slices):
                if slc is None:
                    continue
                key = (soc_id, procs_id, profile_id, k, slc[0], slc[1])
                entry = self.slices.get(key)
                if entry is None:
                    entry = self._compile(soc, processors, assignment, k, slc)
                    self.slices.put(key, entry)
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

    def _compile(
        self,
        soc: SocSpec,
        processors: Tuple[ProcessorSpec, ...],
        assignment: "StageAssignment",
        k: int,
        slc: Tuple[int, int],
    ) -> _SliceEntry:
        profile: ModelProfile = assignment.profile
        proc = processors[k]
        start, end = slc
        workload = SliceWorkload(profile=profile, proc=proc, start=start, end=end)
        self._next_key += 1
        return _SliceEntry(
            soc=soc,
            processors=processors,
            proc=proc,
            solo_ms=assignment.stage_time_ms(k, processors),
            workload=workload,
            working_set=ARENA_OVERHEAD_FACTOR
            * profile.working_set_bytes(start, end),
            compiled=CompiledSlice(
                key=self._next_key,
                kind=proc.kind,
                intensity=workload.intensity(),
                sensitivity=workload.sensitivity(),
                traffic_bytes=profile.traffic_bytes(proc, start, end),
            ),
        )
