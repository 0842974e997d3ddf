"""The objective's caches of compiled simulation inputs.

Every objective probe re-simulates a whole plan.  A descent changes one
or two slices per probe, so nearly all of the work of building its
chain tasks, and of computing the co-run rates of its running sets,
repeats.  :class:`CompiledTables` keeps that work once per scope:

* a **slice table** (:data:`~repro.runtime.executor.SliceTable`) that
  :func:`~repro.runtime.executor.plan_to_chains` consults, keyed by
  ``(soc, processor tuple, profile, stage, slice)``, each entry holding
  exactly the task values and
  :class:`~repro.runtime.engine.CompiledSlice` constants that function
  would otherwise compute;
* a **rate memo** (:data:`~repro.runtime.engine.RateMemo`) mapping a
  co-running tuple of compiled slices to its per-task rates.

Both are bounded LRUs.  Slice-table keys are identities pinned by their
entries; rate-memo keys are the compiled slices themselves, which hash
by identity and are pinned by the memo entry holding them.  So an entry
can only ever be hit by the objects it was computed for, and rates are
per SoC because compiled slices are.  The tables must share a scope with
the profiles they were built from:
:class:`~repro.core.objective.ObjectiveCache` owns one and empties it in
:meth:`~repro.core.objective.ObjectiveCache.clear`.
"""

from __future__ import annotations

from ..util import LRUCache
from .engine import RateMemo
from .executor import SliceTable

#: Default bounds.  A cold three-to-eight-model plan touches up to ~400
#: distinct slices and ~2.1k (five models) to ~2.7k (eight) co-running
#: sets.  Past the bound the memo drops sets from earlier descent
#: phases, which are not probed again: on eight-model plans its miss
#: share stays 6.0% with or without evictions.  The bounds cap what a
#: long-lived planner holds between invalidations (~1 MB).
DEFAULT_SLICE_TABLE_SIZE = 1024
DEFAULT_RATE_MEMO_SIZE = 2048


class CompiledTables:
    """Slice table and co-run rate memo for one objective scope.

    The LRUs are sized by :data:`DEFAULT_SLICE_TABLE_SIZE` and
    :data:`DEFAULT_RATE_MEMO_SIZE`.
    """

    def __init__(self) -> None:
        self.slices: SliceTable = LRUCache(DEFAULT_SLICE_TABLE_SIZE)
        self.rates: RateMemo = LRUCache(DEFAULT_RATE_MEMO_SIZE)

    def clear(self) -> None:
        """Drop every compiled slice and memoized rate."""
        self.slices.clear()
        self.rates.clear()
