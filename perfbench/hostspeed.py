"""Host-speed calibration for the host-timed metrics.

The benchmark runs on shared machines whose speed changes for minutes
at a time as other tenants load the physical core: the same operation
then takes ~1.5x as long, in process CPU time as much as in wall time.
Inside a run, a fixed calibration kernel (pure Python, independent of
the program) is timed after each operation, once per
``SAMPLE_EVERY_MS`` of the operation's time.  The mean of a pass's
samples over ``REFERENCE_MS`` is that pass's *host factor*, and
host-timed metrics are reported in reference-host time: each measured
time divided by the factor of the pass it was measured in.  A host-wide
slowdown slows the kernel and the program alike and cancels; a change
in the program's own cost does not.

Means, not medians or minima, are paired on both sides: the kernel's
time is bimodal (fast and slow host states), so its mean, like an
operation's mean over passes, moves in proportion to the share of time
the host spent slow, while a median or minimum jumps between the modes.

The kernel imitates the program's hot paths (a heap-driven
processor-sharing event loop over small objects with attribute access,
list scans and float arithmetic), so contention slows it the way it
slows the program.  It runs with the garbage collector off, so its time
does not depend on how many objects the program holds.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Kernel time, in ms, on the reference host: the fast state of a
#: 2-vCPU Intel Xeon virtual machine running CPython 3.11.
REFERENCE_MS = 0.8
#: One kernel sample per this much measured time, so the samples cover
#: the host's states in proportion to the time the operations ran in.
SAMPLE_EVERY_MS = 25.0


class _Task:
    __slots__ = ("index", "proc", "work", "rate", "done")

    def __init__(self, index: int, proc: int, work: float) -> None:
        self.index = index
        self.proc = proc
        self.work = work
        self.rate = 1.0
        self.done = 0.0


def kernel() -> float:
    """A processor-sharing event loop over 100 arrivals on 4 processors;
    returns its makespan.  Deterministic: the same events every call."""
    seed = 12345
    heap: list = []
    running: dict = {p: [] for p in range(4)}
    for index in range(100):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        task = _Task(index, index % 4, 1.0 + (seed % 1000) / 250.0)
        heapq.heappush(heap, (index * 3.0, index, task))
    now = 0.0
    while heap:
        at, _, task = heapq.heappop(heap)
        share = running[task.proc]
        for other in share:
            other.done += (at - now) * other.rate
        now = at
        if task not in share:
            share.append(task)
        elif task.done >= task.work - 1e-9:
            share.remove(task)
        rate = 1.0 / len(share) if share else 1.0
        for other in share:
            other.rate = rate
        if task in share:
            left = (task.work - task.done) / task.rate
            heapq.heappush(heap, (now + left, task.index, task))
    return now


class HostSpeed:
    """Calibration samples of one pass.

    A disabled instance takes no samples and has factor 1: the traced
    run leaves calibration out, as it would fall inside open spans.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples_ms: List[float] = []

    def sample(self, count: int) -> None:
        if not self.enabled:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                kernel()
                self.samples_ms.append((time.perf_counter() - start) * 1e3)
        finally:
            if collecting:
                gc.enable()

    def sample_for(self, measured_s: float) -> None:
        """Samples in proportion to ``measured_s`` of measured time."""
        self.sample(max(1, round(measured_s * 1e3 / SAMPLE_EVERY_MS)))

    def factor(self) -> float:
        """Mean kernel time over the reference host's; 1 if unsampled."""
        if not self.samples_ms:
            return 1.0
        return statistics.fmean(self.samples_ms) / REFERENCE_MS
