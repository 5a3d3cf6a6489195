"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by
1.5x and more over minutes, as other tenants come and go.  A run of
``legalize()`` therefore interleaves a fixed reference kernel with its
timed calls and reports each time scaled to a host on which that kernel
takes ``NOMINAL_S``: ``time * NOMINAL_S / mean(kernel times)``.

The kernel uses no ``repro`` code, so no change to the program can move
it; it mixes the pure-Python work (tuples, dicts, sorts, a heap) and the
small-array NumPy work that dominate a ``legalize()`` call.  It runs
with the garbage collector off, so its own time depends on the host
alone.  A block of kernel runs precedes every timed call and one follows
the last, so each call is scaled by the mean of the two blocks around
it.  The mean, not the median: the kernel is short, and its runs land in
the host's fast and slow phases in about the proportion a multi-second
call spans them.

The cores of the host are not equally fast, and which one is slow changes
within seconds.  A serial run is therefore pinned to one core, kernel and
calls alike; a run whose calls use worker processes times the kernel on
each of its cores in turn, pinning one run at a time.
"""

from __future__ import annotations

import gc
import heapq
import os
from time import perf_counter
from typing import List, Sequence

import numpy as np

#: Kernel time, in seconds, of the host the scaled times refer to (a
#: quiet core of the 2-core container the benchmark was tuned on).
NOMINAL_S = 0.07


def reference_kernel() -> int:
    """A fixed mix of interpreter and small-array work (about 70 ms)."""
    rows: dict = {}
    x = 12345
    for i in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        rows.setdefault(x % 211, []).append((x % 5003, i, x & 7))
    heap: list = []
    for row, cells in rows.items():
        cells.sort()
        for a, b, c in cells[::4]:
            heapq.heappush(heap, (a - b % 13, row, c))
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    line = np.arange(2000, dtype=np.float64)
    sink = np.zeros(200000)
    for i in range(600):
        prefix = np.cumsum(np.abs(line - (i % 2000)) * 0.5)
        j = int(np.searchsorted(prefix, prefix[-1] * 0.5, side="left"))
        start = (i * 331) % 199000
        sink[start:start + 1000] += prefix[j]
        total += j
    return total


def usable_cores() -> List[int]:
    """The cores this process may run on, or ``[]`` where unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin(cores: Sequence[int]) -> None:
    """Restrict this process to ``cores``; a no-op where unsupported."""
    if cores and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cores)


class Calibration:
    """Blocks of kernel times collected over one run.

    ``cores`` are the cores the timed calls use; each kernel run is
    pinned to the next of them, and the process's own core set is
    restored after each block.
    """

    def __init__(self, cores: Sequence[int]) -> None:
        self.cores = list(cores)
        self.blocks: List[List[float]] = []

    def sample(self, reps: int) -> int:
        """Time the kernel ``reps`` times, the collector off.

        Returns the index of the new block.
        """
        block: List[float] = []
        restore = usable_cores()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for rep in range(reps):
                if len(self.cores) > 1:
                    pin([self.cores[rep % len(self.cores)]])
                start = perf_counter()
                reference_kernel()
                block.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            if len(self.cores) > 1:
                pin(restore)
        self.blocks.append(block)
        return len(self.blocks) - 1

    def times(self) -> List[float]:
        return [t for block in self.blocks for t in block]

    def mean_s(self) -> float:
        times = self.times()
        return sum(times) / len(times)

    def scale_at(self, block: int) -> float:
        """Factor for a call made between ``block`` and the next block."""
        around = self.blocks[block] + self.blocks[block + 1]
        return NOMINAL_S * len(around) / sum(around)
