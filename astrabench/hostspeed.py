"""Host-speed probe: the yardstick the end-to-end timings are scaled by.

On a shared VM the host's speed drifts by up to ~1.8x over seconds to
minutes.  The drift is in CPU time too, so it is not preemption, and it
moves whole runs at once: a run measured in a slow phase reads slow on
every metric.  Raw seconds would then differ more between runs of the
same code than any regression worth catching.

So the benchmark times a fixed pure-Python probe between jobs.  The
probe does the kind of work the system does: heap traffic, dict lookups
on tuple keys, attribute access and float arithmetic.  Each timing is
reported in *reference seconds*: raw seconds × ``REFERENCE_PROBE_S`` /
(the run's median probe time).  That is the time the run would have
taken on a host where one probe takes ``REFERENCE_PROBE_S``.  A change
to the system moves the timings and not the probe, so the scaled
figures still show it.  The run prints its raw seconds and the scale
next to the scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: a typical probe time on the 2-vCPU VM the bounds were set on
REFERENCE_PROBE_S = 0.0035


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def probe() -> float:
    """Time one fixed unit of interpreter work, in seconds."""
    start = time.perf_counter()
    heap = []
    table = {}
    total = 0.0
    for i in range(1500):
        node = _Node((i % 37, i % 11), i * 0.5)
        heapq.heappush(heap, (node.value % 13.0, i, node))
        table[node.key] = table.get(node.key, 0.0) + node.value
    while heap:
        weight, _i, node = heapq.heappop(heap)
        total += weight * table[node.key] / (1.0 + node.value)
    if total < 0:  # keeps the loop's result live
        raise AssertionError(total)
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken through one run."""

    def __init__(self):
        self.samples: list[float] = []
        #: wall spent probing, to leave out of loop throughput
        self.spent_s = 0.0

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        self.samples.extend(probe() for _ in range(count))
        self.spent_s += time.perf_counter() - start

    @property
    def scale(self) -> float:
        """Multiply raw seconds by this to get reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
