"""Parallel exploration engine (docs/performance.md).

Partitions each exploration round's candidate configurations into work
shards, measures them on a pool of worker processes (with an in-process
fallback), and merges the results back into the profile index in
canonical order -- serial and parallel runs converge to the same winner,
the same index contents, and the same epoch time.
"""

from .engine import ParallelEngine, engine_supported, plan_wave
from .pool import InlinePool, ProcessPool, make_pool
from .wire import CandidateOutcome, CandidateTask, WorkerSpec

__all__ = [
    "CandidateOutcome",
    "CandidateTask",
    "InlinePool",
    "ParallelEngine",
    "ProcessPool",
    "WorkerSpec",
    "engine_supported",
    "make_pool",
    "plan_wave",
]
