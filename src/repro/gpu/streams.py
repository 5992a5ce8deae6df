"""Discrete-event execution engine: streams, dispatch, processor sharing.

This is the heart of the GPU substrate.  It models the execution semantics
the paper's optimizations exploit (sections 2.3 and 3.3):

* the CPU issues kernel launches *serially* (5-10 us each), long before the
  kernels execute -- so many small kernels become dispatch-bound;
* each stream executes its kernels in FIFO order; kernels on different
  streams run concurrently, *sharing* the SM array (modelled as max-min
  fair processor sharing, each kernel capped by its own tile parallelism);
* cross-stream dependencies are enforced with events
  (record-event / wait-event pairs), and host syncs block the dispatch
  thread;
* in base-clock mode execution is exactly deterministic; in autoboost mode
  a seeded multiplicative jitter is applied per kernel execution,
  reproducing the variance the paper had to disable via nvidia-smi
  (section 7).

The engine returns per-kernel and per-event timestamps, from which the
profiler computes the fine-grained measurements that drive adaptation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .device import CLOCK_AUTOBOOST, GPUSpec
from .events import EventId
from .kernels import Kernel

_EPS = 1e-9


@dataclass
class LaunchItem:
    """Dispatch-order instruction: launch ``kernel`` into ``stream``.

    ``record_is_profiling`` distinguishes events recorded for the profiler
    (counted as profiling overhead) from events required for cross-stream
    synchronization (a cost of the schedule itself).
    """

    kernel: Kernel
    stream: int = 0
    waits: tuple[EventId, ...] = ()
    record: EventId | None = None
    record_is_profiling: bool = True


@dataclass
class RecordEventItem:
    """Record an event in a stream (completes when prior stream work does)."""

    stream: int
    event: EventId


@dataclass
class HostSyncItem:
    """Dispatch thread blocks until ``event`` completes (None = all work).

    Used for super-epoch barriers (section 4.5.3) and end-of-mini-batch
    synchronization.
    """

    event: EventId | None = None


@dataclass
class HostComputeItem:
    """Pure CPU-side work that stalls dispatch (e.g. host-side embedding
    lookups in the XLA pathology, section 6.6)."""

    duration_us: float
    label: str = "host"


DispatchItem = LaunchItem | RecordEventItem | HostSyncItem | HostComputeItem


@dataclass
class KernelRecord:
    """Timing of one executed kernel instance.

    Every record carries its stream and kernel kind (via the uniform
    ``stream_id`` / ``kind`` accessors) so downstream consumers -- the
    timeline renderer and the Chrome-trace exporter in
    :mod:`repro.obs.trace` -- never have to fall back to defaults.
    """

    kernel: Kernel
    stream: int
    issue_time: float
    start_time: float = -1.0
    end_time: float = -1.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def stream_id(self) -> int:
        """The stream this kernel was dispatched to (alias of ``stream``)."""
        return self.stream

    @property
    def kind(self) -> str:
        """Kernel classification (gemm/elementwise/copy/compound/transfer)."""
        return self.kernel.kind


@dataclass
class ExecutionResult:
    """Everything the profiler can observe about one mini-batch execution."""

    total_time_us: float
    cpu_time_us: float
    records: list[KernelRecord]
    event_times: dict[EventId, float]
    #: CPU microseconds spent on event marking (profiling overhead metric)
    profiling_overhead_us: float = 0.0

    def elapsed_us(self, start: EventId, end: EventId) -> float:
        """cudaEventElapsedTime analog."""
        try:
            return self.event_times[end] - self.event_times[start]
        except KeyError as exc:
            raise KeyError(f"event {exc} was never recorded") from exc

    def kernel_time_us(self) -> float:
        return sum(r.duration for r in self.records)

    def stream_ids(self) -> list[int]:
        """Sorted ids of every stream that executed at least one kernel."""
        return sorted({r.stream_id for r in self.records})

    def records_for_stream(self, stream: int) -> list[KernelRecord]:
        """Kernel records dispatched to ``stream``, in dispatch order."""
        return [r for r in self.records if r.stream_id == stream]


class _Running:
    """A kernel currently executing, tracked in slot-microseconds.

    ``cap`` is the kernel's parallelism as a float; copy-engine work
    (``cap`` 0) never shares SMs and runs at ``rate`` 1.0 throughout.
    """

    __slots__ = ("record", "cap", "work_left", "rate")

    def __init__(self, record: KernelRecord, cap: float, work: float, rate: float):
        self.record = record
        self.cap = cap
        self.work_left = work
        self.rate = rate


def head_start(issue: float, wait_ends, last_done: float) -> float:
    """The start rule: a stream's head kernel starts at the latest of its
    issue time, the end of every event it waits on, and the end of the
    stream's previous kernel (FIFO).

    The simulator applies it when a head becomes ready, and
    :mod:`repro.obs.whatif` replays recorded timelines with it.  Each
    comparison is the one builtin ``max`` makes, so the result is exact.
    """
    start = issue
    for end in wait_ends:
        if end > start:
            start = end
    return last_done if last_done > start else start


def _waterfill(sharers: list[_Running], slots: float) -> None:
    """Max-min fair allocation of SM slots among resident kernels.

    ``sharers`` holds the SM users sorted by cap, ties in start order;
    each kernel is capped by its own available parallelism.
    """
    remaining = slots
    count = len(sharers)
    for r in sharers:
        share = remaining / count
        alloc = share if share < r.cap else r.cap
        r.rate = alloc
        remaining -= alloc
        count -= 1


class StreamSimulator:
    """Executes a dispatch list and reports timings.

    A fresh simulator is cheap; reuse one only to share the autoboost RNG
    stream across mini-batches (which is what makes autoboost measurements
    non-repeatable run to run).

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) arms
    fault injection: per-kernel slowdowns and throttle windows multiply
    into execution times on top of any autoboost jitter, kernel launches
    may abort the run with
    :class:`~repro.faults.events.KernelLaunchError`, and profiled
    timestamps may be marked dropped/corrupted in the injector's
    per-mini-batch log (the executor reads the log back; the simulator's
    own records stay ground truth).
    """

    def __init__(self, device: GPUSpec, seed: int = 0, injector=None):
        self.device = device
        self._rng = np.random.default_rng(seed)
        self.injector = injector

    def rng_state(self) -> dict:
        """JSON-safe snapshot of the jitter RNG, for checkpointing: a
        resumed run continues the exact autoboost noise stream."""
        from ..faults.injector import _encode_rng_state

        return _encode_rng_state(self._rng.bit_generator.state)

    def set_rng_state(self, state: dict) -> None:
        from ..faults.injector import _decode_rng_state

        self._rng.bit_generator.state = _decode_rng_state(state)

    def reseed(self, seed_key) -> None:
        """Rebind the jitter RNG to a derived substream.

        The parallel engine reseeds a worker's simulator once per
        exploration candidate, keyed by the candidate's global mini-batch
        ordinal, so autoboost jitter is a function of *which* candidate
        runs -- never of which worker runs it or what ran on that worker
        before.  At base clock no draws happen at all and reseeding is a
        no-op in effect.
        """
        self._rng = np.random.default_rng(seed_key)

    def _jitter(self) -> float:
        if self.device.clock_mode != CLOCK_AUTOBOOST:
            return 1.0
        gain = 1.0 + self.device.autoboost_gain
        half = self.device.autoboost_jitter
        return max(0.05, gain * (1.0 + self._rng.uniform(-half, half)))

    def _duration(self, kernel: Kernel) -> float:
        """Execution time of one kernel instance: model time, autoboost
        jitter, then any injected straggler/throttle multiplier."""
        if self.injector is None and self.device.clock_mode != CLOCK_AUTOBOOST:
            # x * 1.0 == x: the model time, and no RNG draw
            return kernel.duration_us(self.device)
        duration = kernel.duration_us(self.device) * self._jitter()
        if self.injector is not None:
            duration *= self.injector.kernel_multiplier(kernel.kind)
        return duration

    def _check_launch(self, item: LaunchItem) -> None:
        if self.injector is not None and self.injector.launch_fails(item.kernel.kind):
            from ..faults.events import KernelLaunchError

            raise KernelLaunchError(item.kernel.kind, self.injector.minibatch)

    def _mark_profiled_record(self, record_index: int) -> None:
        """Give the injector a chance to drop/corrupt the timestamp pair
        backing this profiled kernel record."""
        if self.injector is not None:
            self.injector.event_fault(record_index)

    def run(self, items: list[DispatchItem]) -> ExecutionResult:
        if self._is_sequential(items):
            return self._run_sequential(items)
        return self._run_concurrent(items)

    @staticmethod
    def _is_sequential(items: list[DispatchItem]) -> bool:
        """True when the schedule uses a single stream and no cross-stream
        waits -- the common case for native and fusion-phase plans, which a
        much cheaper pipeline model executes exactly."""
        stream = None
        for item in items:
            if isinstance(item, LaunchItem):
                if item.waits:
                    return False
                if stream is None:
                    stream = item.stream
                elif item.stream != stream:
                    return False
            elif isinstance(item, RecordEventItem):
                if stream is not None and item.stream != stream:
                    return False
        return True

    def _run_sequential(self, items: list[DispatchItem]) -> ExecutionResult:
        """O(n) execution of a single-stream schedule: each kernel starts at
        max(its launch time, previous kernel's completion)."""
        device = self.device
        cpu_time = 0.0
        last_end = 0.0
        records: list[KernelRecord] = []
        event_times: dict[EventId, float] = {}
        profiling_overhead = 0.0
        for item in items:
            if isinstance(item, LaunchItem):
                cpu_time += device.launch_overhead_us
                self._check_launch(item)
                if item.record is not None:
                    cpu_time += device.event_overhead_us
                    if item.record_is_profiling:
                        profiling_overhead += device.event_overhead_us
                        self._mark_profiled_record(len(records))
                start = max(cpu_time, last_end)
                duration = self._duration(item.kernel)
                end = start + duration
                records.append(
                    KernelRecord(item.kernel, item.stream, cpu_time, start, end)
                )
                last_end = end
                if item.record is not None:
                    event_times[item.record] = end
            elif isinstance(item, RecordEventItem):
                cpu_time += device.event_overhead_us
                profiling_overhead += device.event_overhead_us
                event_times[item.event] = max(cpu_time, last_end) if records else cpu_time
            elif isinstance(item, HostComputeItem):
                cpu_time += item.duration_us
            elif isinstance(item, HostSyncItem):
                if item.event is not None and item.event not in event_times:
                    raise RuntimeError(f"sync on unrecorded event {item.event}")
                target = event_times[item.event] if item.event is not None else last_end
                cpu_time = max(cpu_time, target) + device.barrier_overhead_us
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown dispatch item {item!r}")
        total = max(cpu_time, last_end)
        return ExecutionResult(
            total_time_us=total,
            cpu_time_us=cpu_time,
            records=records,
            event_times=event_times,
            profiling_overhead_us=profiling_overhead,
        )

    def _run_concurrent(self, items: list[DispatchItem]) -> ExecutionResult:
        """Processor-sharing DES over FIFO streams.

        The work per event is incremental.  Ready stream heads are
        rescanned only after a completion, which is also the only time the
        dispatch thread can resume issuing; a start-only step just drops
        the started heads.  The running SM users stay sorted by cap, and
        the waterfill reruns only when that set changes.  The float
        expressions and their order, and the order of :meth:`_duration`
        calls (the jitter and injector RNG draw order), are a fixed
        contract (``docs/simulator.md``) that
        ``tests/gpu/test_des_golden.py`` pins bit for bit.
        """
        device = self.device
        slots = float(device.sm_slots)
        launch_us = device.launch_overhead_us
        event_us = device.event_overhead_us
        barrier_us = device.barrier_overhead_us
        eps = _EPS
        n_items = len(items)

        event_times: dict[EventId, float] = {}
        records: list[KernelRecord] = []
        # stream id -> (record, waits, events to stamp) not yet finished;
        # streams keep their first-launch order, which breaks start ties
        stream_queues: dict[int, deque] = {}
        # stream id -> completion time of the last *finished* kernel
        stream_last_done: dict[int, float] = {}
        # executing kernels in start order; at most one per stream
        running: list[_Running] = []
        # the SM users among them, sorted by cap (ties in start order)
        sharers: list[_Running] = []
        # ready stream heads as (start, record), in stream order
        ready: list[tuple[float, KernelRecord]] = []
        profiling_overhead = 0.0

        cpu_time = 0.0
        idx = 0
        sim_time = 0.0
        in_flight = 0  # launched but unfinished kernels

        def issue_until_blocked() -> None:
            nonlocal cpu_time, idx, in_flight, profiling_overhead
            while idx < n_items:
                item = items[idx]
                kind = type(item)
                if kind is LaunchItem:
                    cpu_time += launch_us
                    self._check_launch(item)
                    rec = KernelRecord(item.kernel, item.stream, cpu_time)
                    events = []
                    if item.record is not None:
                        cpu_time += event_us
                        if item.record_is_profiling:
                            profiling_overhead += event_us
                            self._mark_profiled_record(len(records))
                        events.append(item.record)
                    queue = stream_queues.get(item.stream)
                    if queue is None:
                        queue = stream_queues[item.stream] = deque()
                    queue.append((rec, item.waits, events))
                    records.append(rec)
                    in_flight += 1
                elif kind is RecordEventItem:
                    cpu_time += event_us
                    profiling_overhead += event_us
                    queue = stream_queues.get(item.stream)
                    if queue:
                        # piggyback on the last launched kernel in the stream
                        queue[-1][2].append(item.event)
                    else:
                        # stream idle: event completes immediately at CPU time
                        event_times[item.event] = max(
                            cpu_time, stream_last_done.get(item.stream, 0.0)
                        )
                elif kind is HostComputeItem:
                    cpu_time += item.duration_us
                elif kind is HostSyncItem:
                    if item.event is None:
                        if in_flight > 0:
                            return
                        cpu_time = max(cpu_time, sim_time) + barrier_us
                    else:
                        done = event_times.get(item.event)
                        if done is None:
                            return
                        cpu_time = max(cpu_time, done) + barrier_us
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown dispatch item {item!r}")
                idx += 1

        def scan_ready() -> float | None:
            """Rebuild ``ready`` from every unstarted head whose waits are
            all recorded; returns the earliest start."""
            ready.clear()
            earliest = None
            for stream, queue in stream_queues.items():
                if not queue:
                    continue
                rec, waits, _events = queue[0]
                if rec.start_time >= 0.0:
                    continue  # already running
                ends = [event_times.get(ev) for ev in waits] if waits else waits
                if None in ends:
                    continue  # an awaited event is not recorded yet
                start = head_start(
                    rec.issue_time, ends, stream_last_done.get(stream, 0.0)
                )
                ready.append((start, rec))
                if earliest is None or start < earliest:
                    earliest = start
            return earliest

        issue_until_blocked()
        next_start = scan_ready()

        # Main event loop.
        while True:
            next_completion = None
            for r in running:
                rate = r.rate
                if rate <= 0:
                    continue
                finish = sim_time + r.work_left / rate
                if next_completion is None or finish < next_completion:
                    next_completion = finish

            if next_start is None:
                if next_completion is None:
                    if running or any(stream_queues.values()):
                        raise RuntimeError(
                            "deadlock: kernels pending but no progress possible "
                            "(wait on an event that is never recorded?)"
                        )
                    break
                new_time = next_completion
            elif next_completion is None or next_start <= next_completion:
                new_time = next_start
            else:
                new_time = next_completion

            # progress running kernels, collecting the finished ones
            dt = new_time - sim_time
            finished = None
            for r in running:
                r.work_left -= r.rate * dt
                if r.work_left <= eps:
                    if finished is None:
                        finished = [r]
                    else:
                        finished.append(r)
            sim_time = new_time

            # completions first (frees stream heads and events)
            if finished is not None:
                running = [r for r in running if r.work_left > eps]
                refill = False
                for r in finished:
                    refill = refill or r.cap > 0.0
                    rec = r.record
                    rec.end_time = sim_time
                    stream = rec.stream
                    _rec, _waits, events = stream_queues[stream].popleft()
                    stream_last_done[stream] = sim_time
                    for ev in events:
                        event_times[ev] = sim_time
                    in_flight -= 1
                if refill:
                    sharers = [r for r in sharers if r.work_left > eps]
                    _waterfill(sharers, slots)
                # the dispatch thread is parked on the host sync at idx
                # (if any): resume it once that sync can pass
                if idx < n_items:
                    sync = items[idx].event
                    if in_flight == 0 if sync is None else sync in event_times:
                        issue_until_blocked()
                next_start = scan_ready()
                continue

            # otherwise, start every kernel that is ready at this instant
            due_by = sim_time + eps
            due = [c for c in ready if c[0] <= due_by]
            if not due:
                if next_completion is None:
                    raise RuntimeError("simulation stalled without progress")
                continue
            if len(due) > 1:
                due.sort(key=itemgetter(0))
            refill = False
            for _start, rec in due:
                rec.start_time = sim_time
                kernel = rec.kernel
                cap = kernel.parallelism(device)
                base = self._duration(kernel)
                if cap > 0:
                    r = _Running(rec, float(cap), base * cap, 0.0)
                    pos = len(sharers)
                    while pos and sharers[pos - 1].cap > r.cap:
                        pos -= 1
                    sharers.insert(pos, r)
                    refill = True
                else:
                    r = _Running(rec, 0.0, base, 1.0)
                running.append(r)
            if refill:
                _waterfill(sharers, slots)
            if len(due) == len(ready):
                ready.clear()
                next_start = None
            else:
                ready[:] = [c for c in ready if c[0] > due_by]
                next_start = min(c[0] for c in ready)

        total = max([cpu_time] + [r.end_time for r in records] + [sim_time])
        return ExecutionResult(
            total_time_us=total,
            cpu_time_us=cpu_time,
            records=records,
            event_times=event_times,
            profiling_overhead_us=profiling_overhead,
        )
