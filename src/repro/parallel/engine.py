"""Wave planning and dispatch for parallel exploration.

The serial wirer explores an fk update tree one configuration per
iteration: measure the current config, merge its profiles into the index,
advance.  ``advance`` consults the index, so naively parallelizing the
loop stalls on every measurement.  This module exploits the structure of
fk exploration to batch candidates into *waves*:

* the fk tree is a single ``parallel``-mode node over independent
  ``"units"`` variables (:meth:`~repro.core.enumerator.Enumerator.build_fk_tree`),
  and a ``"units"`` measurement depends only on the variable's own choice
  (the units its choice emits), never on what the other variables chose;
* therefore the *keys* a candidate will add to the index are known at
  planning time, before the measurement exists -- only the values are
  pending.

:func:`plan_wave` walks the tree speculatively against the union of the
real index and the pending key set.  A variable that would need a pending
*value* (its exhaustion ``finalize`` scans measured values) is deferred:
it rides along at its stale position, other variables keep stepping, and
the wave seals when nothing can step.  Each planned candidate carries a
tree snapshot, so the wirer can restore the candidate's configuration and
replay its outcome through the one bookkeeping path a serial measurement
takes (``CustomWirer._apply_outcome``) -- and rewind cleanly when a
candidate's samples all failed.

The result: every variable visits the same choice sequence as the serial
loop and the index receives the same keys -- while a whole phase
typically dispatches as one or two waves.  Values agree with a serial
run's to within an ulp at base clock without faults; jitter and fault
draws come from per-candidate substreams, so they differ from a serial
run's rolling stream (see docs/performance.md).  Trees of any other shape
(prefix stream phases, exhaustive subtrees, hierarchical forks) take the
serial path unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.adaptive import MODE_PARALLEL, AdaptiveVariable, UpdateNode
from .wire import CandidateTask

#: speculative advance results for one variable
ADV_LIVE = "live"          # stepped to a new unmeasured choice
ADV_DEFERRED = "deferred"  # cannot resolve without a pending value
ADV_DONE = "done"          # exhausted; finalized against real values

#: wave statuses
STATUS_EXHAUSTED = "exhausted"  # tree fully explored; phase is over
STATUS_SEALED = "sealed"        # blocked on pending values; advance owed
STATUS_BUDGET = "budget"        # phase budget reached at the last config
STATUS_LIMIT = "limit"          # wave cap reached; advance owed

#: upper bound on candidates planned per wave.  A wave normally ends when
#: enumeration seals (every live variable finished its current phase);
#: the cap only bounds memory for degenerate spaces and is deliberately
#: worker-count independent so batching never shifts with pool size.
MAX_WAVE = 32


def engine_supported(tree) -> bool:
    """Only the fk shape: a parallel root over plain adaptive variables.

    Everything else -- prefix stream phases (each child frozen at its
    best before the next starts), exhaustive subtrees (cartesian
    odometer) -- is inherently sequential in the index and stays on the
    serial path.
    """
    return (
        isinstance(tree, UpdateNode)
        and tree.mode == MODE_PARALLEL
        and bool(tree.children)
        and all(isinstance(c, AdaptiveVariable) for c in tree.children)
    )


@dataclass
class WaveEntry:
    """One planned configuration: a measurement candidate or an index hit.

    ``snapshot`` captures the tree positions *at* this configuration, so
    the merge can restore them before replaying -- profile keys and the
    quarantine config-key both read variables' current values.
    """

    kind: str  # "measure" | "hit"
    snapshot: tuple
    assignment: dict
    live_names: tuple = ()
    live_keys: tuple = ()


def _advance_var(var, index, context, pending) -> str:
    """Speculative mirror of :meth:`AdaptiveVariable.advance`.

    Treats pending keys as measured while walking (their values are
    coming), but refuses to *finalize* through them -- finalize compares
    measured values, and guessing one would let the wave diverge from
    the serial winner.
    """
    if var._exhausted:
        return ADV_DONE
    step = var._step
    while True:
        step += 1
        if step >= len(var.choices):
            for choice in var.choices:
                if var.profile_key(context, choice) in pending:
                    return ADV_DEFERRED  # position untouched; ride along
            var._exhausted = True
            var.finalize(index, context)
            return ADV_DONE
        position = step if var._order is None else var._order[step]
        key = var.profile_key(context, var.choices[position])
        if key not in index and key not in pending:
            var._step, var._position = step, position
            return ADV_LIVE


def _advance_wave(root, index, context, pending) -> str:
    """Speculative mirror of the parallel-mode :meth:`UpdateNode.advance`."""
    any_live = False
    any_deferred = False
    for pos, child in enumerate(root.children):
        if root._done[pos]:
            continue
        result = _advance_var(child, index, context, pending)
        if result == ADV_LIVE:
            any_live = True
        elif result == ADV_DEFERRED:
            any_deferred = True
        else:
            root._done[pos] = True
    if any_live:
        return ADV_LIVE
    return ADV_DEFERRED if any_deferred else ADV_DONE


def plan_wave(
    tree,
    index,
    context: tuple,
    *,
    samples: int,
    spent: int,
    budget: int,
    limit: int,
    advance_first: bool,
) -> tuple[list[WaveEntry], str]:
    """Enumerate the next wave of configurations from the tree's state.

    Visits configurations in exactly the serial loop's order: current
    config, advance, config, advance ...  ``spent`` and ``budget`` are
    the phase-local counts the serial loop compares (every measurement
    candidate charges exactly ``samples`` mini-batches, so the projection
    is exact).  ``advance_first`` discharges the advance owed by a
    previous sealed/limit wave -- performed against the real index, with
    nothing pending, it is the serial advance.

    Leaves the tree at the end-of-wave state; the caller re-restores
    entry snapshots while merging.
    """
    entries: list[WaveEntry] = []
    pending: set = set()
    measures = 0
    if advance_first:
        if not tree.advance(index, context):
            return entries, STATUS_EXHAUSTED
    while True:
        live = [
            v for v in tree.variables()
            if v.profile_key(context) not in index
            and v.profile_key(context) not in pending
        ]
        snapshot = tree.snapshot_state()
        if live:
            live_keys = tuple(v.profile_key(context) for v in live)
            pending.update(live_keys)
            entries.append(WaveEntry(
                kind="measure",
                snapshot=snapshot,
                assignment=tree.assignment(),
                live_names=tuple(v.name for v in live),
                live_keys=live_keys,
            ))
            measures += 1
            if spent + measures * samples >= budget:
                return entries, STATUS_BUDGET
            if measures >= limit:
                return entries, STATUS_LIMIT
        else:
            entries.append(WaveEntry(
                kind="hit", snapshot=snapshot, assignment=tree.assignment(),
            ))
        result = _advance_wave(tree, index, context, pending)
        if result == ADV_DONE:
            return entries, STATUS_EXHAUSTED
        if result == ADV_DEFERRED:
            return entries, STATUS_SEALED


@dataclass
class EngineStats:
    rounds: int = 0
    candidates: int = 0
    shards: int = 0
    estimate_shards: int = 0
    discarded: int = 0
    busy_s: float = 0.0
    dispatch_s: float = 0.0
    inline_fallbacks: int = 0
    pool_startup_s: float = 0.0


class ParallelEngine:
    """Dispatches planned waves onto a worker pool and accounts for it.

    Owns no exploration semantics: the wirer plans waves and merges
    outcomes; the engine turns measurement candidates into shards,
    gathers :class:`~repro.parallel.wire.CandidateOutcome` lists in
    canonical (ordinal) order, and publishes ``parallel.*`` telemetry.
    """

    def __init__(self, pool, metrics=None, tracer=None):
        from ..obs.metrics import NULL_REGISTRY
        from ..obs.trace import NULL_TRACER

        self.pool = pool
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = EngineStats()

    @property
    def workers(self) -> int:
        return self.pool.workers

    def prewarm(self) -> None:
        start = time.perf_counter()
        self.pool.prewarm()
        self.stats.pool_startup_s += time.perf_counter() - start

    # -- dispatch ---------------------------------------------------------

    def measure_wave(self, tasks: list[CandidateTask]) -> list:
        """Run one wave's candidates; outcomes return in ordinal order.

        Shards are contiguous runs of ordinals, so concatenating shard
        results in shard order *is* the canonical order -- no sorting,
        no ties to break.
        """
        if not tasks:
            return []
        wave_base_us = self.tracer.now_us()
        start = time.perf_counter()
        shards = _shard(tasks, self.pool.workers)
        futures = [self.pool.run_shard(shard) for shard in shards]
        outcomes: list = []
        for shard, future in zip(shards, futures):
            outcomes.extend(self._collect(shard, future))
        wall = time.perf_counter() - start
        self._absorb_spans(outcomes, wave_base_us)
        busy = sum(o.busy_s for o in outcomes)
        self.stats.rounds += 1
        self.stats.candidates += len(tasks)
        self.stats.shards += len(shards)
        self.stats.busy_s += busy
        self.stats.dispatch_s += wall
        self.metrics.counter("parallel.rounds").inc()
        self.metrics.counter("parallel.candidates").inc(len(tasks))
        for shard in shards:
            self.metrics.histogram("parallel.shard_size").observe(len(shard))
        self.metrics.histogram("parallel.dispatch_us").observe(wall * 1e6)
        utilization = (
            busy / (wall * self.pool.workers) if wall > 0 else 0.0
        )
        self.metrics.series("parallel.utilization").append(utilization)
        self.tracer.instant(
            "parallel/round",
            candidates=len(tasks), shards=len(shards),
            wall_us=wall * 1e6, utilization=round(utilization, 3),
        )
        return outcomes

    def _absorb_spans(self, outcomes, wave_base_us: float) -> None:
        """Re-home worker-recorded spans onto the parent tracer's clock.

        Workers stamp span ``ts`` relative to their own candidate start;
        the parent lays each worker's candidates out back-to-back from the
        wave's start on that worker's dedicated track.  The layout is an
        approximation of true wall alignment (workers start within the
        dispatch jitter of each other), but busy/idle proportions and
        per-candidate durations are exact.
        """
        cursor: dict[int, float] = {}
        for outcome in outcomes:
            if not outcome.spans:
                continue
            base = wave_base_us + cursor.get(outcome.worker_pid, 0.0)
            self.tracer.absorb_worker_spans(
                outcome.spans, outcome.worker_pid, base
            )
            cursor[outcome.worker_pid] = (
                cursor.get(outcome.worker_pid, 0.0) + outcome.busy_s * 1e6
            )

    def gather_estimates(self, strategy_id: int, names: list) -> dict:
        """Sharded cost-model pre-ranking: name -> per-choice estimates."""
        if not names:
            return {}
        shards = _shard(list(names), self.pool.workers)
        futures = [
            self.pool.run_estimates(strategy_id, shard) for shard in shards
        ]
        estimates: dict = {}
        for shard, future in zip(shards, futures):
            try:
                rows = future.result()
            except Exception:
                # a failed estimate shard costs nothing: the pruner
                # recomputes missing entries serially
                self.stats.inline_fallbacks += 1
                continue
            estimates.update(zip(shard, rows))
        self.stats.estimate_shards += len(shards)
        self.metrics.counter("parallel.estimate_jobs").inc(len(names))
        return estimates

    def _collect(self, shard, future) -> list:
        """Resolve one shard, degrading to in-caller execution if the
        pool broke (worker killed, pipe torn): slower, never wrong --
        the outcome log is identical by the determinism contract."""
        try:
            return future.result()
        except Exception:
            self.stats.inline_fallbacks += 1
            self.metrics.counter("parallel.inline_fallbacks").inc()
            return self.pool.inline().run_shard(shard).result()

    def summary(self) -> dict:
        s = self.stats
        return {
            "workers": self.pool.workers,
            "pool": getattr(self.pool, "kind", "unknown"),
            "rounds": s.rounds,
            "candidates": s.candidates,
            "shards": s.shards,
            "discarded": s.discarded,
            "worker_busy_s": round(s.busy_s, 6),
            "dispatch_s": round(s.dispatch_s, 6),
            "pool_startup_s": round(s.pool_startup_s, 6),
            "inline_fallbacks": s.inline_fallbacks,
        }

    def close(self) -> None:
        self.pool.close()


def _shard(items: list, workers: int) -> list[list]:
    """Contiguous, balanced partition of ``items`` into ≤ ``workers`` runs."""
    if not items:
        return []
    count = min(max(1, workers), len(items))
    base, extra = divmod(len(items), count)
    shards = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        shards.append(items[start:start + size])
        start += size
    return shards
