"""Cost-model-guided pre-ranking of the fusion/kernel search space.

The fk phase explores ``"units"``-metric variables in parallel: every
mini-batch measures one choice per live variable, and a variable's
measurement is the summed execution time of exactly the units its choice
emitted (kernel duration + gather pre-copies; never launch overhead).
At base clock, without a fault injector, the simulator computes those
durations from the same analytic kernel models the cost model exposes --
so :func:`estimate_choice_us` reproduces the number the wirer *would*
measure, to float precision.

That exactness is what makes pruning safe: a choice whose estimate
exceeds the variable's best estimate by more than the guard margin can
never win ``finalize`` (which picks the measured minimum), so dropping
it cannot change any winner.  The convergence-equivalence tests pin
this: pruned and exhaustive exploration pick the same configuration and
the same final epoch time on every bundled model.

When the exactness preconditions do not hold (autoboost clock jitter, an
armed fault injector perturbing durations), :func:`prune_fk_tree`
declines to prune rather than risk a divergent winner.

Stream-phase variables read an epoch metric that depends on cross-stream
overlap, for which the serial cost model is not admissible.  They are
pruned by a different argument: :class:`StreamBound` replays the frozen
FK plan's dispatch recurrence at fixed kernel rates, which bounds every
epoch metric from below, and :class:`StreamPruner` skips a stream
configuration before it is built when every live choice's bound exceeds
that variable's best measured value.  It stands down (and the wirer
counts why) under an injector, autoboost or ``samples > 1``; the
admissibility argument is spelled out above :class:`StreamBound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..gpu.cost_model import units_cost_us
from ..gpu.device import CLOCK_BASE
from ..gpu.streams import head_start
from ..obs.metrics import NULL_REGISTRY
from ..runtime.dispatcher import completion_event_units


@dataclass(frozen=True)
class FastPath:
    """Fast-path configuration carried by the wirer.

    The library default keeps the compilation cache on (bit-identical by
    construction) and pruning off; the CLI turns pruning on and exposes
    ``--no-prune`` / ``--no-cache`` escape hatches.
    """

    #: memoize lowering through :class:`repro.perf.cache.LoweringCache`
    #: and the enumerator's unit-template cache
    cache: bool = True
    #: pre-rank fk choices with the cost model and prune losers, and
    #: prune stream choices with the replay bound
    prune: bool = False
    #: at most this fraction of a variable's choices may be pruned
    prune_fraction: float = 0.75
    #: keep any choice whose estimate is within (1 + margin) of the best
    #: -- absorbs float-roundoff ties without ever risking the argmin
    prune_margin: float = 0.05


def estimate_choice_us(enumerator, strategy, var, choice, device) -> float:
    """The ``"units"`` metric this choice would measure, analytically."""
    units = enumerator.units_for_choice(strategy, var, choice)
    return units_cost_us(units, device)


def _prunable(var, enumerator, tree_var_names: set[str]) -> bool:
    """Is pruning this variable's choices admissible at all?

    Mirrors the per-variable guards in :func:`prune_fk_tree` minus the
    counters, so the parallel engine can compute the estimate work list
    without touching the tree.
    """
    if var.metric_kind != "units" or len(var.choices) <= 1:
        return False
    if var.name.startswith("ladder:") and (
        enumerator.member_unfused_kernel_vars(var.payload) & tree_var_names
    ):
        return False
    return True


def estimate_jobs(enumerator, tree, device, injector=None) -> list[str]:
    """Names of fk variables whose choice estimates may be computed out of
    process by the parallel engine.

    Empty when :func:`prune_fk_tree` would decline to prune (injector
    armed, non-base clock): shipping estimates that will never be used is
    pure overhead.  Must be called on the *unpruned* tree -- workers
    rebuild the same tree deterministically and estimate against the same
    choice lists.
    """
    if injector is not None or device.clock_mode != CLOCK_BASE:
        return []
    tree_var_names = {v.name for v in tree.variables()}
    return [
        v.name for v in tree.variables()
        if _prunable(v, enumerator, tree_var_names)
    ]


def prune_fk_tree(
    enumerator, strategy, tree, device, fast: FastPath,
    metrics=None, injector=None, estimates=None,
) -> int:
    """Prune provably-losing choices from an fk update tree, in place.

    Returns the number of choices removed.  Mutates ``var.choices`` and
    re-initializes the tree so exploration starts from the pruned space;
    pruning is deterministic in (graph, device, strategy), so a resumed
    run reproduces the same pruned space.  Never prunes when the serial
    cost model is not provably exact (injector armed, non-base clock),
    and always keeps at least ``1 - prune_fraction`` of each variable's
    choices, including every choice tied with the best estimate.

    ``estimates`` optionally maps variable name -> per-choice estimate
    list computed elsewhere (the parallel engine shards the cost-model
    evaluation across workers).  Provided lists must come from
    :func:`estimate_choice_us` on an identical enumerator -- the pure
    float computation is bit-identical across processes -- and any
    missing or length-mismatched entry falls back to the serial
    computation, so a stale list can never change the pruning decision.
    """
    metrics = metrics if metrics is not None else NULL_REGISTRY
    if injector is not None or device.clock_mode != CLOCK_BASE:
        metrics.counter("perf.prune.skipped_inexact").inc()
        return 0

    provided = estimates if estimates is not None else {}
    pruned_total = 0
    tree_var_names = {v.name for v in tree.variables()}
    for var in tree.variables():
        if var.metric_kind != "units" or len(var.choices) <= 1:
            continue
        if var.name.startswith("ladder:") and (
            enumerator.member_unfused_kernel_vars(var.payload) & tree_var_names
        ):
            # the unfused choice's library is decided by a concurrent
            # kernel variable, so the analytic estimate (default library)
            # is not the value the wirer would measure -- don't prune
            metrics.counter("perf.prune.skipped_coupled").inc()
            continue
        var_estimates = provided.get(var.name)
        if var_estimates is None or len(var_estimates) != len(var.choices):
            var_estimates = [
                estimate_choice_us(enumerator, strategy, var, choice, device)
                for choice in var.choices
            ]
        cut = min(var_estimates) * (1.0 + fast.prune_margin)
        survivors = [i for i, est in enumerate(var_estimates) if est <= cut]
        keep_floor = max(1, len(var.choices) - int(fast.prune_fraction * len(var.choices)))
        if len(survivors) < keep_floor:
            # top back up with the next-cheapest choices so no more than
            # prune_fraction of the space is ever discarded
            ranked = sorted(
                range(len(var_estimates)), key=lambda i: (var_estimates[i], i)
            )
            survivors = sorted(ranked[:keep_floor])
        if len(survivors) == len(var.choices):
            continue
        pruned_total += len(var.choices) - len(survivors)
        # preserve relative order: choice order decides round pairing and
        # finalize tie-breaks, so survivors keep their original sequence
        var.choices[:] = [var.choices[i] for i in survivors]
        var.initialize()

    if pruned_total:
        metrics.counter("perf.prune.choices_pruned").inc(pruned_total)
    tree.initialize()
    return pruned_total


# -- stream-phase bound (docs/performance.md) ---------------------------------
#
# A stream candidate changes only the stream map of the frozen FK plan:
# its units, dependencies, pre-copies, host units, barriers and issue
# order are fixed for the whole stream phase.  The measured epoch metric
# is ``running_end - start`` (``Executor._epoch_metrics``): the latest
# main-kernel end over the super-epoch's epochs up to this one, minus the
# earliest first-record start in the super-epoch.  Every DES start obeys
# ``head_start`` and every issue time is the dispatch thread's serial
# clock, so with fixed kernel rates one pass of that recurrence over the
# issue order reproduces the simulator's timeline (bit for bit when fed
# the simulated durations).  Two fixed-rate replays bound the metric:
#
# * ends, from below: every kernel at ``min(cap, slots)``, the most
#   ``_waterfill`` ever grants.  The recurrence is monotone in every
#   duration, so each end in this replay is <= the simulated one;
# * the start, from above: every kernel at ``min(cap, slots / S)``, the
#   least max-min fairness grants one of at most ``S`` sharers (one
#   running kernel per stream).  The start of the super-epoch's
#   first-issued kernel bounds the super-epoch's earliest start.
#
# Both replays start at the barrier before the super-epoch's first
# kernel: a barrier drains the device, so what follows it is the same
# timeline shifted by the barrier's time, and the metric is a difference
# of two times after it.  Issue times must be exact, so the replay
# charges the event-record overhead of every cross-stream or host-unit
# producer (:func:`~repro.runtime.dispatcher.completion_event_units`, the
# rule the dispatcher lowers with) and of the profiled first and last
# unit of each live epoch, and it replays a single-stream candidate with
# the sequential engine's start rule.  A choice whose bound exceeds the
# variable's best measured value by more than float round-off measures
# strictly worse, so it can never win ``finalize``.
#
# Pruning keeps the exploration's configurations, not just its winner:
# a configuration is skipped only when every live choice in it loses,
# and the tree advances past it exactly as it would have after measuring
# it; choices are reordered by bound only while one super-epoch explores
# alone.  Every measured configuration is therefore one the exhaustive
# run measures, with the same live set, and every winner, compare-phase
# time and tie matches ``--no-prune`` bit for bit.  The bound stands
# down -- and the wirer counts why -- under an injector or autoboost
# (durations are no longer the kernel models) and with ``samples > 1``
# (the measured value is a robust minimum).

#: a bound within this relative distance of the best measured value is
#: treated as a tie (float round-off, the DES's 1e-9 event slack), never
#: as a proof of loss
STREAM_BOUND_SLACK = 1e-6


def stream_config(variables, assignment: dict, live: set[str] | None):
    """(epoch ordinal -> stream option, profiled unit ids) of one stream
    assignment; variables missing from ``assignment`` keep their value.

    A live epoch (every epoch when ``live`` is None) profiles its last
    unit, whose completion its metric reads, and its first, which marks
    the super-epoch start.  The wirer builds stream candidates with this
    and :class:`StreamPruner` bounds them with it.
    """
    options: dict[int, dict[int, int]] = {}
    profiled: set[int] = set()
    for var in variables:
        ordinal, epoch = var.payload
        options[ordinal] = epoch.options[assignment.get(var.name, var.value)]
        if live is None or var.name in live:
            profiled.add(max(epoch.unit_ids))
            profiled.add(min(epoch.unit_ids))
    return options, profiled


class StreamBound:
    """Replay skeleton of one stream phase: the frozen FK plan in issue
    order, with each kernel's fixed-rate durations computed once.

    ``plan`` is any stream build of the phase (its units carry their
    epoch coordinates), ``deps``/``order`` its dependency map and issue
    order, and ``streams`` the most streams any candidate uses.
    """

    @classmethod
    def of(cls, plan, dispatcher, device, variables) -> "StreamBound":
        """The skeleton of ``plan`` (a stream build of the phase whose
        stream ``variables`` are given), analysed with ``dispatcher``."""
        deps = dispatcher.unit_dependencies(plan)
        streams = 1 + max(
            stream
            for var in variables
            for option in var.payload[1].options
            for stream in option.values()
        )
        return cls(plan, deps, dispatcher.order_units(plan, deps), device, streams)

    def __init__(self, plan, deps, order, device, streams: int):
        self.device = device
        self.deps = deps
        self.kernel_units = {u.unit_id for u in plan.units if u.kernel is not None}
        self.host_units = {u.unit_id for u in plan.units if u.host_us > 0.0}
        slots = float(device.sm_slots)
        shared = slots / max(1, streams)
        #: per unit in issue order: (id, sorted kernel deps -- the only
        #: ones that can record an event --, host us, pre-copies or -1
        #: without a kernel, barrier after it)
        self._steps: list[tuple] = []
        #: fixed-rate durations of every kernel record, in record order
        self.fast_us: list[float] = []
        self.slow_us: list[float] = []
        #: step index -> its first kernel record
        self._step_record: list[int] = []
        #: (super_epoch, epoch) -> [(step, main record)]
        self._mains: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: super_epoch -> [(step, first record)]
        self._firsts: dict[int, list[tuple[int, int]]] = {}
        #: step index just after the last barrier issued so far
        anchor = 0
        #: super_epoch -> the step its replay starts from
        self._anchors: dict[int, int] = {}
        for step, unit in enumerate(order):
            uid = unit.unit_id
            self._step_record.append(len(self.fast_us))
            pre = -1
            if unit.kernel is not None:
                pre = len(unit.pre_copies)
                first = len(self.fast_us)
                for kernel in (*unit.pre_copies, unit.kernel):
                    base = kernel.duration_us(device)
                    cap = float(kernel.parallelism(device))
                    if cap > 0.0:
                        work = base * cap
                        self.fast_us.append(work / (cap if cap < slots else slots))
                        self.slow_us.append(work / (cap if cap < shared else shared))
                    else:
                        self.fast_us.append(base)
                        self.slow_us.append(base)
                se, epoch = unit.super_epoch, unit.epoch
                if se >= 0 and epoch >= 0:
                    self._anchors.setdefault(se, anchor)
                    self._firsts.setdefault(se, []).append((step, first))
                    self._mains.setdefault((se, epoch), []).append(
                        (step, len(self.fast_us) - 1)
                    )
            barrier = uid in plan.barriers_after
            kernel_deps = tuple(sorted(deps[uid] & self.kernel_units))
            self._steps.append((uid, kernel_deps, unit.host_us, pre, barrier))
            if barrier:
                anchor = step + 1
        self._step_record.append(len(self.fast_us))
        self._segments: dict[tuple[int, int], tuple] = {}

    def _events(self, stream_of: dict[int, int], profiled: set[int], deps):
        """(completion-event units, units whose launch records an event,
        single-stream?) of one candidate."""
        recorded = completion_event_units(
            deps, stream_of, self.kernel_units, self.host_units
        )
        evented = recorded | (profiled & self.kernel_units)
        streams = set(stream_of.values())
        sequential = streams <= {0} or (
            len(streams) == 1 and self.kernel_units <= stream_of.keys()
        )
        return recorded, evented, sequential

    def _replay(self, stream_of, recorded, evented, sequential, durations,
                first_step: int, last_step: int, state=None):
        """One fixed-duration pass of the dispatch recurrence over steps
        ``first_step..last_step``.

        Mirrors ``StreamSimulator.run`` over ``Dispatcher.lower``'s items:
        the dispatch clock, event and barrier overheads, host syncs and
        ``head_start`` for the concurrent engine; ``max(clock, last end)``
        after the event overhead for a single-stream candidate.  The
        clock starts at 0 unless ``state`` -- the state a replay of the
        same candidate prefix ended in -- resumes one.  A replay that
        starts after a barrier is exact up to a shift: the barrier drains
        the device, so nothing issued before it holds back anything after
        it.  Returns (issue, start, end) of the kernel records issued in
        the range, and the state after it.
        """
        device = self.device
        launch_us = device.launch_overhead_us
        event_us = device.event_overhead_us
        barrier_us = device.barrier_overhead_us
        stream = stream_of.get
        record = self._step_record[first_step]
        issue: list[float] = []
        start: list[float] = []
        end: list[float] = []
        if state is None:
            cpu = drained = 0.0
            last_done: dict[int, float] = {}
            unit_end: dict[int, float] = {}
        else:
            cpu, drained, last_done, unit_end = state
            last_done, unit_end = dict(last_done), dict(unit_end)
        for uid, deps, host_us, pre, barrier in self._steps[first_step:last_step + 1]:
            s = stream(uid, 0)
            if host_us > 0.0:
                for dep in deps:
                    if dep in recorded:
                        done = unit_end.get(dep, 0.0)
                        cpu = (cpu if cpu > done else done) + barrier_us
                cpu += host_us
            if pre >= 0:
                waits = [
                    unit_end.get(dep, 0.0) for dep in deps
                    if dep in recorded and stream(dep, 0) != s
                ]
                for k in range(pre + 1):
                    cpu += launch_us
                    t_issue = cpu
                    if k == pre and uid in evented:
                        cpu += event_us
                    if sequential:
                        t_issue = cpu
                        t_start = cpu if cpu > drained else drained
                    else:
                        t_start = head_start(t_issue, waits, last_done.get(s, 0.0))
                        waits = ()
                    t_end = t_start + durations[record]
                    record += 1
                    issue.append(t_issue)
                    start.append(t_start)
                    end.append(t_end)
                    last_done[s] = t_end
                    if t_end > drained:
                        drained = t_end
                unit_end[uid] = t_end
            if barrier:
                cpu = (cpu if cpu > drained else drained) + barrier_us
        return issue, start, end, (cpu, drained, last_done, unit_end)

    def timeline(self, stream_of: dict[int, int], profiled: set[int], durations):
        """(issue, start, end) of every kernel record of one candidate, in
        record order, each record lasting ``durations[i]``: the simulated
        timeline when fed the simulated durations."""
        recorded, evented, sequential = self._events(stream_of, profiled, self.deps)
        issue, start, end, _state = self._replay(
            stream_of, recorded, evented, sequential, durations,
            0, len(self._steps) - 1,
        )
        return issue, start, end

    def has(self, coordinate: tuple[int, int]) -> bool:
        """Does this epoch launch a kernel (and so have a metric)?"""
        return coordinate in self._mains

    def _segment(self, coordinate: tuple[int, int]):
        """What bounding one epoch replays, from its super-epoch's anchor:
        the step of the super-epoch's first kernel, the first step a
        change of this epoch's stream option can affect, the step of the
        last main kernel of the epochs up to this one, the dependencies
        of every consumer of a unit in that range, and the (step, record)
        of those main kernels."""
        segment = self._segments.get(coordinate)
        if segment is None:
            se, epoch = coordinate
            anchor = self._anchors[se]
            mains = sorted(
                entry for (s, e), entries in self._mains.items()
                if s == se and e <= epoch for entry in entries
            )
            last = mains[-1][0]
            head = self._firsts[se][0]
            units = {uid for uid, *_rest in self._steps[anchor:last + 1]}
            deps = {
                uid: dep_ids for uid, dep_ids in self.deps.items()
                if not dep_ids.isdisjoint(units)
            }
            # the epoch's units and their producers change event status
            # with its stream option; everything issued earlier replays
            # identically for every choice of this epoch
            own = {self._steps[step][0] for step, _record in self._mains[coordinate]}
            touched = own | {dep for uid in own for dep in self.deps[uid]}
            split = min(
                (step for step, (uid, *_rest) in enumerate(self._steps)
                 if uid in touched and step >= anchor),
                default=anchor,
            )
            segment = (anchor, head, split, last, deps, mains)
            self._segments[coordinate] = segment
        return segment

    def epoch_bound(
        self, stream_of: dict[int, int], profiled: set[int],
        coordinate: tuple[int, int], prefix=None,
    ) -> float:
        """A lower bound on the measured metric of epoch ``coordinate``
        = (super_epoch, epoch): the fast replay's latest main-kernel end
        over the epochs up to it, minus the slow replay's start of the
        super-epoch's first-issued kernel (an upper bound on the
        super-epoch's earliest start), both replayed from the
        super-epoch's barrier.  ``prefix`` (from :meth:`prefix`) skips
        replaying the steps no choice of this epoch can change."""
        anchor, (head, head_record), split, last, deps, mains = self._segment(coordinate)
        recorded, evented, sequential = self._events(stream_of, profiled, deps)
        _issue, slow_start, _end, _state = self._replay(
            stream_of, recorded, evented, sequential, self.slow_us, anchor, head
        )
        begin = slow_start[head_record - self._step_record[anchor]]
        if prefix is not None and prefix[0] == sequential:
            _sequential, first, running, state = prefix
        else:
            first, running, state = anchor, 0.0, None
        _issue, _start, fast_end, _state = self._replay(
            stream_of, recorded, evented, sequential, self.fast_us, first, last, state
        )
        base = self._step_record[first]
        for step, record in mains:
            if step >= first and fast_end[record - base] > running:
                running = fast_end[record - base]
        return running - begin

    def prefix(self, stream_of: dict[int, int], profiled: set[int],
               coordinate: tuple[int, int]):
        """The fast replay up to the first step a choice of this epoch can
        change, for :meth:`epoch_bound` to resume from."""
        anchor, _head, split, _last, deps, mains = self._segment(coordinate)
        recorded, evented, sequential = self._events(stream_of, profiled, deps)
        _issue, _start, fast_end, state = self._replay(
            stream_of, recorded, evented, sequential, self.fast_us, anchor, split - 1
        )
        base = self._step_record[anchor]
        running = max(
            (fast_end[record - base] for step, record in mains if step < split),
            default=0.0,
        )
        return (sequential, split, running, state)


class StreamPruner:
    """Drives one stream phase's exploration order and prune verdicts.

    ``order`` visits a prefix variable's unmeasured choices in ascending
    bound order once it explores alone (the all-zero first configuration
    stays first, and while other super-epochs explore in lockstep the
    pairing of their choices is left as is); ``verdict`` says whether the
    exact configuration about to be built provably loses for every live
    variable.  Either way every measured configuration is one an
    exhaustive run measures too, so winners match bit for bit.  Pruned
    choices never reach the profile index.
    """

    def __init__(self, bound: StreamBound, tree, index, context, metrics=None):
        self.bound = bound
        self.variables = list(tree.variables())
        self.tree = tree
        self.index = index
        self.context = context
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._ordered: set[str] = set()
        self._memo: dict[tuple, float] = {}

    def _candidate(self, assignment: dict, live: set[str]):
        options, profiled = stream_config(self.variables, assignment, live)
        stream_of: dict[int, int] = {}
        for option in options.values():
            stream_of.update(option)
        return stream_of, profiled

    def bound_of(self, var, assignment: dict, live: set[str], prefix=None) -> float | None:
        """The bound on ``var``'s epoch metric under one configuration
        (None for an epoch without kernels)."""
        _ordinal, epoch = var.payload
        coordinate = (epoch.super_epoch, epoch.index)
        if not self.bound.has(coordinate):
            return None
        key = (
            coordinate,
            tuple(assignment.get(v.name, v.value) for v in self.variables),
            frozenset(live),
        )
        bound = self._memo.get(key)
        if bound is None:
            stream_of, profiled = self._candidate(assignment, live)
            bound = self.bound.epoch_bound(stream_of, profiled, coordinate, prefix)
            self._memo[key] = bound
            self.metrics.counter("perf.stream_prune.bounds").inc()
        return bound

    def best(self, var) -> float | None:
        values = [
            value for value in (
                self.index.get(var.profile_key(self.context, c)) for c in var.choices
            ) if value is not None
        ]
        return min(values) if values else None

    def order(self, live_vars) -> None:
        """Once a variable explores alone, past its first choice, sort its
        unvisited unmeasured choices by ascending bound; ties keep choice
        order."""
        if len(live_vars) != 1:
            return
        var = live_vars[0]
        if var.name in self._ordered or var.value == var.choices[0]:
            return
        self._ordered.add(var.name)
        _ordinal, epoch = var.payload
        coordinate = (epoch.super_epoch, epoch.index)
        if not self.bound.has(coordinate):
            return
        unvisited = var.unvisited()
        todo = [
            p for p in unvisited
            if not var.measured(self.index, self.context, var.choices[p])
        ]
        live = {var.name}
        assignment = self.tree.assignment()
        prefix = self.bound.prefix(*self._candidate(assignment, live), coordinate)
        keyed = []
        for position in todo:
            assignment[var.name] = var.choices[position]
            keyed.append((self.bound_of(var, assignment, live, prefix), position))
        ranked = [position for _bound, position in sorted(keyed)]
        var.reorder(ranked + [p for p in unvisited if p not in set(todo)])

    def verdict(self, live_vars) -> list[float] | None:
        """Each live variable's bound when all of them exceed their best
        measured value by more than round-off; None otherwise."""
        bests = [self.best(var) for var in live_vars]
        if None in bests:
            return None
        assignment = self.tree.assignment()
        live = {v.name for v in live_vars}
        verdict = []
        for var, best in zip(live_vars, bests):
            bound = self.bound_of(var, assignment, live)
            if bound is None or bound <= best + STREAM_BOUND_SLACK * max(1.0, abs(best)):
                return None
            verdict.append(bound)
        return verdict


# -- fleet strategy pre-ranking (docs/distributed.md) -------------------------
#
# The same exactness argument, lifted from kernel choices to partitioning
# strategies.  At base clock without an injector the simulator's measured
# per-unit durations *are* the analytic kernel costs, so for every
# strategy a lower bound on its measured step time can be computed from
# pure arithmetic before a single strategy mini-batch is spent:
#
# * a replica's mini-batch time is at least the summed kernel durations
#   (the GPU must run them all) AND at least the serialized launch
#   overheads (the host must dispatch them all) -- ``max`` of the two;
# * the exposed all-reduce is at least ``comm * (1 - overlap_fraction)``,
#   because the hideable part is capped at ``overlap_fraction * comm``;
# * a pipeline's beat is at least its slowest stage's attributed compute
#   plus one *uncontended* boundary transfer (contention only adds).
#
# A strategy whose bound exceeds the seed strategy's *measured* step time
# can never win ``finalize`` (which picks the measured minimum), so
# pruning it cannot change the winner -- ties survive because the cut is
# ``bound > best``, never ``>=``.  When the preconditions fail (injector
# armed, autoboost clocks, inner-Astra compute whose stream overlap
# breaks the summed-durations bound) the pruner stands down and the
# search measures everything, exactly like :func:`prune_fk_tree`.


def fleet_replica_lo(
    compute_lo: Callable[[str, int], float],
    placement: tuple[str, ...],
    shards: tuple[int, ...],
) -> float:
    """Slowest-replica analytic beat of a data strategy."""
    return max(
        compute_lo(cls, shard) for cls, shard in zip(placement, shards)
    )


def fleet_strategy_lo(
    strategy,
    *,
    batch_size: int,
    grad_bytes: int,
    hidden_size: int,
    interconnect,
    scopes: tuple[str, ...],
    compute_lo: Callable[[str, int], float],
    stage_lo: Callable[[str, int], dict],
    overlap_fraction: float,
) -> float:
    """Admissible per-sample lower bound for one fleet strategy.

    ``compute_lo(cls, batch)`` and ``stage_lo(cls, micro)`` supply the
    per-device-class analytic price sheet (the fleet measurer computes it
    from the same native plans the measurement executes); everything else
    is closed-form.  Admissible: never exceeds the measured per-sample
    time at base clock, so ``bound > measured_best`` is a proof of loss.
    """
    if strategy.kind == "data":
        beat = fleet_replica_lo(compute_lo, strategy.placement, strategy.shards)
        world = len(strategy.placement)
        exposed = 0.0
        if world > 1:
            comm = interconnect.allreduce_us(grad_bytes, world)
            exposed = comm * (1.0 - overlap_fraction)
        return (beat + exposed) / float(batch_size)

    micro = max(1, batch_size // strategy.microbatches)
    samples = micro * strategy.microbatches
    stages = len(strategy.cuts)
    beat = 0.0
    start = 0
    for cls, width in zip(strategy.placement, strategy.cuts):
        per_scope = stage_lo(cls, micro)
        stage = sum(per_scope.get(s, 0.0) for s in scopes[start:start + width])
        beat = max(beat, stage)
        start += width
    if stages > 1:
        beat += interconnect.contended_us(micro * hidden_size * 4, 1)
    return (strategy.microbatches + stages - 1) * beat / float(samples)


def prune_standdown(
    *, injector=None, clock_modes=(), use_astra: bool = False, samples: int = 1,
) -> str | None:
    """Why a bound pruner (fleet strategies, stream choices) must decline,
    or None when it may run.

    Mirrors :func:`prune_fk_tree`'s guard: an injector or a non-base
    clock perturbs the kernel durations the bounds are built from.  The
    fleet bound also declines for inner-Astra compute, whose stream
    overlap breaks its serialized summed-durations bound; the stream
    bound also declines for ``samples > 1``, whose measured value is a
    robust minimum.
    """
    if injector is not None:
        return "faults"
    if any(mode != CLOCK_BASE for mode in clock_modes):
        return "clock"
    if use_astra:
        return "inner_astra"
    if samples > 1:
        return "samples"
    return None


def prune_fleet_strategies(
    strategies: list,
    bounds: list[float],
    best_measured_us: float,
    *,
    metrics=None,
    injector=None,
    clock_modes=(),
    use_astra: bool = False,
) -> tuple[list[int], str | None]:
    """Indices of strategies that may still win, given the seed's
    measured per-sample time; preserves enumeration order.

    Returns ``(survivor_indices, standdown_reason)``.  On stand-down
    every index survives and ``fleet.prune.skipped_<reason>`` counts why
    -- the chaos contract: under injection the search measures the full
    space and the (faulted) winner is the exhaustive one by construction.
    """
    metrics = metrics if metrics is not None else NULL_REGISTRY
    reason = prune_standdown(
        injector=injector, clock_modes=clock_modes, use_astra=use_astra
    )
    if reason is not None:
        metrics.counter(f"fleet.prune.skipped_{reason}").inc()
        return list(range(len(strategies))), reason
    survivors = [
        i for i, bound in enumerate(bounds) if bound <= best_measured_us
    ]
    pruned = len(strategies) - len(survivors)
    if pruned:
        metrics.counter("fleet.prune.strategies_pruned").inc(pruned)
    return survivors, None
