"""Worker half of the parallel exploration engine.

A worker owns a full measurement pipeline -- enumerator, lowering cache,
executor, simulator -- rebuilt from the :class:`~repro.parallel.wire.WorkerSpec`.
Per candidate it points the executor at a per-candidate injector
sub-state and jitter sub-stream, builds the plan from the shipped
assignment, and runs the same sampler the serial wirer runs
(:func:`~repro.core.measurement.sample_plan`).  The sampler's
:class:`~repro.core.measurement.CandidateOutcome` goes back to the parent,
which replays it at the candidate's canonical merge position through the
same bookkeeping a serial measurement goes through.

The pools in :mod:`repro.parallel.pool` build this state from the spec
(``WorkerSpec.worker()``) in each worker process or, inline, in the
caller, so ``--workers 1`` and ``--workers N`` execute one implementation.
"""

from __future__ import annotations

import os
import time

from .wire import CandidateOutcome, CandidateTask, WorkerSpec, encode_error, slim_result

#: domain-separation tag for per-candidate simulator jitter substreams
SIM_STREAM_TAG = 0x51B0


class WorkerState:
    """One worker's long-lived pipeline, built once per process."""

    def __init__(self, spec: WorkerSpec):
        from ..core.enumerator import Enumerator
        from ..obs.metrics import NULL_REGISTRY
        from ..perf.cache import LoweringCache
        from ..runtime.executor import Executor

        self.spec = spec
        self.enumerator = Enumerator(
            spec.graph, spec.device, spec.features,
            metrics=NULL_REGISTRY, cache_units=spec.fast.cache,
        )
        self.strategies = {
            s.strategy_id: s for s in self.enumerator.strategies
        }
        self.cache = LoweringCache() if spec.fast.cache else None
        self.executor = Executor(
            spec.graph, spec.device, seed=spec.seed, validate=spec.validate,
            injector=None, cache=self.cache,
        )
        #: strategy_id -> (unpruned fk tree, {var name -> var}); estimates
        #: must see the same choice lists the parent's unpruned tree has
        self._fk_vars: dict[int, dict] = {}

    def _vars_for(self, strategy_id: int) -> dict:
        cached = self._fk_vars.get(strategy_id)
        if cached is None:
            tree = self.enumerator.build_fk_tree(self.strategies[strategy_id])
            cached = {v.name: v for v in tree.variables()}
            self._fk_vars[strategy_id] = cached
        return cached

    def run_estimates(self, strategy_id: int, names: list) -> list:
        """Cost-model estimates for a shard of fk variables.

        Returns one per-choice estimate list per name, computed by the same
        pure-float :func:`~repro.perf.ranker.estimate_choice_us` the serial
        pre-ranker uses -- bit-identical across processes.
        """
        from ..perf.ranker import estimate_choice_us

        strategy = self.strategies[strategy_id]
        out = []
        for name in names:
            var = self._vars_for(strategy_id)[name]
            out.append([
                estimate_choice_us(
                    self.enumerator, strategy, var, choice, self.spec.device
                )
                for choice in var.choices
            ])
        return out

    def run_shard(self, tasks: list) -> list:
        """Measure a contiguous shard of candidates, in ordinal order."""
        return [measure_candidate(self, task) for task in tasks]


def measure_candidate(state: WorkerState, task: CandidateTask) -> CandidateOutcome:
    """Measure one candidate with the sampler, seeded by the candidate.

    The injector sub-state and the jitter sub-stream are keyed by
    ``task.base_minibatch``, so the outcome depends only on which
    candidate this is.  Nothing is acted on here: results are slimmed,
    and executor counters, injector side effects and the pickled error
    ride along for the parent's replay.
    """
    from ..core.measurement import sample_plan
    from ..faults.injector import FaultInjector
    from ..obs.metrics import Counter, MetricsRegistry

    start = time.perf_counter()
    spec = state.spec
    registry = MetricsRegistry()
    injector = None
    if spec.fault_plan is not None and spec.fault_plan.specs:
        injector = FaultInjector.for_candidate(
            spec.fault_plan, task.base_minibatch, preempted=task.preempted
        )
    executor = state.executor
    executor.metrics = registry
    executor.injector = injector
    executor._simulator.injector = injector
    executor._simulator.reseed((spec.seed, SIM_STREAM_TAG, task.base_minibatch))
    spans: list = []
    try:
        built = state.enumerator.build_plan(
            state.strategies[task.strategy_id], task.assignment_dict(),
            profile_vars=set(task.live_names),
        )

        def span(record, sample_start, sample_end):
            spans.append({
                "ph": "X",
                "name": f"sample {built.plan.label}",
                "cat": "worker",
                "ts": (sample_start - start) * 1e6,
                "dur": (sample_end - sample_start) * 1e6,
                "args": {
                    "ordinal": task.ordinal,
                    "sample": len(spans),
                    "retries": len(record.aborts),
                    "sim_us": (
                        record.result.total_time_us
                        if record.result is not None else None
                    ),
                },
            })

        out = sample_plan(
            executor, built.plan, spec.policy,
            on_sample=span if spec.trace else None,
        )
    finally:
        executor.injector = None
        executor._simulator.injector = None
    out.ordinal = task.ordinal
    out.worker_pid = os.getpid()
    out.var_units = {name: list(ids) for name, ids in built.var_units.items()}
    keep_units = {uid for ids in built.var_units.values() for uid in ids}
    for record in out.samples:
        if record.result is not None:
            record.result = slim_result(record.result, keep_units)
    out.spans = spans
    encode_error(out)
    if injector is not None:
        out.injector_records = list(injector.ledger)
        out.injector_minibatch = injector.minibatch
        out.injector_preempted = injector._preempted
    out.counters = {
        name: metric.value
        for name, metric in registry._instruments.items()
        if isinstance(metric, Counter) and metric.value
    }
    out.busy_s = time.perf_counter() - start
    return out

