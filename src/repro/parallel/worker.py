"""Worker half of the parallel exploration engine.

A worker owns a full measurement pipeline -- enumerator, lowering cache,
executor, simulator -- rebuilt from the :class:`~repro.parallel.wire.WorkerSpec`.
Per candidate it: resolves the allocation strategy, builds the plan from
the shipped assignment, lowers (through its own cache), optionally
validates, and runs the policy's sample/retry loop against a per-candidate
injector sub-state and jitter sub-stream.  Every observation the wirer's
serial bookkeeping would have made is captured in the
:class:`~repro.parallel.wire.CandidateOutcome` event log, so the parent
can replay it in canonical order and end up in the same state a serial
run reaches.

The pools in :mod:`repro.parallel.pool` build this state from the spec
(``WorkerSpec.worker()``) in each worker process or, inline, in the
caller, so ``--workers 1`` and ``--workers N`` execute one implementation.
"""

from __future__ import annotations

import os
import pickle
import time

from .wire import CandidateOutcome, CandidateTask, SampleRecord, WorkerSpec, slim_result

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
    """The worker-side mirror of the wirer's per-configuration loop.

    Mirrors ``CustomWirer._measure_config`` / ``_measure``: up to
    ``policy.samples`` mini-batches, each retried on transient faults up
    to ``policy.max_attempts`` with re-validation on retry.  Instead of
    *acting* on the observations (counters, fault logs, quarantine), it
    records them for the parent to replay at the merge position.
    """
    from ..check import ScheduleValidationError
    from ..faults.events import FaultError, PreemptionError
    from ..faults.injector import FaultInjector
    from ..obs.metrics import Counter, MetricsRegistry

    out = CandidateOutcome(ordinal=task.ordinal, worker_pid=os.getpid())
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
    plan_label = None
    try:
        strategy = state.strategies[task.strategy_id]
        built = state.enumerator.build_plan(
            strategy, task.assignment_dict(),
            profile_vars=set(task.live_names),
        )
        plan_label = built.plan.label
        out.var_units = {
            name: list(ids) for name, ids in built.var_units.items()
        }
        keep_units = set()
        for ids in built.var_units.values():
            keep_units.update(ids)
        for sample_no in range(spec.policy.samples):
            record = SampleRecord()
            out.samples.append(record)
            attempts = 0
            sample_start = time.perf_counter()
            while True:
                try:
                    # mirror of CustomWirer._measure: a retried plan is
                    # statically re-validated even in unvalidated mode
                    validate = True if attempts > 0 and not spec.validate else None
                    result = executor.run(built.plan, validate=validate)
                except FaultError as exc:
                    if not exc.transient:
                        raise
                    attempts += 1
                    record.aborts.append((exc.kind, str(exc)))
                    if attempts >= spec.policy.max_attempts:
                        break  # sample lost; result stays None
                    continue
                record.result = slim_result(result, keep_units)
                break
            if spec.trace:
                now = time.perf_counter()
                out.spans.append({
                    "ph": "X",
                    "name": f"sample {plan_label}",
                    "cat": "worker",
                    "ts": (sample_start - start) * 1e6,
                    "dur": (now - sample_start) * 1e6,
                    "args": {
                        "ordinal": task.ordinal,
                        "sample": sample_no,
                        "retries": attempts,
                        "sim_us": (
                            record.result.total_time_us
                            if record.result is not None else None
                        ),
                    },
                })
    except PreemptionError as exc:
        out.preempted_at = exc.minibatch
    except ScheduleValidationError as exc:
        out.violations = [
            (plan_label or "astra", violation.kind, str(violation))
            for violation in exc.report.violations
        ]
        out.error, out.error_repr = _encode_error(exc)
    except FaultError as exc:  # non-transient: OOM window, etc.
        out.error, out.error_repr = _encode_error(exc)
    finally:
        executor.injector = None
        executor._simulator.injector = None
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


def _encode_error(exc) -> tuple:
    try:
        return pickle.dumps(exc), repr(exc)
    except Exception:
        return None, repr(exc)
