"""Wire protocol of the parallel exploration engine.

Everything that crosses the process boundary lives here, and it is
deliberately *small*: a candidate travels as its tree assignment plus the
names of the variables being profiled (a few hundred bytes), never as a
built plan or a lowered schedule -- workers rebuild both deterministically
from the same enumerator inputs, which PR 4's signature machinery
guarantees are bit-identical (two plans with equal
:func:`~repro.perf.signature.plan_key` lower to bit-identical schedules).
Results travel back as the sampler's
:class:`~repro.core.measurement.CandidateOutcome` event log -- the same
log a serial measurement produces -- with the raw simulator output
stripped from each :class:`~repro.runtime.executor.MiniBatchResult`, the
worker's counter deltas and injector side effects attached, and the
error pickled.  The wirer replays it in canonical candidate order.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

from ..core.measurement import CandidateOutcome, SampleRecord

__all__ = [
    "CandidateOutcome", "CandidateTask", "SampleRecord", "WorkerSpec",
    "decode_error", "encode_error", "slim_result",
]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to reconstruct the exploration world.

    Shipped once, pickled, through the pool initializer.  A worker built
    from the same spec as the wirer holds an enumerator, executor and
    lowering cache whose outputs are bit-identical to the parent's --
    the determinism the merge relies on.
    """

    graph: object
    device: object
    features: object
    seed: int
    validate: bool
    policy: object
    fast: object
    #: the :class:`~repro.faults.plan.FaultPlan`, or None; workers derive
    #: per-candidate injector sub-states from it
    fault_plan: object = None
    #: parent tracer is live: workers record per-candidate spans for the
    #: merged Chrome trace (ts relative to each candidate's start)
    trace: bool = False

    def worker(self):
        """The worker state this spec rebuilds (one per pool process)."""
        from .worker import WorkerState

        return WorkerState(self)


@dataclass(frozen=True)
class CandidateTask:
    """One configuration to measure, identified by value, not by object.

    ``base_minibatch`` is the global budget ordinal of the candidate's
    first sample (prior spent + samples charged by earlier candidates in
    the wave); it keys the injector and jitter sub-streams, so results
    depend only on *which* candidate this is -- never on worker count,
    scheduling order, or resume history.
    """

    ordinal: int
    strategy_id: int
    assignment: tuple  # sorted (name, choice) pairs; dicts don't hash
    live_names: tuple
    base_minibatch: int
    #: parent injector already fired its one-shot preemption
    preempted: bool = False

    def assignment_dict(self) -> dict:
        return dict(self.assignment)


def slim_result(result, keep_units=None):
    """Strip the raw simulator output before shipping a result.

    ``raw`` holds every kernel record of the mini-batch -- two orders of
    magnitude more bytes than the per-unit times the wirer actually
    consumes.  When ``keep_units`` is given, ``unit_times`` is also
    filtered down to those unit ids: the parent's ``_metric_for`` only
    ever reads the units of this candidate's live variables, so shipping
    the rest of the schedule's per-unit times is pure IPC weight.  The
    remaining wirer-facing fields round-trip untouched.
    """
    unit_times = result.unit_times
    if keep_units is not None:
        unit_times = {
            uid: t for uid, t in unit_times.items() if uid in keep_units
        }
    return replace(result, raw=None, unit_times=unit_times)


def encode_error(outcome: CandidateOutcome) -> None:
    """Pickle ``outcome.error`` for the trip from a worker to the parent.

    An exception that cannot be pickled travels as its ``repr`` alone and
    comes back as a ``RuntimeError`` (see :func:`decode_error`)."""
    if outcome.error is None:
        return
    outcome.error_repr = repr(outcome.error)
    try:
        outcome.error = pickle.dumps(outcome.error)
    except Exception:
        outcome.error = None


def decode_error(outcome: CandidateOutcome) -> None:
    """Rebuild in the parent the exception :func:`encode_error` shipped."""
    if outcome.error is not None:
        try:
            outcome.error = pickle.loads(outcome.error)
            return
        except Exception:
            pass
    if outcome.error_repr:
        outcome.error = RuntimeError(f"worker-side error: {outcome.error_repr}")
