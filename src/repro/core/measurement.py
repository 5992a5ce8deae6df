"""Noise-robust measurement policy: min-of-k with MAD outlier rejection.

Astra's exploration trusts single mini-batch measurements because the
paper pins the GPU to its base clock (section 7).  When that assumption
breaks -- autoboost jitter, throttle windows, multi-tenant stragglers,
plausibly-corrupted timestamps -- a single sample can crown the wrong
configuration.  The standard hardening (Learning to Optimize Tensor
Programs does the same for real-hardware measurement loops) is to
re-measure each configuration k times, reject outliers by robust
statistics, and score the configuration by the *minimum* surviving
sample: minimum, because timing noise on a deterministic device is
one-sided -- interference only ever adds time.

The policy also owns the failure-handling knobs: how many times a
measurement aborted by a transient fault is retried, how the retry
backoff grows, and when a configuration that keeps faulting is
quarantined out of the search space.

:func:`sample_plan` is the one loop that applies the policy to a plan.
It records what happened as a :class:`CandidateOutcome` and acts on
nothing; the wirer replays that log into its bookkeeping, whether the
sampler ran on the wirer's own executor or in a parallel worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: profile-index value recorded for quarantined configurations: large
#: enough that finalize() never picks one over any real measurement, small
#: enough to survive a strict-JSON round trip (unlike infinity)
QUARANTINED_US = 1.0e30


@dataclass(frozen=True)
class MeasurementPolicy:
    """How the custom-wirer turns executions into trusted measurements."""

    #: mini-batches spent per configuration (min-of-k; 1 = paper behavior)
    samples: int = 1
    #: modified-z-score cutoff for MAD outlier rejection of the k samples
    mad_threshold: float = 3.5
    #: attempts per sample when a transient fault aborts the mini-batch
    max_attempts: int = 3
    #: mini-batches of backoff charged after attempt i (grows 2**i); models
    #: waiting out interference instead of hammering a faulting device
    backoff_minibatches: int = 1
    #: consecutive fully-failed measurements before a configuration is
    #: quarantined (recorded as QUARANTINED_US so exploration moves on)
    quarantine_after: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff_for(self, attempt: int) -> int:
        """Backoff (in mini-batches) charged before retry ``attempt``."""
        if attempt <= 0 or self.backoff_minibatches <= 0:
            return 0
        return self.backoff_minibatches * 2 ** (attempt - 1)


#: the paper's trusting single-sample policy
TRUSTING = MeasurementPolicy()
#: hardened policy for noisy/faulty environments (chaos runs default here)
ROBUST = MeasurementPolicy(samples=3, max_attempts=4, quarantine_after=2)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: list[float], center: float | None = None) -> float:
    """Median absolute deviation -- the robust spread estimate."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def reject_outliers(values: list[float], threshold: float = 3.5) -> list[float]:
    """Drop samples whose modified z-score ``0.6745*(x-med)/MAD`` exceeds
    ``threshold`` (Iglewicz & Hoaglin).  With fewer than three samples, or
    zero spread, every sample is kept."""
    if len(values) < 3:
        return list(values)
    med = median(values)
    spread = mad(values, med)
    if spread <= 0.0:
        return list(values)
    kept = [v for v in values if abs(0.6745 * (v - med) / spread) <= threshold]
    return kept or [med]


def robust_min(values: list[float], threshold: float = 3.5) -> float:
    """Min-of-k after MAD rejection: the configuration's trusted score.

    Rejection matters on the *low* side: a corrupted timestamp that
    deflates a duration would otherwise win the min outright."""
    return min(reject_outliers(values, threshold))


@dataclass
class SampleRecord:
    """Event log of one measurement sample (one budget charge).

    ``aborts`` lists the transient faults the retry loop caught, in
    order; ``result`` is the measurement, or None when the sample was
    lost (attempt budget exhausted) or cut short by the error recorded on
    the outcome.
    """

    aborts: list = field(default_factory=list)  # [(kind, message), ...]
    result: object = None  # MiniBatchResult | None


@dataclass
class CandidateOutcome:
    """Everything observed measuring one configuration."""

    #: candidate position in its wave (0 for a serial measurement)
    ordinal: int = 0
    samples: list = field(default_factory=list)  # [SampleRecord, ...]
    #: var name -> unit ids of the measured plan (the metric extraction
    #: reads them; a worker ships them instead of the plan itself)
    var_units: dict = field(default_factory=dict)
    #: executor counter deltas (fault.*, check.*) a worker recorded in its
    #: own registry, merged into the parent's at the merge position
    counters: dict = field(default_factory=dict)
    #: a worker's injector sub-state side effects (None when no injector)
    injector_records: list = field(default_factory=list)
    injector_minibatch: int | None = None
    injector_preempted: bool = False
    #: the error that cut the configuration short: preemption, schedule
    #: violations, or a non-transient fault.  The exception object itself;
    #: only between a worker and its pool is it pickled bytes
    error: object = None
    error_repr: str | None = None
    #: schedule-validation violations to replay into the run report
    violations: list = field(default_factory=list)  # [(label, kind, text)]
    #: worker wall seconds spent on this candidate (utilization metric)
    busy_s: float = 0.0
    #: host-side trace spans recorded while measuring this candidate
    #: (Chrome-event dicts; ts relative to the candidate's own start;
    #: empty unless the worker spec requested tracing)
    spans: list = field(default_factory=list)
    #: os pid of the worker that measured this candidate (trace track key)
    worker_pid: int = 0


def sample_plan(executor, plan, policy: MeasurementPolicy,
                on_sample=None) -> CandidateOutcome:
    """Measure ``plan`` on ``executor`` under ``policy``.

    Runs ``policy.samples`` mini-batches, each retried on transient faults up to ``policy.max_attempts`` times.  A
    retried plan is statically re-validated even when the executor does
    not validate: recovery must never re-run a plan with ordering or
    memory violations.  A non-transient error (preemption, schedule
    violations, device OOM) ends the loop and is recorded, not raised;
    the sample it interrupted stays in the log with no result.
    ``on_sample(record, start, end)`` is called with the host
    ``perf_counter`` bounds of every sample that ran to its end.
    """
    from ..check import ScheduleValidationError
    from ..faults.events import FaultError

    outcome = CandidateOutcome()
    try:
        for _ in range(policy.samples):
            record = SampleRecord()
            outcome.samples.append(record)
            start = time.perf_counter()
            while True:
                validate = True if record.aborts and not executor.validate else None
                try:
                    record.result = executor.run(plan, validate=validate)
                    break
                except FaultError as exc:
                    if not exc.transient:
                        raise
                    record.aborts.append((exc.kind, str(exc)))
                    if len(record.aborts) >= policy.max_attempts:
                        break  # sample lost
            if on_sample is not None:
                on_sample(record, start, time.perf_counter())
    except ScheduleValidationError as exc:
        outcome.error = exc
        outcome.violations = [
            (plan.label, violation.kind, str(violation))
            for violation in exc.report.violations
        ]
    except FaultError as exc:
        outcome.error = exc
    return outcome
