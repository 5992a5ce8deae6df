"""Job specs, the supervised bounded job queue, and the job runner.

The serve daemon accepts optimization jobs over HTTP and executes them
on a small fleet of worker threads.  The queue is deliberately
*bounded*: a daemon that buffers unbounded work lies to its clients
about capacity -- a full queue answers 503 and the client retries, the
same first-writer-wins backpressure philosophy the store applies to
measurements.

Each job runs a normal :class:`~repro.core.session.AstraSession` wired
to the daemon's shared :class:`~repro.serve.store.ProfileStore`, so
jobs warm-start from -- and publish back to -- the fleet-wide knowledge
base automatically.  A job spec may request ``workers`` measurement
processes; the session then stands up the same
:mod:`repro.parallel.pool` engine the CLI's ``--workers`` uses.

Fault tolerance (see ``docs/serving.md`` "Failure modes and recovery"):

* every state transition is journaled through a
  :class:`~repro.serve.journal.JobJournal` *before* it is acted on, so
  a killed daemon recovers its queue on restart;
* each job attempt is **supervised**: a per-job deadline abandons a
  wedged attempt (:class:`~repro.faults.JobTimeoutError`), transient
  :class:`~repro.faults.FaultError`\\ s are retried with jittered
  exponential backoff, and after ``max_attempts`` the job is
  **dead-lettered** (status ``dead``) -- one poisoned job can never
  wedge a worker thread;
* client-supplied idempotency keys dedupe resubmissions, across
  restarts included, so a nervous client cannot double-run (and
  double-publish) a job.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field

from ..faults.events import FaultError, JobTimeoutError
from ..models import build_model

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
#: dead-lettered: still failing transiently after ``max_attempts``
STATUS_DEAD = "dead"

_TERMINAL = (STATUS_DONE, STATUS_FAILED, STATUS_DEAD)

_FEATURES = ("F", "FK", "FKS", "all")


class JobSpecError(ValueError):
    """A submitted job document is malformed (HTTP 400)."""


class IdempotencyConflictError(ValueError):
    """An idempotency key was reused with a different spec (HTTP 409)."""


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity (HTTP 503)."""


class QueueClosedError(RuntimeError):
    """The queue is draining for shutdown and accepts no new jobs (503)."""


@dataclass(frozen=True)
class JobSpec:
    """One optimization request, as submitted over ``POST /jobs``."""

    model: str
    batch: int = 16
    seq_len: int = 5
    device: str = "P100"
    features: str = "all"
    seed: int = 0
    budget: int = 3000
    workers: int | None = None

    @classmethod
    def from_dict(cls, doc) -> "JobSpec":
        from ..gpu import DEVICES
        from ..models import MODEL_BUILDERS

        if not isinstance(doc, dict):
            raise JobSpecError("job spec must be a JSON object")
        unknown = set(doc) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise JobSpecError(f"unknown job fields: {sorted(unknown)}")
        if "model" not in doc:
            raise JobSpecError("job spec requires a 'model'")
        spec = cls(**doc)
        if spec.model not in MODEL_BUILDERS:
            raise JobSpecError(
                f"unknown model {spec.model!r}; have {sorted(MODEL_BUILDERS)}"
            )
        if spec.device not in DEVICES:
            raise JobSpecError(
                f"unknown device {spec.device!r}; have {sorted(DEVICES)}"
            )
        if spec.features not in _FEATURES:
            raise JobSpecError(
                f"unknown features {spec.features!r}; have {list(_FEATURES)}"
            )
        for name in ("batch", "seq_len", "budget"):
            value = getattr(spec, name)
            if not isinstance(value, int) or value < 1:
                raise JobSpecError(f"{name} must be a positive integer")
        if not isinstance(spec.seed, int) or spec.seed < 0:
            raise JobSpecError("seed must be a non-negative integer")
        if spec.workers is not None and (
            not isinstance(spec.workers, int) or spec.workers < 1
        ):
            raise JobSpecError("workers must be a positive integer or null")
        return spec

    def to_dict(self) -> dict:
        return {
            "model": self.model, "batch": self.batch,
            "seq_len": self.seq_len, "device": self.device,
            "features": self.features, "seed": self.seed,
            "budget": self.budget, "workers": self.workers,
        }


@dataclass
class Job:
    """Queue-side state of one submitted job."""

    job_id: str
    spec: JobSpec
    status: str = STATUS_QUEUED
    result: dict | None = None
    error: str | None = None
    worker: str | None = None
    #: client-supplied idempotency key, when given
    key: str | None = None
    #: attempts begun (1 on the happy path; more after retries)
    attempts: int = 0
    #: True when this job was reconstructed from the journal at startup
    recovered: bool = False
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.job_id,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "result": self.result,
            "error": self.error,
            "key": self.key,
            "attempts": self.attempts,
            "recovered": self.recovered,
        }


def run_job(spec: JobSpec, store=None) -> dict:
    """Execute one job to completion; the daemon's worker-thread body.

    Clean sessions only: the serve surface exposes no fault injection,
    so every job is a deterministic base-clock run whose measurements
    are safe to share through the store.
    """
    from ..core.session import AstraSession
    from ..gpu import DEVICES

    model = build_model(spec.model, spec.batch, spec.seq_len)
    session = AstraSession(
        model, device=DEVICES[spec.device], features=spec.features,
        seed=spec.seed, store=store, workers=spec.workers,
    )
    try:
        report = session.optimize(max_minibatches=spec.budget)
        astra = report.astra
        return {
            "best_time_us": astra.best_time_us,
            "native_time_us": report.native_time_us,
            "speedup_over_native": report.speedup_over_native,
            "configs_explored": report.configs_explored,
            "profile_entries": astra.profile_entries,
            "best_strategy": astra.best_strategy.label,
            "assignment": {k: repr(v) for k, v in astra.assignment.items()},
            "degraded": astra.degraded,
            "warm": dict(astra.warm),
            "job_digest": session.job_digest(),
        }
    finally:
        session.close()


class JobQueue:
    """Bounded FIFO of supervised jobs executed by daemon worker threads.

    ``runner`` is a callable ``(spec) -> result dict``; worker threads
    pull job ids in submission order, so with one worker the daemon is
    strictly serial (deterministic store growth), and with N workers
    concurrent jobs share warm measurements through the store's
    first-writer-wins merge.

    With a ``journal``, the queue is durable: construction replays the
    journal (terminal jobs are restored, incomplete jobs re-enqueued
    ahead of any new submission) and every later transition is journaled
    before it takes effect.
    """

    def __init__(self, runner, capacity: int = 16, workers: int = 1,
                 metrics=None, journal=None, max_attempts: int = 3,
                 deadline_s: float | None = None, backoff_s: float = 0.05):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._runner = runner
        self.capacity = capacity
        self.max_attempts = max_attempts
        self.deadline_s = deadline_s
        self.backoff_s = backoff_s
        # unbounded internally -- capacity is enforced on the count of
        # *jobs* awaiting a worker, so shutdown sentinels and recovered
        # jobs are never blocked by backpressure
        self._queue: queue.Queue = queue.Queue()
        self._pending = 0
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._seq = 0
        self._closed = False
        self._metrics = metrics
        self._journal = journal
        if journal is not None:
            self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild queue state from the journal (before workers start).

        Terminal jobs are restored in place -- their results/errors are
        served without re-running anything.  Incomplete jobs (accepted
        or started, never finished) are re-enqueued in submit order;
        they may exceed ``capacity``, in which case new submissions see
        503 until the backlog drains -- recovery never drops owed work."""
        state = self._journal.recover()
        self._seq = state.max_seq
        restored = requeued = 0
        for entry in state.jobs.values():
            try:
                spec = JobSpec.from_dict(entry.spec)
            except (JobSpecError, TypeError) as exc:
                # the model/device zoo changed under a journaled job:
                # fail it rather than crash recovery or silently drop it
                job = Job(job_id=entry.job_id,
                          spec=JobSpec(model=str(entry.spec.get("model"))),
                          status=STATUS_FAILED,
                          error=f"unrecoverable spec: {exc}",
                          key=entry.key, recovered=True)
                self._jobs[entry.job_id] = job
                if entry.key:
                    self._by_key[entry.key] = entry.job_id
                continue
            job = Job(job_id=entry.job_id, spec=spec, key=entry.key,
                      attempts=entry.attempts, recovered=True)
            self._jobs[entry.job_id] = job
            if entry.key:
                self._by_key[entry.key] = entry.job_id
            if entry.terminal:
                job.status = {
                    "done": STATUS_DONE, "fail": STATUS_FAILED,
                    "dead": STATUS_DEAD,
                }[entry.record]
                job.result = entry.result
                job.error = entry.error
                restored += 1
            else:
                job.status = STATUS_QUEUED
                job.attempts = 0  # a fresh supervisor gets a fresh budget
                self._pending += 1
                self._queue.put(job.job_id)
                requeued += 1
        self._journal.compact(state)
        self._count("serve.recovery.restored", restored)
        self._count("serve.recovery.requeued", requeued)
        self._count("serve.recovery.torn_records", state.torn_records)
        self._count("serve.recovery.orphan_records", state.orphan_records)

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec, key: str | None = None) -> Job:
        with self._lock:
            if self._closed:
                raise QueueClosedError("job queue is shutting down")
            if key is not None:
                existing_id = self._by_key.get(key)
                if existing_id is not None:
                    existing = self._jobs[existing_id]
                    if existing.spec != spec:
                        raise IdempotencyConflictError(
                            f"idempotency key {key!r} already used by "
                            f"{existing_id} with a different spec"
                        )
                    self._count("serve.jobs.deduped")
                    return existing
            if self._pending >= self.capacity:
                raise QueueFullError(
                    f"job queue full ({self.capacity} pending)"
                )
            self._seq += 1
            job = Job(job_id=f"job-{self._seq:06d}", spec=spec, key=key)
            if self._journal is not None:
                # WAL discipline: the acceptance is durable before the
                # client ever sees the 202
                self._journal.submitted(job.job_id, spec.to_dict(), key=key)
            self._jobs[job.job_id] = job
            if key is not None:
                self._by_key[key] = job.job_id
            self._pending += 1
            self._queue.put(job.job_id)
            self._count("serve.jobs.submitted")
            self._gauge_depth()
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    # -- worker side --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            try:
                if job_id is None:  # shutdown sentinel from close()
                    return
                job = self._jobs[job_id]
                with self._lock:
                    self._pending -= 1
                    job.status = STATUS_RUNNING
                    job.worker = threading.current_thread().name
                    self._gauge_depth()
                self._supervise(job)
            finally:
                self._queue.task_done()

    def _supervise(self, job: Job) -> None:
        """Drive one job to a terminal state, whatever it takes.

        Transient faults (the :mod:`repro.faults` taxonomy, deadline
        misses included) retry with jittered exponential backoff up to
        ``max_attempts``, then dead-letter.  Non-transient faults and
        ordinary exceptions fail immediately.  Nothing escapes: a
        poisoned job ends in ``failed`` or ``dead``, never in a wedged
        or dead worker thread."""
        while True:
            with self._lock:
                job.attempts += 1
                attempt = job.attempts
            if self._journal is not None:
                self._journal.started(job.job_id, attempt)
            try:
                result = self._attempt(job)
            except FaultError as exc:
                error = f"{type(exc).__name__}: {exc}"
                if exc.transient and attempt < self.max_attempts:
                    delay = self._backoff(job.job_id, attempt)
                    self._count("serve.retry.attempts")
                    self._observe("serve.retry.backoff_s", delay)
                    time.sleep(delay)
                    continue
                if exc.transient:
                    self._finish(job, STATUS_DEAD,
                                 error=f"dead-lettered after {attempt} "
                                       f"attempts: {error}")
                    self._count("serve.jobs.dead")
                else:
                    self._finish(job, STATUS_FAILED, error=error)
                    self._count("serve.jobs.failed")
                return
            except Exception as exc:  # job failure must not kill the worker
                self._finish(job, STATUS_FAILED,
                             error=f"{type(exc).__name__}: {exc}")
                self._count("serve.jobs.failed")
                return
            else:
                self._finish(job, STATUS_DONE, result=result)
                self._count("serve.jobs.completed")
                return

    def _attempt(self, job: Job):
        """Run one attempt, abandoning it if it outlives the deadline.

        The runner executes on a disposable daemon thread when a
        deadline is set; a wedged attempt is left behind (it dies with
        the process) and surfaced as a transient
        :class:`~repro.faults.JobTimeoutError` so the supervisor can
        retry or dead-letter."""
        if self.deadline_s is None:
            return self._runner(job.spec)
        box: dict = {}
        finished = threading.Event()

        def body():
            try:
                box["result"] = self._runner(job.spec)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc
            finally:
                finished.set()

        thread = threading.Thread(
            target=body, name=f"{job.job_id}-attempt-{job.attempts}",
            daemon=True,
        )
        thread.start()
        if not finished.wait(timeout=self.deadline_s):
            raise JobTimeoutError(job.job_id, self.deadline_s)
        if "error" in box:
            raise box["error"]
        return box.get("result")

    def _backoff(self, job_id: str, attempt: int) -> float:
        """Jittered exponential backoff, deterministic per (job, attempt).

        Deterministic jitter keeps retry schedules reproducible in tests
        and chaos runs while still decorrelating real concurrent
        retries (different job ids => different jitter)."""
        jitter = random.Random(f"{job_id}:{attempt}").random()
        return self.backoff_s * (2 ** (attempt - 1)) * (1.0 + 0.5 * jitter)

    def _finish(self, job: Job, status: str, result: dict | None = None,
                error: str | None = None) -> None:
        """Journal, then apply, one terminal transition."""
        if self._journal is not None:
            if status == STATUS_DONE:
                self._journal.completed(job.job_id, result or {})
            elif status == STATUS_DEAD:
                self._journal.dead(job.job_id, error or "")
            else:
                self._journal.failed(job.job_id, error or "")
        with self._done:
            job.status = status
            job.result = result
            job.error = error
            self._done.notify_all()

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is terminal.

        Purely condition-based -- the worker's ``_finish`` notifies, so
        drain wakes the moment the last job completes (no polling
        sleeps; a regression test pins the promptness).  Returns False
        on timeout.  New submissions are still accepted while draining
        unless :meth:`close` was called first."""
        with self._done:
            return self._done.wait_for(
                lambda: all(
                    j.status in _TERMINAL for j in self._jobs.values()
                ),
                timeout=timeout,
            )

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs; optionally finish the ones already queued.

        ``drain=True`` (the graceful path) waits for every accepted job
        to reach a terminal state before the worker threads exit --
        a client that got a 202 gets a result.  Workers are woken by
        sentinels queued *behind* the remaining jobs, so they exit as
        soon as the backlog is gone instead of polling for closure."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            for _ in self._threads:
                self._queue.put(None)
        if drain:
            self.drain(timeout=timeout)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- observability -------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self._metrics is not None and n:
            self._metrics.counter(name).inc(n)

    def _observe(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.histogram(name).observe(value)

    def _gauge_depth(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("serve.queue.depth").set(self._pending)

    def stats(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            recovered = 0
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
                recovered += 1 if job.recovered else 0
            return {
                "capacity": self.capacity,
                "depth": self._pending,
                "workers": len(self._threads),
                "jobs": by_status,
                "recovered_jobs": recovered,
                "max_attempts": self.max_attempts,
                "deadline_s": self.deadline_s,
                "closed": self._closed,
            }
