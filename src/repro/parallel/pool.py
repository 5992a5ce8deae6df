"""Worker pools: process-backed with an in-process fallback.

One pool serves every engine.  A pool holds a picklable *spec* that names
its own worker state (``spec.worker()``): the explore engine's
:class:`~repro.parallel.wire.WorkerSpec` builds a
:class:`~repro.parallel.worker.WorkerState`, the fleet search's
:class:`~repro.fleet.pool.FleetWorkerSpec` a
:class:`~repro.fleet.pool.FleetWorkerState`.  Both states have
``run_shard``; the explore state also has ``run_estimates``.

Both pools expose the same calls (``run_shard``, ``run_estimates``,
``prewarm``, ``inline``) returning futures-like handles, so the engine
never branches on pool kind.  :func:`make_pool` picks the process pool
when it can and falls back to :class:`InlinePool` when it can't
(``workers <= 1``, platforms without working process pools, pickling
failures at spawn) -- degraded throughput, never degraded results.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import Future, ProcessPoolExecutor


def _resolved(call) -> Future:
    """Run ``call`` now, wrapped in an executor-style future."""
    future: Future = Future()
    try:
        future.set_result(call())
    except BaseException as exc:  # mirror executor future semantics
        future.set_exception(exc)
    return future


class InlinePool:
    """Single-process fallback executing shards in the caller.

    Runs the exact worker code path (same state class, same measurement
    loop) so ``--workers 1`` exercises everything but the fork.
    """

    kind = "inline"
    workers = 1

    def __init__(self, spec):
        self.spec = spec
        self._state = None

    def _ensure(self):
        if self._state is None:
            self._state = self.spec.worker()
        return self._state

    def prewarm(self) -> None:
        # building the state here would serialize with the parent's own
        # enumerator construction; defer to first use instead
        return None

    def run_shard(self, tasks) -> Future:
        return _resolved(lambda: self._ensure().run_shard(list(tasks)))

    def run_estimates(self, strategy_id, names) -> Future:
        return _resolved(
            lambda: self._ensure().run_estimates(strategy_id, list(names))
        )

    def inline(self) -> "InlinePool":
        return self

    def close(self) -> None:
        self._state = None


class ProcessPool:
    """``ProcessPoolExecutor`` wrapper with spec-initialized workers."""

    kind = "process"

    def __init__(self, spec, workers: int):
        self.spec = spec
        self.workers = workers
        # fork skips re-importing the package per worker and ships the
        # initializer payload through cheap COW memory; platforms without
        # it use their default
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        payload = pickle.dumps(spec)
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_pool_init,
            initargs=(payload,),
        )
        self._warmup: list[Future] = []
        self._inline: InlinePool | None = None

    def prewarm(self) -> None:
        """Kick every worker's spawn + initializer without blocking.

        Overlaps worker startup with the parent's own enumerator and
        native-baseline work; the first real shard then lands on a warm
        fleet.  Futures are retained so startup failures surface on the
        first dispatch rather than vanishing."""
        self._warmup = [
            self._executor.submit(_pool_warmup) for _ in range(self.workers)
        ]

    def run_shard(self, tasks) -> Future:
        return self._executor.submit(_pool_run_shard, list(tasks))

    def run_estimates(self, strategy_id, names) -> Future:
        return self._executor.submit(
            _pool_run_estimates, strategy_id, list(names)
        )

    def inline(self) -> InlinePool:
        """The in-caller pool a broken worker's shard degrades to, built
        from this pool's own spec on first use."""
        if self._inline is None:
            self._inline = InlinePool(self.spec)
        return self._inline

    def close(self) -> None:
        # wait for worker exit: shutdown(wait=False) leaves the executor's
        # management thread racing interpreter teardown, which surfaces as
        # spurious "Bad file descriptor" noise at exit
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self._inline is not None:
            self._inline.close()


def make_pool(spec, workers: int):
    """Build the best pool available for ``workers``.

    Any failure to stand up a process pool (unsupported platform,
    unpicklable spec member) degrades to the inline pool -- the engine
    still runs, merely without parallel speedup.
    """
    if workers <= 1:
        return InlinePool(spec)
    try:
        return ProcessPool(spec, workers)
    except Exception:
        return InlinePool(spec)


# -- process-pool entry points (module level: picklable by reference) -----

_STATE = None


def _pool_init(payload: bytes) -> None:
    global _STATE
    _STATE = pickle.loads(payload).worker()


def _pool_warmup() -> bool:
    """No-op task: forces worker spawn + initializer while the parent is
    still doing its own setup, so the fleet is warm before the first wave."""
    return _STATE is not None


def _pool_run_shard(tasks: list) -> list:
    return _STATE.run_shard(tasks)


def _pool_run_estimates(strategy_id: int, names: list) -> list:
    return _STATE.run_estimates(strategy_id, names)
