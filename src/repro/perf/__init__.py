"""Fast-path exploration: making the optimizer itself cheap.

Astra's premise is that mini-batches are cheap probes, but a naive wirer
re-lowers and re-simulates every candidate configuration from scratch --
the optimizer becomes the hot path.  This package keeps every winner
identical while removing the redundant work:

* :mod:`repro.perf.signature` -- stable structural signatures for
  execution plans (fusion groups, library choices, stream map, barriers,
  profiling set, allocation identity);
* :mod:`repro.perf.cache` -- the plan-structure compilation cache that
  memoizes the dependency/order analysis shared across structurally
  identical plans;
* :mod:`repro.perf.ranker` -- the cost-model-guided pre-ranker that
  prunes provably-losing fusion/kernel choices before any simulated
  mini-batch is spent on them (``--no-prune`` restores exhaustive
  search; an equivalence test pins that both converge identically);
* :mod:`repro.perf.timers` -- exclusive per-phase wall-clock accounting
  (enumerate / lower / simulate / explore) with a null-object default;
* :mod:`repro.perf.bench` -- the ``repro bench`` harness that records
  baseline-vs-fast numbers into ``BENCH_<model>.json``.

See ``docs/performance.md`` for the cache key, the pruning invariant and
how to read the bench output.
"""

from .cache import LoweringCache
from .ranker import FastPath, estimate_choice_us, prune_fk_tree
from .signature import PlanSignature, plan_key, plan_signature, structure_key
from .timers import NULL_CLOCK, PhaseClock

__all__ = [
    "FastPath",
    "LoweringCache",
    "NULL_CLOCK",
    "PhaseClock",
    "PlanSignature",
    "estimate_choice_us",
    "plan_key",
    "plan_signature",
    "prune_fk_tree",
    "structure_key",
]
