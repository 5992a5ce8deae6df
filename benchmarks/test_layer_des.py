"""DES layer microbench: concurrent-engine throughput on a fixed schedule.

The schedule is the stream-phase winner of a ``features="all"`` milstm
session at the ``stream_explore`` benchmark shape (batch 4, seq 2, P100),
lowered with per-unit profiling events as exploration mini-batches are.
pytest-benchmark times ``StreamSimulator.run`` on it and the test reports
dispatch items simulated per second.  Nothing asserts on wall time: the
figure is for before/after comparisons on one host
(``docs/performance.md``)::

    PYTHONPATH=src python -m pytest benchmarks/test_layer_des.py -s

Under ``--benchmark-disable`` the schedule still runs once and the
determinism check still applies; only the throughput figure is skipped.
"""

from dataclasses import replace

import pytest

from repro import AstraSession
from repro.gpu import P100, StreamSimulator
from repro.models import build_model
from repro.runtime import Dispatcher


@pytest.fixture(scope="module")
def milstm_stream_schedule():
    model = build_model("milstm", 4, 2)
    report = AstraSession(model, features="all").optimize(max_minibatches=3000)
    plan = replace(report.astra.best_plan, profile=True)
    items = Dispatcher(model.graph).lower(plan).items
    assert not StreamSimulator._is_sequential(items), "winner is single-stream"
    return items


def test_des_items_per_second(benchmark, milstm_stream_schedule):
    items = milstm_stream_schedule
    sim = StreamSimulator(P100)
    result = benchmark.pedantic(
        sim.run, args=(items,), rounds=30, iterations=1, warmup_rounds=3
    )
    # base clock: every round simulates the identical mini-batch
    assert sim.run(items).total_time_us == result.total_time_us
    benchmark.extra_info["items"] = len(items)
    if benchmark.stats is None:
        return  # --benchmark-disable: the call ran once, untimed
    items_per_s = len(items) / benchmark.stats.stats.median
    benchmark.extra_info["items_per_s"] = items_per_s
    print(f"\nDES: {len(items)} items, {items_per_s:,.0f} items/s (median round)")
