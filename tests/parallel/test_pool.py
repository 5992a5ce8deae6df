"""Pool construction, degradation, and the sharding policy.

The engine's determinism argument leans on one property pinned here:
concatenating shard results in shard order is exactly candidate-ordinal
order, for every (item count, worker count) pair.
"""

import dataclasses
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.enumerator import AstraFeatures, Enumerator
from repro.core.measurement import TRUSTING
from repro.fleet import enumerate_strategies, get_fleet
from repro.fleet.pool import FleetTask, FleetWorkerSpec
from repro.gpu import P100
from repro.models import build_scrnn
from repro.parallel import InlinePool, ParallelEngine, make_pool
from repro.parallel.engine import _shard, engine_supported
from repro.parallel.wire import CandidateTask, WorkerSpec
from repro.perf.ranker import FastPath
from tests.conftest import TINY


def _spec(model, **overrides):
    fields = dict(
        graph=model.graph, device=P100, features="FK", seed=0,
        validate=False, policy=TRUSTING, fast=FastPath(),
    )
    fields.update(overrides)
    return WorkerSpec(**fields)


class TestShard:
    @given(n=st.integers(0, 200), workers=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_concat_in_shard_order_is_original_order(self, n, workers):
        items = list(range(n))
        shards = _shard(items, workers)
        assert [x for shard in shards for x in shard] == items

    @given(n=st.integers(0, 200), workers=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_balanced_and_bounded(self, n, workers):
        shards = _shard(list(range(n)), workers)
        assert len(shards) <= workers
        assert all(shard for shard in shards)  # no empty shards
        if shards:
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1


class TestMakePool:
    def test_workers_one_is_inline(self, tiny_scrnn):
        pool = make_pool(_spec(tiny_scrnn), workers=1)
        assert isinstance(pool, InlinePool)
        assert pool.kind == "inline"
        pool.close()

    def test_unpicklable_spec_degrades_to_inline(self, tiny_scrnn):
        # a lambda can't cross a process boundary; the pool must degrade,
        # not die -- the engine still runs, merely without speedup
        pool = make_pool(_spec(tiny_scrnn, policy=lambda: None), workers=4)
        assert isinstance(pool, InlinePool)
        pool.close()

    def test_inline_pool_runs_worker_code(self, tiny_scrnn):
        from repro.core.enumerator import AstraFeatures

        pool = make_pool(
            _spec(tiny_scrnn, features=AstraFeatures.preset("FK")), workers=1
        )
        future = pool.run_shard([])
        assert future.result() == []
        pool.close()


class TestEngineSupported:
    def test_fk_tree_supported(self, tiny_scrnn):
        from repro.core.enumerator import AstraFeatures, Enumerator

        enum = Enumerator(tiny_scrnn.graph, P100, AstraFeatures.preset("FK"))
        tree = enum.build_fk_tree(enum.strategies[0])
        assert engine_supported(tree)

    def test_non_update_node_rejected(self):
        assert not engine_supported(object())


def _explore_job(model):
    """An explore spec plus two fk candidates of its first strategy."""
    features = AstraFeatures.preset("FK")
    enum = Enumerator(model.graph, P100, features)
    strategy = enum.strategies[0]
    tree = enum.build_fk_tree(strategy)
    tree.initialize()
    tasks = [
        CandidateTask(
            ordinal=n, strategy_id=strategy.strategy_id,
            assignment=tuple(sorted(tree.assignment().items())),
            live_names=tuple(v.name for v in tree.variables()),
            base_minibatch=n,
        )
        for n in range(2)
    ]
    return _spec(model, features=features), tasks


def _fleet_job(model):
    """A fleet spec plus its first three even-split strategies."""
    fleet = get_fleet("hetero")
    strategies = [
        s for s in enumerate_strategies(
            fleet, batch_size=TINY.batch_size, num_layer_scopes=1,
        )
        if s.shards
    ][:3]
    spec = FleetWorkerSpec(builder=build_scrnn, config=TINY, fleet=fleet)
    tasks = [FleetTask(ordinal=n, key=s.key()) for n, s in enumerate(strategies)]
    return spec, tasks


class _BrokenPool:
    """A process pool whose every shard dies in flight."""

    kind = "process"
    workers = 1

    def __init__(self, spec):
        self._inline = InlinePool(spec)

    def prewarm(self):
        return None

    def run_shard(self, tasks):
        future = Future()
        future.set_exception(BrokenProcessPool("worker killed"))
        return future

    def inline(self):
        return self._inline

    def close(self):
        self._inline.close()


def _settled(outcomes):
    # wall time is the only field allowed to differ between two runs
    return [dataclasses.replace(o, busy_s=0.0) for o in outcomes]


@pytest.mark.parametrize("job", [_explore_job, _fleet_job])
def test_broken_shard_degrades_to_inline(job, tiny_scrnn):
    spec, tasks = job(tiny_scrnn)
    reference = InlinePool(spec)
    expected = reference.run_shard(tasks).result()
    reference.close()

    engine = ParallelEngine(_BrokenPool(spec))
    try:
        outcomes = engine.measure_wave(tasks)
    finally:
        engine.close()
    assert [o.ordinal for o in outcomes] == list(range(len(tasks)))
    assert _settled(outcomes) == _settled(expected)
    assert engine.stats.inline_fallbacks == 1
    assert engine.summary()["inline_fallbacks"] == 1
