"""The stream-phase bound: replay exactness, admissibility, pruning.

The argument (see ``repro/perf/ranker.py``): a stream candidate changes
only the stream map of the frozen FK plan, so one fixed-rate pass of the
dispatch recurrence over the issue order reproduces the simulator's
timeline, and the two fixed-rate replays bound every epoch metric from
below.  These tests pin the replay against the DES bit for bit, check
the bound against every stream choice an exhaustive run measures on the
whole zoo, and check what pruning may and may not do.
"""

import pytest

from repro.core import MeasurementPolicy
from repro.core.profile_index import mangle
from repro.core.session import AstraSession
from repro.core.wirer import CustomWirer
from repro.faults import FAULT_SLOWDOWN, FaultPlan, FaultSpec
from repro.gpu import DEVICES, P100, StreamSimulator
from repro.gpu.device import CLOCK_AUTOBOOST
from repro.obs import MetricsRegistry
from repro.obs.provenance import ProvenanceLog
from repro.perf import FastPath
from repro.perf.ranker import (
    STREAM_BOUND_SLACK,
    StreamBound,
    StreamPruner,
    stream_config,
)
from repro.runtime import Dispatcher

ZOO = ["tiny_scrnn", "tiny_sublstm", "tiny_milstm", "tiny_stacked_lstm", "tiny_gnmt"]
EXHAUSTIVE = FastPath(cache=True, prune=False)
PRUNED = FastPath(cache=True, prune=True)


def _stream_phase(model, device=P100):
    """A wirer, the first strategy's stream tree, and its skeleton."""
    wirer = AstraSession(model, device=device, features="all").wirer
    strategy = wirer.enumerator.strategies[0]
    partition, tree = wirer.enumerator.prepare_stream_phase(strategy, {})
    variables = list(tree.variables())

    def build(assignment, live):
        return wirer._build_with_streams(
            strategy, {}, assignment, partition, tree, profile_vars=live
        ).plan

    bound = StreamBound.of(build({}, None), Dispatcher(wirer.graph), device, variables)
    return wirer, variables, build, bound


def _stream_map(variables, assignment, live):
    options, profiled = stream_config(variables, assignment, live)
    stream_of = {}
    for option in options.values():
        stream_of.update(option)
    return stream_of, profiled


class TestReplayExactness:
    @pytest.mark.parametrize("fixture", ZOO)
    def test_replay_reproduces_simulated_issue_and_start(self, fixture, request):
        """Fed the DES's realized durations, the skeleton reproduces every
        record's issue and start time exactly: on the single-stream first
        configuration (sequential engine), on every variable's last
        choice, on a configuration that moves every epoch, and on the
        compare build that profiles every unit."""
        wirer, variables, build, bound = _stream_phase(request.getfixturevalue(fixture))
        assert variables, "the tiny model must have stream variables"
        names = {v.name for v in variables}
        candidates = [({}, names), ({}, None)]
        candidates += [({v.name: v.choices[-1]}, {v.name}) for v in variables]
        candidates.append(({v.name: v.choices[-1] for v in variables}, {variables[0].name}))
        dispatcher = Dispatcher(wirer.graph)
        for assignment, live in candidates:
            plan = build(assignment, live)
            result = StreamSimulator(P100).run(dispatcher.lower(plan).items)
            stream_of, profiled = _stream_map(variables, assignment, live)
            if live is not None:
                # the profiling set the bound charges is the one built
                assert frozenset(profiled) == plan.profile_unit_ids
            issue, start, _end = bound.timeline(
                stream_of, set(plan.profile_unit_ids),
                [r.end_time - r.start_time for r in result.records],
            )
            assert issue == [r.issue_time for r in result.records], assignment
            assert start == [r.start_time for r in result.records], assignment


class _Shadow(StreamPruner):
    """Bounds every configuration the exhaustive loop measures and never
    prunes or reorders; pairs each bound with the value the index merged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending = []
        self.pairs = []

    def order(self, live_vars):
        pass

    def verdict(self, live_vars):
        self.resolve()
        assignment = self.tree.assignment()
        live = {v.name for v in live_vars}
        for var in live_vars:
            bound = self.bound_of(var, assignment, live)
            if bound is not None:
                self.pending.append(
                    (var.name, var.value, var.profile_key(self.context), bound)
                )
        return None

    def resolve(self):
        for name, choice, key, bound in self.pending:
            measured = self.index.get(key)
            if measured is not None:
                self.pairs.append((name, choice, bound, measured))
        self.pending = []


def _shadowed_run(model, device, monkeypatch):
    """An exhaustive (prune off) ``features="all"`` run whose stream
    phases are bounded alongside; returns (pairs, stream index entries)."""
    original = CustomWirer._explore_tree
    shadows = []

    def spy(self, tree, context, build, stats, budget, pruner=None):
        variables = list(tree.variables())
        if not stats.name.startswith("streams/") or not variables:
            return original(self, tree, context, build, stats, budget, pruner)
        assert pruner is None, "prune is off: the wirer must not bound"
        bound = StreamBound.of(
            build({}, None).plan, Dispatcher(self.graph), self.device, variables
        )
        shadow = _Shadow(bound, tree, self.index, context)
        shadows.append(shadow)
        spent = original(self, tree, context, build, stats, budget, shadow)
        shadow.resolve()
        return spent

    monkeypatch.setattr(CustomWirer, "_explore_tree", spy)
    session = AstraSession(model, device=device, features="all", fast=EXHAUSTIVE)
    session.optimize(max_minibatches=3000)
    stream_entries = [
        key for key in session.wirer.index.snapshot() if "stream:" in repr(key)
    ]
    return [pair for shadow in shadows for pair in shadow.pairs], stream_entries


class TestAdmissibility:
    @pytest.mark.parametrize("device_name", ["P100", "V100"])
    @pytest.mark.parametrize("fixture", ZOO)
    def test_bound_never_exceeds_measured(self, fixture, device_name, request,
                                          monkeypatch):
        pairs, entries = _shadowed_run(
            request.getfixturevalue(fixture), DEVICES[device_name], monkeypatch
        )
        # every stream choice the run measured was bounded: a stand-down
        # or a skipped configuration cannot pass this test
        assert pairs and len(pairs) == len(entries)
        for name, choice, bound, measured in pairs:
            assert bound - measured <= STREAM_BOUND_SLACK * max(1.0, measured), (
                f"{name}={choice}: bound {bound} > measured {measured}"
            )
        # not vacuous: the bound is close to the measurement somewhere
        assert max(bound / measured for _n, _c, bound, measured in pairs) > 0.9


def _all_run(model, fast=PRUNED, **kwargs):
    metrics, provenance = MetricsRegistry(), ProvenanceLog()
    session = AstraSession(
        model, features="all", fast=fast, metrics=metrics,
        provenance=provenance, **kwargs,
    )
    report = session.optimize(max_minibatches=3000)
    return session, report, metrics, provenance


class TestPruning:
    def test_pruned_choices_are_skipped_before_build_and_never_indexed(
        self, tiny_milstm, monkeypatch
    ):
        builds = []
        original = CustomWirer._build_with_streams

        def counting(self, *args, **kwargs):
            builds.append(kwargs.get("profile_vars"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CustomWirer, "_build_with_streams", counting)
        session, report, metrics, provenance = _all_run(tiny_milstm)
        stats = report.astra.fast_path["stream_prune"]
        assert stats["configs_skipped"] > 0
        assert stats["choices_pruned"] >= stats["configs_skipped"]
        assert metrics.counter("perf.stream_prune.configs_skipped").value == (
            stats["configs_skipped"]
        )
        # one build per measured stream configuration, plus the skeleton's
        # template and the compare candidate (both profile every epoch)
        streams = sum(
            p.minibatches for p in report.astra.phases if p.name.startswith("streams/")
        )
        live_builds = [live for live in builds if live is not None]
        assert len(live_builds) == streams
        # a prune is not a measurement
        pruned = [
            (d.context, d.name, choice)
            for d in provenance.decisions() for choice, _bound in d.pruned
            if d.name.startswith("stream:")
        ]
        assert len(pruned) == stats["choices_pruned"]
        for context, name, choice in pruned:
            assert mangle(context, (name, choice)) not in session.wirer.index

    def test_explain_shows_stream_prune_bounds(self, tiny_milstm):
        _session, report, _metrics, provenance = _all_run(tiny_milstm)
        text = provenance.render(report.astra.assignment)
        assert "(bound " in text
        decision = next(
            d for d in provenance.decisions()
            if d.name.startswith("stream:") and d.pruned
        )
        best = min(decision.measurements.values())
        for _choice, bound in decision.pruned:
            assert bound > best

    @pytest.mark.parametrize("reason,kwargs", [
        ("faults", {"faults": FaultPlan(specs=(
            FaultSpec(kind=FAULT_SLOWDOWN, rate=0.0, factor=2.0),
        ), seed=1)}),
        ("clock", {"device": P100.with_clock(CLOCK_AUTOBOOST)}),
        ("samples", {"policy": MeasurementPolicy(samples=2)}),
    ])
    def test_stands_down_with_a_counted_reason(self, tiny_scrnn, reason, kwargs):
        _session, report, metrics, provenance = _all_run(tiny_scrnn, **kwargs)
        stats = report.astra.fast_path["stream_prune"]
        strategies = sum(
            1 for p in report.astra.phases if p.name.startswith("streams/")
        )
        assert stats["standdowns"] == {reason: strategies}
        assert stats["choices_pruned"] == 0
        assert metrics.counter("perf.stream_prune.bounds").value == 0

    def test_no_prune_turns_the_bound_off(self, tiny_scrnn):
        _session, report, metrics, _provenance = _all_run(tiny_scrnn, fast=EXHAUSTIVE)
        stats = report.astra.fast_path["stream_prune"]
        assert stats == {"choices_pruned": 0, "configs_skipped": 0, "standdowns": {}}
        assert metrics.counter("perf.stream_prune.bounds").value == 0
