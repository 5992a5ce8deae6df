"""Bit-identity golden for the exploration bookkeeping.

``tests/data/wirer_golden.json`` pins what the custom-wirer's measurement
bookkeeping leaves behind after a run under fault injection: every
counter value, every histogram's count, gauge and series values, the run
report's records in order, the work-conservation timeline, the profile
index (keys and ``float.hex`` values in insertion order), the provenance
events, the tracer's events, the fault summary, the spent mini-batch
count, and the residual strike table.  Host wall-clock readings are left
out: the ``parallel.merge_us`` histogram, the ``parallel.utilization``
series, tracer timestamps and durations, worker track ids, and the
``wall_us``/``utilization`` arguments of the ``parallel/round`` instant.

Every case measures under ``MeasurementPolicy(samples=3, max_attempts=2)``
with one of two fault plans.  ``CHAOS`` is the plan of
``tests/parallel/test_faults_parallel.py``; on the tiny models nearly every
mini-batch it touches loses a launch, so every sample gives up, every
configuration is quarantined and the run degrades to the native plan.
``MILD`` fires launch failures five times less often, so retries succeed,
samples give up, and configurations are measured and quarantined in one
run:

* tiny scrnn and sublstm FK runs under ``CHAOS``, each serial, on the
  wave engine with one worker, and with two workers;
* the same three scrnn FK runs under ``MILD``;
* a serial ``features="all"`` run under ``MILD``, which covers the stream
  and compare phases and the production confirmation;
* under ``MILD``, serial and at one worker: a validated run
  (``validate=True``); a ``quarantine_after=2`` run, where a configuration
  can fail once and then succeed, so the strike table's reset is
  observable; and a preempt-then-resume run, which pins the sample cut
  short by the preemption (never charged) and the checkpoint.

Regenerating after an *intentional* bookkeeping change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_wirer_golden.py

then review the diff of ``tests/data/wirer_golden.json``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import MeasurementPolicy
from repro.core.session import AstraSession
from repro.faults import (
    FAULT_LAUNCH,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FaultPlan,
    FaultSpec,
    PreemptionError,
)
from repro.faults.checkpoint import ExplorationCheckpoint
from repro.gpu import DEVICES
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from repro.obs.provenance import ProvenanceLog
from repro.obs.report import RunReporter
from repro.obs.trace import Tracer
from repro.perf.bench import _clear_process_memos
from repro.perf.ranker import FastPath

PATH = Path(__file__).resolve().parent.parent / "data" / "wirer_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

FAST = FastPath(cache=True, prune=True)
#: the chaos plan of tests/parallel/test_faults_parallel.py
CHAOS = FaultPlan(
    specs=(
        FaultSpec(kind=FAULT_LAUNCH, rate=0.05),
        FaultSpec(kind=FAULT_SLOWDOWN, rate=0.2, factor=4.0),
    ),
    seed=7,
)
MILD = FaultPlan(
    specs=(
        FaultSpec(kind=FAULT_LAUNCH, rate=0.01),
        FaultSpec(kind=FAULT_SLOWDOWN, rate=0.2, factor=4.0),
    ),
    seed=7,
)
PLANS = {"chaos": CHAOS, "mild": MILD}
BUDGET = 400

#: instruments whose values are host wall-clock readings
WALL_METRICS = {"parallel.merge_us", "parallel.utilization"}
WALL_ARGS = {"wall_us", "utilization"}


def _case(model, workers=None, faults="mild", features="FK", validate=False,
          quarantine_after=1, preempt=False):
    return {
        "model": model, "workers": workers, "faults": faults,
        "features": features, "validate": validate,
        "quarantine_after": quarantine_after, "preempt": preempt,
    }


WORKERS = (("serial", None), ("w1", 1), ("w2", 2))
CASES = {}
for _model in ("scrnn", "sublstm"):
    for _tag, _workers in WORKERS:
        CASES[f"{_model}-fk-chaos/{_tag}"] = _case(_model, _workers, faults="chaos")
for _tag, _workers in WORKERS:
    CASES[f"scrnn-fk/{_tag}"] = _case("scrnn", _workers)
CASES["scrnn-all/serial"] = _case("scrnn", features="all")
for _tag, _workers in WORKERS[:2]:
    CASES[f"sublstm-fk-validate/{_tag}"] = _case("sublstm", _workers, validate=True)
    CASES[f"scrnn-fk-strikes/{_tag}"] = _case("scrnn", _workers, quarantine_after=2)
    CASES[f"scrnn-fk-preempt/{_tag}"] = _case("scrnn", _workers, preempt=True)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def plain(value):
    """JSON-stable encoding: floats as ``float.hex``, tuples as lists,
    anything else that JSON cannot hold as its ``repr``."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return repr(value)


def capture(session, metrics, reporter, provenance, tracer) -> dict:
    """Everything the run's bookkeeping left behind, minus wall clock."""
    wirer = session.wirer
    counters, histograms, gauges, series = {}, {}, {}, {}
    for name, metric in sorted(metrics._instruments.items()):
        if name in WALL_METRICS:
            continue
        if isinstance(metric, Counter):
            counters[name] = metric.value
        elif isinstance(metric, Histogram):
            histograms[name] = metric.count
        elif isinstance(metric, Gauge):
            gauges[name] = plain(metric.value)
        elif isinstance(metric, Series):
            series[name] = plain(metric.points)
    events = []
    for event in tracer.chrome()["traceEvents"]:
        if event["ph"] == "M":
            continue
        args = {k: v for k, v in event.get("args", {}).items() if k not in WALL_ARGS}
        events.append([event["ph"], event["name"], event.get("cat"), plain(args)])
    return {
        "spent": wirer._prior_spent + wirer._spent_this_run,
        "counters": counters,
        "histograms": histograms,
        "gauges": gauges,
        "series": series,
        "records": [
            [r.seq, r.phase, r.kind, plain(r.context), plain(r.assignment_delta),
             r.time_us.hex(), r.best_so_far_us.hex()]
            for r in reporter.records
        ],
        "timeline": plain(wirer._timeline),
        "index": [[repr(k), v.hex()] for k, v in wirer.index.snapshot().items()],
        "provenance": plain(provenance.events),
        "strikes": [[repr(k), v] for k, v in wirer._fault_strikes.items()],
        "tracer": events,
    }


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _session(graph, case, faults, checkpoint_path=None):
    metrics, reporter = MetricsRegistry(), RunReporter()
    provenance, tracer = ProvenanceLog(), Tracer()
    session = AstraSession(
        graph, device=DEVICES["P100"], features=case["features"], seed=1,
        fast=FAST, workers=case["workers"], faults=faults,
        policy=MeasurementPolicy(
            samples=3, max_attempts=2, quarantine_after=case["quarantine_after"]
        ),
        validate=case["validate"], checkpoint_path=checkpoint_path,
        metrics=metrics, reporter=reporter, provenance=provenance, tracer=tracer,
    )
    return session, (metrics, reporter, provenance, tracer)


def run_case(graph, case, tmp_path) -> dict:
    _clear_process_memos()
    out = {}
    faults = PLANS[case["faults"]]
    checkpoint_path = None
    if case["preempt"]:
        checkpoint_path = str(tmp_path / "checkpoint.json")
        preempt = FaultPlan(
            specs=faults.specs + (FaultSpec(kind=FAULT_PREEMPT, at=5),),
            seed=faults.seed,
        )
        session, hooks = _session(graph, case, preempt, checkpoint_path)
        try:
            with pytest.raises(PreemptionError):
                session.optimize(max_minibatches=BUDGET)
        finally:
            session.close()
        out["preempted"] = capture(session, *hooks)
        out["checkpoint"] = plain(ExplorationCheckpoint.load(checkpoint_path).to_dict())
        _clear_process_memos()
    session, hooks = _session(graph, case, faults, checkpoint_path)
    try:
        report = session.optimize(max_minibatches=BUDGET)
    finally:
        session.close()
    out["final"] = capture(session, *hooks)
    out["report"] = {
        "best_time_us": report.best_time_us.hex(),
        "assignment": {k: repr(v) for k, v in report.astra.assignment.items()},
        "configs_explored": report.configs_explored,
        "degraded": report.degraded,
        "fault_summary": plain(report.astra.fault_summary),
        "phases": [[p.name, p.minibatches, p.index_hits] for p in report.astra.phases],
    }
    return out


def _dump(golden: dict) -> str:
    """One case per line keeps diffs attributable."""
    rows = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in golden.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


@pytest.fixture(scope="module")
def golden(request, tmp_path_factory) -> dict:
    if REGEN:
        built = {}
        for name, case in CASES.items():
            graph = request.getfixturevalue(f"tiny_{case['model']}")
            built[name] = run_case(graph, case, tmp_path_factory.mktemp("regen"))
        PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH.write_text(_dump(built))
    if not PATH.exists():
        pytest.fail(
            f"golden file {PATH} missing; generate it with "
            "REPRO_REGEN_GOLDEN=1 (see module docstring)"
        )
    return json.loads(PATH.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_bookkeeping_matches_golden(golden, request, tmp_path, name):
    case = CASES[name]
    actual = run_case(request.getfixturevalue(f"tiny_{case['model']}"), case, tmp_path)
    expected = golden[name]
    assert sorted(actual) == sorted(expected)
    for stage in sorted(expected):
        if not isinstance(expected[stage], dict) or "counters" not in expected[stage]:
            assert plain(actual[stage]) == expected[stage], f"{stage} diverged"
            continue
        for field in sorted(expected[stage]):
            assert plain(actual[stage][field]) == expected[stage][field], (
                f"{stage}.{field} diverged; if the bookkeeping change is "
                "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
            )


def test_golden_exercises_the_recovery_paths(golden):
    """The chaos cases must actually reach the paths the golden guards."""
    finals = [case["final"] for case in golden.values()]
    counters = [f["counters"] for f in finals]
    for name in ("recovery.retries", "recovery.revalidated",
                 "recovery.measurements_failed", "recovery.quarantined",
                 "recovery.retries_succeeded"):
        assert any(c.get(name) for c in counters), f"no case reaches {name}"
    assert any(f["strikes"] for f in finals)
    assert any(case["report"]["degraded"] for case in golden.values())
    assert not all(case["report"]["degraded"] for case in golden.values())
    assert any(c.get("check.schedules_validated") for c in counters)
    assert any(c.get("parallel.candidates") for c in counters)
    phases = {p[0].split("/")[0] for case in golden.values() for p in case["report"]["phases"]}
    assert {"fk", "streams", "compare"} <= phases
    preempted = [case for case in golden.values() if "preempted" in case]
    assert preempted and all(
        case["final"]["counters"].get("recovery.resumed") for case in preempted
    )
