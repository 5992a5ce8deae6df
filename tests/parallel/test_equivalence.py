"""Serial == parallel: the engine's central contract.

Three tiers of equivalence, each pinned:

* **serial vs engine** (any worker count): identical winner, identical
  final epoch time, identical explored-config count, identical profile
  index *keys*.  Index *values* may differ in the last ulp: the wave
  enumerator holds deferred variables at their stale positions while a
  dependency is in flight, so a candidate's absolute timeline offsets
  shift and ``end - start`` can round differently (documented in
  ``docs/performance.md``).
* **engine@1 vs engine@N**: bit-identical everything -- same waves, same
  candidate ordinals, same merge order, regardless of how the waves were
  sharded across processes.  This holds under autoboost too, where every
  candidate draws clock jitter from its own substream.
* the report carries the engine summary so runs are auditable.
"""

import pickle

import pytest

from repro.core.session import AstraSession
from repro.gpu import CLOCK_AUTOBOOST, DEVICES
from repro.perf.bench import _clear_process_memos
from repro.perf.ranker import FastPath

FAST = FastPath(cache=True, prune=True)
AUTOBOOST = "V100-autoboost"


def device_for(name):
    if name == AUTOBOOST:
        return DEVICES["V100"].with_clock(CLOCK_AUTOBOOST)
    return DEVICES[name]


def run_once(model, device_name="P100", workers=None, budget=400):
    _clear_process_memos()
    session = AstraSession(
        model, device=device_for(device_name), features="FK", seed=1,
        fast=FAST, workers=workers,
    )
    try:
        report = session.optimize(max_minibatches=budget)
    finally:
        session.close()
    return report, session.wirer.index.snapshot()


def fingerprint(report, index):
    """Everything byte-comparable between engine runs."""
    return pickle.dumps((
        {k: repr(v) for k, v in report.astra.assignment.items()},
        report.best_time_us,
        report.configs_explored,
        report.astra.exploration_time_us,
        report.astra.timeline,
        index,
    ))


@pytest.fixture(scope="module")
def scrnn_runs(tiny_scrnn):
    return {
        "serial": run_once(tiny_scrnn),
        "w1": run_once(tiny_scrnn, workers=1),
        "w2": run_once(tiny_scrnn, workers=2),
    }


class TestSerialVsEngine:
    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    @pytest.mark.parametrize("device_name", ["P100", "V100"])
    def test_winner_and_index_keys(self, request, fixture, device_name):
        model = request.getfixturevalue(fixture)
        serial_report, serial_index = run_once(model, device_name)
        engine_report, engine_index = run_once(model, device_name, workers=1)
        assert (
            {k: repr(v) for k, v in serial_report.astra.assignment.items()}
            == {k: repr(v) for k, v in engine_report.astra.assignment.items()}
        )
        assert serial_report.best_time_us == engine_report.best_time_us
        assert serial_report.configs_explored == engine_report.configs_explored
        assert (serial_report.astra.exploration_time_us
                == engine_report.astra.exploration_time_us)
        assert set(serial_index) == set(engine_index)
        for key, value in serial_index.items():
            assert engine_index[key] == pytest.approx(value, rel=1e-9)

    def test_serial_timeline_epoch_times_match(self, scrnn_runs):
        serial_report, _ = scrnn_runs["serial"]
        engine_report, _ = scrnn_runs["w1"]
        assert len(serial_report.astra.timeline) == len(engine_report.astra.timeline)
        assert ([p for p, _t in serial_report.astra.timeline]
                == [p for p, _t in engine_report.astra.timeline])


class TestEngineWorkerCountInvariance:
    @pytest.mark.parametrize("device_name", ["P100", AUTOBOOST])
    def test_one_vs_two_workers_bit_identical(self, scrnn_runs, tiny_scrnn, device_name):
        if device_name == "P100":
            one, two = scrnn_runs["w1"], scrnn_runs["w2"]
        else:
            one = run_once(tiny_scrnn, device_name, workers=1)
            two = run_once(tiny_scrnn, device_name, workers=2)
        assert one[0].configs_explored > 0 and one[1]
        assert fingerprint(*one) == fingerprint(*two)

    def test_report_carries_engine_summary(self, scrnn_runs):
        report, _ = scrnn_runs["w2"]
        summary = report.astra.fast_path["parallel"]
        assert summary["workers"] == 2
        assert summary["pool"] in ("process", "inline")
        assert summary["candidates"] >= 0
        assert summary["inline_fallbacks"] == 0

    def test_serial_report_has_no_engine_summary(self, scrnn_runs):
        report, _ = scrnn_runs["serial"]
        assert report.astra.fast_path["parallel"] is None
