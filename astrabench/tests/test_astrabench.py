"""The benchmark's own tests.

    python3 -m pytest astrabench/tests -q

They need no ``repro`` import: job lists, the output check, the span
arithmetic and the metric names are plain Python.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from check import check_outcome, load_reference  # noqa: E402
from workloads import WORKLOADS, job_key, job_list, pool  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs_and_other_seed_other_jobs(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_drawn_job_has_a_reference(workload):
    reference = load_reference()
    keys = {job_key(job) for job in pool(workload)}
    for seed in range(20):
        assert {job_key(job) for job in job_list(workload, seed)} <= keys
    assert keys <= set(reference)


def test_serve_sequence_is_one_third_first_seen():
    sequence = job_list("serve_warm", 3)
    keys = [job_key(job) for job in sequence]
    first_seen = [i for i, key in enumerate(keys) if key not in keys[:i]]
    assert first_seen[0] == 0
    assert len(first_seen) * 3 == len(sequence)


def _span(sid, name, start, end, parent=None, remote=False):
    return tracing.Span(sid, name, start, end, parent=parent, remote=remote)


def test_self_time_of_a_hand_built_tree():
    root = _span(0, "bench.job", 0.0, 10.0)
    a = _span(1, "core.explore", 1.0, 6.0, root)
    a1 = _span(2, "runtime.execute", 2.0, 3.0, a)
    a2 = _span(3, "runtime.execute", 4.0, 5.5, a)
    a2x = _span(4, "gpu.simulate.conc", 4.5, 5.0, a2)
    b = _span(5, "baselines.native", 7.0, 9.0, root)
    spans = [root, a, a1, a2, a2x, b]
    charged = tracing.self_times(spans)
    assert charged == pytest.approx({
        0: 10.0 - 5.0 - 2.0, 1: 5.0 - 1.0 - 1.5, 2: 1.0, 3: 1.0, 4: 0.5,
        5: 2.0,
    })
    assert sum(charged.values()) == pytest.approx(root.duration)


def test_remote_child_takes_precedence_and_is_clipped():
    # a daemon-side job overlapping the client's submit and wait spans,
    # and sticking out past the client's job span
    root = _span(0, "bench.job", 0.0, 10.0)
    submit = _span(1, "serve.submit", 0.0, 2.0, root)
    wait = _span(2, "serve.wait", 2.0, 10.0, root)
    job = _span(3, "serve.job", 1.0, 11.0, root, remote=True)
    charged = tracing.self_times([root, submit, wait, job])
    assert charged == pytest.approx({0: 0.0, 1: 1.0, 2: 0.0, 3: 9.0})
    rows = dict(tracing.layer_table([root, submit, wait, job], 12.0))
    assert rows["serve"] == pytest.approx(10.0)
    assert rows["unattributed"] == pytest.approx(2.0)


def test_chrome_trace_of_recorded_spans():
    recorder = tracing.SpanRecorder()
    with recorder.span("bench.job", job="j0"):
        with recorder.span("ir.trace"):
            pass
    doc = tracing.chrome_trace(recorder)
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["bench.job", "ir.trace"]
    assert complete[1]["args"]["parent"] == complete[0]["args"]["id"]
    assert complete[1]["args"]["job"] == "j0"
    json.dumps(doc)


def test_metric_names_and_units():
    names = [n for n, _u in run.END_TO_END] + [n for n, _u in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [n for n, _u in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == \
        [n for n, _u in run.PER_LAYER]
    assert [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]] == \
        [u for _n, u in run.END_TO_END + run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_output_check_flags_an_altered_winner():
    reference = load_reference()
    session_key = job_key(job_list("fusion_zoo", 0)[0])
    fleet_key = job_key(job_list("fleet_search", 0)[0])
    for key in (session_key, fleet_key):
        outcome = copy.deepcopy(reference[key])
        assert check_outcome(key, outcome, reference) == []
        altered = copy.deepcopy(reference)
        if "strategy" in altered[key]:
            altered[key]["strategy"] += "-other"
        else:
            name = sorted(altered[key]["assignment"])[0]
            altered[key]["assignment"][name] += "-other"
        assert check_outcome(key, outcome, altered)
        slower = copy.deepcopy(reference)
        field = ("winner_per_sample_us" if "strategy" in slower[key]
                 else "best_time_us")
        slower[key][field] = slower[key][field] * (1 + 1e-15) + 1e-12
        assert check_outcome(key, outcome, slower)
    assert check_outcome("no/such/job", {}, reference)
