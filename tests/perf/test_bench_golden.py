"""Golden for the bench documents' deterministic content.

``tests/data/bench_doc_golden.json`` pins three documents:

* the quick session bench, ``bench_model("scrnn", batch=4, seq_len=3,
  budget=200, quick=True)``: baseline, fast, parallel and warm legs;
* the quick fleet bench, ``bench_fleet("scrnn", batch=64, quick=True)``:
  exhaustive and pruned legs;
* the ``verify`` block of ``repro fleet scrnn --quick --json``.

Every key is pinned, and so is every value except those read from the
wall clock or the host (:data:`MASKED`): those keep their key and have
their value replaced by ``"<masked>"``.  Winners, epoch and per-sample
times, configuration and strategy counts, cache statistics, gate texts
and failures are compared exactly.

Regenerating after an *intentional* document change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/perf/test_bench_golden.py

then review the diff of ``tests/data/bench_doc_golden.json``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet import bench_fleet
from repro.perf.bench import bench_model

PATH = Path(__file__).resolve().parent.parent / "data" / "bench_doc_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: keys whose values come from the wall clock or the host
MASKED = {
    # timed legs and the ratios between them
    "wall_s", "phase_total_s", "configs_per_sec", "configs_per_sec_ratio",
    "wall_speedup", "parallel_ratio", "warm_speedup", "learned_speedup",
    "strategies_per_sec", "strategies_per_sec_multiple",
    # the parallel engine's own timers and the host's pool choice
    "worker_busy_s", "dispatch_s", "pool_startup_s", "pool",
    "host_cpus",
}


def _mask(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in MASKED
            else dict.fromkeys(sub, "<masked>") if key == "phases_s"
            else _mask(sub)
            for key, sub in value.items()
        }
    if isinstance(value, list):
        return [_mask(v) for v in value]
    return value


def _fleet_verify(capsys):
    capsys.readouterr()
    assert main(["fleet", "scrnn", "--quick", "--json"]) == 0
    return json.loads(capsys.readouterr().out)["verify"]


def _build(capsys):
    return {
        "bench_scrnn_quick": bench_model(
            "scrnn", batch=4, seq_len=3, budget=200, quick=True
        ),
        "bench_fleet_scrnn_quick": bench_fleet("scrnn", batch=64, quick=True),
        "fleet_verify_scrnn_quick": _fleet_verify(capsys),
    }


def test_bench_documents_match_golden(capsys):
    actual = json.loads(json.dumps(_mask(_build(capsys))))
    if REGEN:
        PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    if not PATH.exists():
        pytest.fail(
            f"golden file {PATH} missing; generate it with "
            "REPRO_REGEN_GOLDEN=1 (see module docstring)"
        )
    expected = json.loads(PATH.read_text())
    assert sorted(actual) == sorted(expected)
    for name in sorted(expected):
        assert actual[name] == expected[name], (
            f"{name} diverged; if the document change is intentional, "
            "regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
        )
