#!/usr/bin/env python3
"""Regenerate ``reference.json``: every poolable job's winner, found by
the exhaustive path.

    python3 astrabench/make_reference.py            # rewrite reference.json
    python3 astrabench/make_reference.py --verify   # also diff the fast path

Session and serve jobs run ``AstraSession`` with
``FastPath(cache=False, prune=False)``: from-scratch lowering and no
pre-ranker, so the reference does not come from the fast path the
benchmark times.  Fleet jobs run ``run_fleet_search(exhaustive=True)``
serially.  ``--verify`` then runs the timed paths over the same pool and
reports every job the output check would fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs as runners  # noqa: E402
from check import REFERENCE_PATH, check_outcome  # noqa: E402
from workloads import FLEET_WORKERS, WORKLOADS, job_key, pool  # noqa: E402


def exhaustive_outcome(job: dict) -> dict:
    if "fleet" in job:
        from repro.fleet import get_fleet, run_fleet_search

        builder, config = runners.build_model(job)
        report = run_fleet_search(
            builder, config, get_fleet(job["fleet"]), model_name=job["model"],
            workers=1, use_astra=True, exhaustive=True,
        )
        return {
            "strategy": report.winner.label,
            "winner_per_sample_us": report.winner_per_sample_us,
            "strategies_measured": report.strategies_measured,
        }
    from repro.perf import FastPath

    _setup, _wall, outcome = runners.run_session_job(
        job, FastPath(cache=False, prune=False))
    del outcome["explore_sim_us"]
    return outcome


def timed_outcome(job: dict, workload: str) -> dict:
    """What the benchmark's timed path returns for ``job``."""
    if "fleet" in job:
        return runners.run_fleet_job(job, FLEET_WORKERS)[2]
    from repro.perf import FastPath

    # serve jobs run the library default (cache on, prune off)
    fast = (FastPath() if workload == "serve_warm"
            else FastPath(cache=True, prune=True))
    return runners.run_session_job(job, fast)[2]


def write_reference(entries: dict) -> None:
    """One job per line, sorted, so a regenerated file diffs by job."""
    lines = [f"  {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    with open(REFERENCE_PATH, "w") as fh:
        fh.write('{"generated_by": "astrabench/make_reference.py",\n'
                 ' "jobs": {\n' + ",\n".join(lines) + "\n}}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)

    entries = {}
    for workload in WORKLOADS:
        for job in pool(workload):
            key = job_key(job)
            if key in entries:
                continue
            start = time.perf_counter()
            entries[key] = exhaustive_outcome(job)
            print(f"{key}: {time.perf_counter() - start:.2f}s", flush=True)
    write_reference(entries)

    bad = 0
    if args.verify:
        for workload in WORKLOADS:
            for job in pool(workload):
                key = job_key(job)
                outcome = timed_outcome(job, workload)
                problems = check_outcome(key, outcome, entries)
                bad += bool(problems)
                for problem in problems:
                    print(f"MISMATCH {problem}", flush=True)
        print(f"verify: {bad} mismatching job(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
