"""The output check: every job's winner against the committed reference.

``reference.json`` holds, per job key, the winner the exhaustive search
found (``make_reference.py``): for a session or serve job the assignment
of every adaptive variable, ``best_time_us``, ``configs_explored`` and
``exploration_time_us``; for a fleet job the winning strategy label,
``winner_per_sample_us`` and ``strategies_measured``.

A timed path passes when it finds the same winner, byte-exact, and
never spends more exploration than the exhaustive path did.  Pruning
and warm starts may legitimately spend less, so the exploration counts
are upper bounds; the winner and its time are compared exactly.
"""

from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["jobs"]


def winner_of(outcome: dict) -> tuple:
    """The part of an outcome that must match exactly."""
    if "strategy" in outcome:
        return outcome["strategy"], outcome["winner_per_sample_us"]
    return outcome["assignment"], outcome["best_time_us"]


def check_outcome(key: str, outcome: dict, reference: dict) -> list[str]:
    """Mismatches of one job's outcome against its reference entry; an
    empty list means the job passed."""
    ref = reference.get(key)
    if ref is None:
        return [f"{key}: no reference entry"]
    problems = []
    if "strategy" in ref:
        if outcome.get("strategy") != ref["strategy"]:
            problems.append(f"{key}: winner {outcome.get('strategy')!r} "
                            f"!= reference {ref['strategy']!r}")
        if outcome.get("winner_per_sample_us") != ref["winner_per_sample_us"]:
            problems.append(
                f"{key}: winner_per_sample_us "
                f"{outcome.get('winner_per_sample_us')!r} != reference "
                f"{ref['winner_per_sample_us']!r}")
        if outcome.get("strategies_measured", 0) > ref["strategies_measured"]:
            problems.append(f"{key}: measured more strategies than the "
                            f"exhaustive search")
        return problems
    if outcome.get("assignment") != ref["assignment"]:
        differing = sorted(
            name for name in set(ref["assignment"]) | set(
                outcome.get("assignment") or {})
            if (outcome.get("assignment") or {}).get(name)
            != ref["assignment"].get(name)
        )
        problems.append(f"{key}: assignment differs on {differing[:5]}")
    if outcome.get("best_time_us") != ref["best_time_us"]:
        problems.append(f"{key}: best_time_us {outcome.get('best_time_us')!r}"
                        f" != reference {ref['best_time_us']!r}")
    if "exploration_time_us" in outcome and (
        outcome["exploration_time_us"] != ref["exploration_time_us"]
    ):
        problems.append(
            f"{key}: exploration_time_us {outcome['exploration_time_us']!r}"
            f" != reference {ref['exploration_time_us']!r}")
    if outcome.get("configs_explored", 0) > ref["configs_explored"]:
        problems.append(
            f"{key}: configs_explored {outcome['configs_explored']} > "
            f"exhaustive {ref['configs_explored']}")
    return problems
