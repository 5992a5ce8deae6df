"""The fleet half of the bench harness: exhaustive-vs-pruned search timing.

The same model is searched twice over the same fleet with the same seed:

* **exhaustive** -- every enumerated strategy measured, no bound
  pruning, no learned cut: the ground-truth sweep;
* **pruned** -- the production path: admissible-bound pruning against
  the measured seed strategy (``docs/distributed.md``).

Both legs are timed by :func:`repro.perf.bench.timed_run`, gated by its
:func:`~repro.perf.bench.winner_gate` and diffed by its
:func:`~repro.perf.bench.compare_bench`; this module holds only what is
fleet-specific: the leg record fields, the pruning gates and the
hetero-beats-homo gate.

Throughput is **strategies/sec**: the enumerated strategy count divided
by wall time.  Both legs share the numerator, so the strategies/sec
multiple equals the wall-clock speedup and credits pruning for retiring
strategies without measuring them.

``ok`` is false -- and ``repro fleet --bench`` exits non-zero -- if the
pruned leg's winning strategy or per-sample time differs from the
exhaustive leg's, if the pruned leg measured more than
:data:`MEASURED_FRACTION_TARGET` of the space, if nothing was pruned, or
if pruning stood down on a clean run; these gates are deterministic and
apply on every run.  On a heterogeneous fleet at the full batch the
exhaustive leg additionally gates the paper's claim itself: the winner
must be a mixed placement that beats the best homogeneous one.  A quick
run disarms that gate (see :func:`bench_fleet`).
``BENCH_fleet_<model>.json`` is the serialized document.
"""

from __future__ import annotations

from ..models import MODEL_BUILDERS, model_config
from ..perf.bench import Winner, _ratio, timed_run, winner_gate
from .search import run_fleet_search
from .spec import get_fleet

FLEET_BENCH_VERSION = 1

#: maximum fraction of the enumerated strategies the pruned leg may
#: measure; deterministic on the simulator, so it applies on every host,
#: quick runs included
MEASURED_FRACTION_TARGET = 0.5


def _winner(leg: str, report) -> Winner:
    return Winner(leg, report.winner.key(), report.winner_per_sample_us,
                  report.winner.label)


def _record(run) -> dict:
    report, total = run.report, run.report.strategies_total
    return {
        "wall_s": run.wall_s,
        "strategies_total": total,
        "strategies_measured": report.strategies_measured,
        "strategies_pruned": report.strategies_pruned,
        "measured_fraction": report.measured_fraction,
        "strategies_per_sec": _ratio(total, run.wall_s),
        "winner": report.winner.label,
        "winner_per_sample_us": report.winner_per_sample_us,
        "winner_hetero": report.hetero_winner,
        "standdown": report.standdown,
        "best_homogeneous_us": report.best_homogeneous_us,
        "best_homogeneous_label": report.best_homogeneous_label,
        "best_homogeneous_measured": report.best_homogeneous_measured,
    }


def verify_search(report, exhaustive) -> tuple[dict, list[str]]:
    """``repro fleet``'s default verify: the pruned ``report`` against an
    ``exhaustive`` sweep of the same search."""
    winner_match, failures = winner_gate(
        _winner("exhaustive", exhaustive), _winner("pruned", report)
    )
    if report.standdown is None and report.strategies_pruned <= 0:
        failures.append("bound pruning retired 0 strategies on a clean run")
    return {
        "winner_match": winner_match,
        "exhaustive_winner": exhaustive.winner.label,
        "exhaustive_per_sample_us": exhaustive.winner_per_sample_us,
        "exhaustive_measured": exhaustive.strategies_measured,
    }, failures


def bench_fleet(
    name: str,
    *,
    batch: int = 256,
    seq_len: int = 5,
    fleet_name: str = "hetero",
    seed: int = 0,
    workers: int = 1,
    microbatches: int = 4,
    quick: bool = False,
) -> dict:
    """Run the exhaustive / pruned comparison and assemble the document.

    The winner, pruning and measured-fraction gates are deterministic
    (the simulator is noise-free) and apply on every host, quick runs
    included.  The hetero-beats-homo gate applies to full runs only: at
    the quick batch the optimal strategy is legitimately homogeneous.
    """
    config = model_config(name, batch, seq_len)
    builder, fleet = MODEL_BUILDERS[name], get_fleet(fleet_name)

    def leg(exhaustive: bool):
        return timed_run(lambda clock: run_fleet_search(
            builder, config, fleet, model_name=name, exhaustive=exhaustive,
            seed=seed, workers=workers, microbatches=microbatches,
        ))

    exhaustive, pruned = leg(True), leg(False)
    exhaustive_rec, pruned_rec = _record(exhaustive), _record(pruned)
    winner_match, failures = winner_gate(
        _winner("exhaustive", exhaustive.report),
        _winner("pruned", pruned.report),
    )
    multiple = _ratio(pruned_rec["strategies_per_sec"],
                      exhaustive_rec["strategies_per_sec"])
    if pruned_rec["standdown"] is not None:
        failures.append(
            f"pruning stood down on a clean run ({pruned_rec['standdown']})"
        )
    if pruned_rec["strategies_pruned"] <= 0:
        failures.append("bound pruning retired 0 strategies")
    if pruned_rec["measured_fraction"] > MEASURED_FRACTION_TARGET:
        failures.append(
            f"pruned leg measured {pruned_rec['strategies_measured']} of "
            f"{pruned_rec['strategies_total']} strategies "
            f"({pruned_rec['measured_fraction'] * 100:.0f}%; target <= "
            f"{MEASURED_FRACTION_TARGET * 100:.0f}%)"
        )
    if multiple <= 0.0:
        failures.append("strategies/sec multiple is zero (a leg was untimed)")

    hetero_gate = "skipped: homogeneous fleet"
    if fleet.heterogeneous and quick:
        # At the quick batch the optimal strategy is legitimately a
        # homogeneous V100 pair (communication dwarfs the P100 compute
        # contribution), so the hetero-beats-homo claim only holds -- and
        # is only gated -- at the full-size batch.
        hetero_gate = "skipped: quick config (hetero advantage needs full batch)"
    elif fleet.heterogeneous:
        hetero_gate = "exhaustive winner is heterogeneous and beats best homogeneous"
        if not exhaustive_rec["winner_hetero"]:
            failures.append(
                f"exhaustive winner {exhaustive_rec['winner']} is homogeneous "
                f"on the {fleet_name} fleet"
            )
        elif (
            exhaustive_rec["best_homogeneous_us"] is not None
            and exhaustive_rec["winner_per_sample_us"]
            >= exhaustive_rec["best_homogeneous_us"]
        ):
            failures.append(
                f"heterogeneous winner {exhaustive_rec['winner']} "
                f"({exhaustive_rec['winner_per_sample_us']:.3f} us) does not "
                f"beat best homogeneous "
                f"{exhaustive_rec['best_homogeneous_label']} "
                f"({exhaustive_rec['best_homogeneous_us']:.3f} us)"
            )

    return {
        "version": FLEET_BENCH_VERSION,
        "model": name,
        "batch": batch,
        "seq_len": seq_len,
        "fleet": fleet_name,
        "seed": seed,
        "workers": workers,
        "microbatches": microbatches,
        "quick": quick,
        "measured_fraction_target": MEASURED_FRACTION_TARGET,
        "legs": {"exhaustive": exhaustive_rec, "pruned": pruned_rec},
        "winner_match": winner_match,
        "strategies_per_sec_multiple": multiple,
        "hetero_gate": hetero_gate,
        "failures": failures,
        "ok": not failures,
    }


def render_fleet_bench(doc: dict) -> str:
    """Human-readable summary of a fleet bench document."""
    lines = [
        f"fleet bench {doc['model']}  batch={doc['batch']} "
        f"seq={doc['seq_len']} fleet={doc['fleet']} seed={doc['seed']} "
        f"workers={doc['workers']}"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'leg':>10}  {'wall(s)':>8}  {'measured':>8}  {'pruned':>6}  "
        f"{'frac%':>5}  {'strat/s':>8}  winner",
    ]
    for leg_name, leg in doc["legs"].items():
        lines.append(
            f"{leg_name:>10}  {leg['wall_s']:8.3f}  "
            f"{leg['strategies_measured']:4d}/{leg['strategies_total']:<3d}  "
            f"{leg['strategies_pruned']:6d}  "
            f"{leg['measured_fraction'] * 100:5.1f}  "
            f"{leg['strategies_per_sec']:8.2f}  "
            f"{leg['winner']} ({leg['winner_per_sample_us']:.3f} us/sample)"
        )
    lines.append(
        f"strategies/sec multiple: "
        f"{doc['strategies_per_sec_multiple']:.2f}x  "
        f"winner {'match' if doc['winner_match'] else 'DIVERGED'}  "
        f"hetero gate: {doc['hetero_gate']}"
    )
    if doc["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in doc["failures"])
    else:
        lines.append(
            f"ok: identical winner, measured <= "
            f"{doc['measured_fraction_target'] * 100:.0f}% of the space"
        )
    return "\n".join(lines)
