"""The bench harness: timed legs, one winner gate, one regression compare.

``repro bench`` optimizes a model several times with the same graph,
device, seed and budget, once per **leg**:

* **baseline** -- ``FastPath(cache=False, prune=False)``: the exhaustive
  path, every plan lowered from scratch;
* **fast** -- ``FastPath(cache=True, prune=True)``: the compilation
  cache plus cost-model pruning;
* for the primary variant, **parallel** (the fast configuration on N
  measurement workers), **warm** (the fast configuration rerun against
  the profile store an untimed rerun populated -- the
  optimization-as-a-service path of ``docs/serving.md``) and, given a
  cost-model artifact, **learned** (the learned top-k ranker armed).

``repro fleet --bench`` (:mod:`repro.fleet.bench`) runs the exhaustive
and bound-pruned fleet strategy searches through the same pieces:

* :func:`timed_run` -- the one wall-clock path.  It clears the
  process-wide memos, so no leg inherits another's warmth, and wraps the
  leg in a :class:`~repro.perf.timers.PhaseClock` whose exclusive phases
  (``enumerate`` / ``prerank`` / ``lower`` / ``validate`` / ``simulate``
  / ``explore`` / ``other``) sum to the timed wall.  The paper-table
  harness (``benchmarks/harness.py``) times its runs through
  :func:`timed_session_run` as well;
* :func:`winner_gate` -- the exactness watchdog: a candidate leg must
  land on the reference leg's winner at exactly the reference's time.
  Every leg pair and ``repro fleet``'s default verify use it, and any
  failure makes ``ok`` false and the command exit non-zero;
* :func:`compare_bench` / :func:`render_compare` -- the regression gate
  of ``--compare`` for both document kinds: the baseline must describe
  the same job, winners must be identical, and the machine-relative
  throughput ratio may not drop by more than :data:`REGRESSION_THRESHOLD`.

Throughput is reported as **configs/sec**: the number of configuration
choices the search space contained *before* pruning, divided by wall
time.  Both legs share that numerator, so the configs/sec ratio equals
the wall-clock speedup -- pruning is credited for retiring choices
without measuring them, which is exactly its job.  ``BENCH_<model>.json``
is the serialized document; see ``docs/performance.md`` for how to read
it.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial

from ..core.session import AstraSession
from ..gpu import DEVICES
from ..gpu.device import GPUSpec
from ..models import build_model
from ..obs.metrics import MetricsRegistry
from .ranker import FastPath
from .timers import PhaseClock

BENCH_VERSION = 4

#: the variant the acceptance gate applies to: the fusion+kernel phase is
#: where both the cache and the pre-ranker bite (the stream phase's epoch
#: metric is not prunable, so ``all`` runs are simulator-bound)
PRIMARY_VARIANT = "FK"

DEFAULT_VARIANTS = (PRIMARY_VARIANT, "all")

#: minimum configs/sec ratio (fast vs baseline) a full-scale run of the
#: primary variant must show; ``--quick`` runs skip this timing gate
SPEEDUP_TARGET = 2.0

#: minimum configs/sec ratio (parallel vs fast) a full-scale run must
#: show -- enforced only when the host actually has at least ``workers``
#: CPU cores: process workers time-slicing one core cannot speed anything
#: up, and a bench gate must not assert physics the machine forbids.  The
#: equivalence gates (identical winner, identical epoch time) apply on
#: every host, always.
PARALLEL_SPEEDUP_TARGET = 3.0

#: worker count for the bench's parallel leg
DEFAULT_WORKERS = 4

#: maximum fraction of the cold run's measured configurations a
#: warm-started rerun may measure (the warm leg's acceptance gate);
#: deterministic on the simulator, so it applies on every host
WARM_CONFIGS_TARGET = 0.5

#: maximum fraction of the exhaustive baseline's measured configurations
#: the learned-top-k leg may measure (docs/learning.md); deterministic,
#: applies on every host
LEARNED_CONFIGS_TARGET = 0.5

#: maximum |model - what-if| relative disagreement the learned leg's
#: cross-check may report (mirrors ``LearnedGate.whatif_rel_gate``)
LEARNED_WHATIF_GATE = 0.05

BASELINE_FAST_PATH = FastPath(cache=False, prune=False)
FAST_FAST_PATH = FastPath(cache=True, prune=True)


def _clear_process_memos() -> None:
    """Reset process-wide memos so every timed leg starts cold.

    Without this, whichever leg runs first warms the GEMM-plan and
    kernel-key memos for the second -- the comparison must not depend on
    run order.
    """
    from ..gpu import libraries
    from . import signature

    libraries._PLAN_MEMO.clear()
    signature._KERNEL_KEY_MEMO.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class Winner:
    """One leg's answer, as :func:`winner_gate` compares it."""

    #: the leg's name in failure messages
    leg: str
    #: the winning configuration, compared with ``==``
    key: object
    #: the winner's time, compared exactly
    time_us: float
    #: a readable winner for failure messages ("" when ``key`` is too long)
    label: str = ""

    def named(self) -> str:
        return f"{self.leg} winner" + (
            f" {self.label} ({self.time_us:.3f} us)" if self.label else ""
        )


def winner_gate(ref: Winner, cand: Winner,
                scope: str = "") -> tuple[bool, list[str]]:
    """The one winner-identity gate: ``cand`` must land on ``ref``'s winner.

    Both the winning configuration and its time must be *exactly* equal
    -- the fast path, the engine, the store, the learned ranker and bound
    pruning all claim bit-identical winners, not statistically similar
    ones.  Returns ``(match, failures)``; ``scope`` prefixes the failure
    messages (the variant name).
    """
    prefix = f"{scope}: " if scope else ""
    failures = []
    if cand.key != ref.key:
        failures.append(f"{prefix}{cand.named()} diverged from {ref.named()}")
    if cand.time_us != ref.time_us:
        failures.append(
            f"{prefix}{cand.leg} winner time diverged "
            f"({ref.leg} {ref.time_us} us, {cand.leg} {cand.time_us} us)"
        )
    return not failures, failures


@dataclass
class BenchRun:
    """One timed leg: its result plus its timing instruments."""

    report: object
    clock: PhaseClock
    wall_s: float

    def winner(self, leg: str) -> Winner:
        """A session leg's winning assignment and final epoch time."""
        return Winner(
            leg,
            {k: repr(v) for k, v in self.report.astra.assignment.items()},
            self.report.best_time_us,
        )

    def record(self) -> dict:
        """A session leg's document record."""
        fast_path = self.report.astra.fast_path
        choices = fast_path.get("choices_total", 0)
        return {
            "wall_s": self.wall_s,
            "phase_total_s": self.clock.total_s,
            "phases_s": dict(sorted(self.clock.seconds.items())),
            "configs_per_sec": _ratio(choices, self.wall_s),
            "choices_total": choices,
            "choices_pruned": fast_path.get("choices_pruned", 0),
            "configs_explored": self.report.configs_explored,
            "best_time_us": self.report.best_time_us,
            "native_time_us": self.report.native_time_us,
            "speedup_over_native": self.report.speedup_over_native,
            "cache": fast_path.get("cache"),
            "engine": fast_path.get("parallel"),
            "warm": dict(self.report.warm),
            "learned": fast_path.get("learned"),
        }


def timed_run(run) -> BenchRun:
    """Time one leg, ``run(clock)``, from a cold start.

    The one wall-clock path of every bench leg.  The clock's outer
    ``other`` phase covers everything the leg does not attribute to a
    finer phase, so the exclusive phase times always sum to the timed
    wall clock (pinned by the harness-timing regression test).
    """
    _clear_process_memos()
    clock = PhaseClock()
    start = time.perf_counter()
    with clock.phase("other"):
        report = run(clock)
    return BenchRun(report=report, clock=clock,
                    wall_s=time.perf_counter() - start)


def timed_session_run(
    model,
    *,
    features: str = PRIMARY_VARIANT,
    device: GPUSpec | None = None,
    seed: int = 1,
    budget: int = 3000,
    fast: FastPath | None = None,
    workers: int | None = None,
    store=None,
    learned=None,
) -> BenchRun:
    """Optimize ``model`` once through :func:`timed_run`.

    Session construction is inside the timed wall.  So is the parallel
    leg's pool lifetime -- spawn through shutdown: using workers costs
    their startup.  A ``store`` makes the run a warm-start participant
    (docs/serving.md): seeding from the store and publishing back are
    both inside the timed wall, so the warm leg pays for its own I/O.
    """
    def run(clock):
        session = AstraSession(
            model, device=device if device is not None else DEVICES["P100"],
            features=features, seed=seed, metrics=MetricsRegistry(),
            fast=fast, clock=clock, workers=workers, store=store,
            learned=learned,
        )
        try:
            return session.optimize(max_minibatches=budget)
        finally:
            session.close()

    return timed_run(run)


def bench_model(
    name: str,
    *,
    batch: int = 16,
    seq_len: int = 5,
    device_name: str = "P100",
    seed: int = 1,
    budget: int = 3000,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    quick: bool = False,
    workers: int = DEFAULT_WORKERS,
    learned=None,
) -> dict:
    """Run the baseline / fast / parallel / warm / learned legs and
    assemble the document.

    ``quick`` restricts the sweep to the primary variant and waives the
    configs/sec targets (CI smoke must not gate on machine speed); the
    exactness and cache-effectiveness guards always apply.  The primary
    variant's extra legs and their gates are described at
    :func:`_parallel_leg` (``workers`` > 0), :func:`_warm_leg` and
    :func:`_learned_leg` (when ``learned`` names a cost-model artifact).
    """
    model = build_model(name, batch, seq_len)
    device = DEVICES[device_name]
    if quick:
        variants = (PRIMARY_VARIANT,)
    host_cpus = os.cpu_count() or 1

    failures: list[str] = []
    variant_docs: dict[str, dict] = {}
    for variant in variants:
        run = partial(timed_session_run, model, features=variant,
                      device=device, seed=seed, budget=budget)
        base, fast = run(fast=BASELINE_FAST_PATH), run(fast=FAST_FAST_PATH)
        vdoc = variant_docs[variant] = _fast_leg(variant, base, fast, failures)
        if variant != PRIMARY_VARIANT:
            continue
        if workers:
            vdoc.update(_parallel_leg(
                fast, run(fast=FAST_FAST_PATH, workers=workers), workers,
                host_cpus, quick, failures,
            ))
        # populate run: identical job, untimed, against a fresh store --
        # the fast leg stays store-free so its wall time remains
        # comparable to committed (pre-warm-leg) baselines, which the
        # serve import cost would otherwise contaminate
        with tempfile.TemporaryDirectory(prefix="astra-bench-store-") as store:
            run(fast=FAST_FAST_PATH, store=store)
            warm = run(fast=FAST_FAST_PATH, store=store)
        vdoc.update(_warm_leg(fast, warm, failures))
        if learned is not None:
            vdoc.update(_learned_leg(
                base, run(fast=FAST_FAST_PATH, learned=learned), failures,
            ))

    primary = variant_docs.get(PRIMARY_VARIANT)
    if primary is not None:
        if primary["cache_hit_rate"] <= 0.0:
            failures.append(f"{PRIMARY_VARIANT}: cache hit rate is 0")
        if not quick and primary["configs_per_sec_ratio"] < SPEEDUP_TARGET:
            failures.append(
                f"{PRIMARY_VARIANT}: configs/sec ratio "
                f"{primary['configs_per_sec_ratio']:.2f} below the "
                f"{SPEEDUP_TARGET:.1f}x target"
            )

    return {
        "version": BENCH_VERSION,
        "model": name,
        "batch": batch,
        "seq_len": seq_len,
        "device": device_name,
        "seed": seed,
        "budget": budget,
        "quick": quick,
        "workers": workers,
        "host_cpus": host_cpus,
        "primary_variant": PRIMARY_VARIANT,
        "speedup_target": SPEEDUP_TARGET,
        "parallel_speedup_target": PARALLEL_SPEEDUP_TARGET,
        "warm_configs_target": WARM_CONFIGS_TARGET,
        "variants": variant_docs,
        "failures": failures,
        "ok": not failures,
    }


def _fast_leg(variant: str, base: BenchRun, fast: BenchRun,
              failures: list[str]) -> dict:
    """Record and gate the fast leg against the exhaustive baseline."""
    base_rec, fast_rec = base.record(), fast.record()
    exhaustive, pruned = base.winner("exhaustive"), fast.winner("pruned")
    match, diverged = winner_gate(exhaustive, pruned, scope=variant)
    failures.extend(diverged)
    return {
        "baseline": base_rec,
        "fast": fast_rec,
        "configs_per_sec_ratio": _ratio(
            fast_rec["configs_per_sec"], base_rec["configs_per_sec"]
        ),
        "wall_speedup": _ratio(base_rec["wall_s"], fast_rec["wall_s"]),
        "cache_hit_rate": (fast_rec["cache"] or {}).get("hit_rate", 0.0),
        "winner_match": match,
        "assignment_match": exhaustive.key == pruned.key,
        "best_time_match": exhaustive.time_us == pruned.time_us,
        "winning_assignment": pruned.key,
    }


def _warm_leg(fast: BenchRun, warm: BenchRun, failures: list[str]) -> dict:
    """Record and gate the warm-start leg against the serial fast leg.

    An untimed populate run filled the store; the warm leg reruns the
    identical job against it.  All three gates are deterministic (the
    simulator is noise-free), so they apply on every host, quick runs
    included:

    * the warm run's winning assignment and final epoch time must equal
      the fast run's exactly -- warm-starting claims bit-identical
      convergence, not approximate reuse;
    * the warm run must *measure* at most :data:`WARM_CONFIGS_TARGET`
      (50%) of the configurations the cold run measured -- the point of
      the store is retiring measurements, and a fully matching index
      retires essentially all of them;
    * the warm run must actually have seeded entries -- a warm leg that
      silently ran cold (store misconfigured, digest mismatch) would
      otherwise pass the identity gates vacuously.
    """
    match, diverged = winner_gate(fast.winner("cold fast"), warm.winner("warm"))
    failures.extend(diverged)
    fast_rec, warm_rec = fast.record(), warm.record()
    seeded = (warm_rec["warm"] or {}).get("seeded_entries", 0)
    fraction = _ratio(warm_rec["configs_explored"], fast_rec["configs_explored"])
    if fraction > WARM_CONFIGS_TARGET:
        failures.append(
            f"warm: measured {warm_rec['configs_explored']} of "
            f"{fast_rec['configs_explored']} cold configurations "
            f"({fraction * 100:.0f}%; target <= "
            f"{WARM_CONFIGS_TARGET * 100:.0f}%)"
        )
    if seeded <= 0:
        failures.append("warm: store seeded 0 entries (warm leg ran cold)")
    return {
        "warm": warm_rec,
        "warm_speedup": _ratio(fast_rec["wall_s"], warm_rec["wall_s"]),
        "warm_configs_fraction": fraction,
        "warm_seeded_entries": seeded,
        "warm_winner_match": match,
        "warm_gate": (
            f"<= {WARM_CONFIGS_TARGET * 100:.0f}% of cold configs, "
            f"identical winner"
        ),
    }


def _learned_leg(base: BenchRun, lrn: BenchRun, failures: list[str]) -> dict:
    """Record and gate the learned-top-k leg against the exhaustive baseline.

    The learned ranker claims it can retire most of the search space
    without moving the answer (docs/learning.md).  All gates are
    deterministic (the simulator is noise-free) and apply on every host,
    quick runs included:

    * the learned run's winning assignment and final epoch time must
      equal the **exhaustive baseline's** exactly -- not merely the fast
      leg's: the model rides on top of the FK pre-ranker, and the claim
      is against ground truth;
    * the learned run must measure at most
      :data:`LEARNED_CONFIGS_TARGET` (50%) of the configurations the
      exhaustive baseline measured;
    * the model must actually have pruned choices -- a leg whose model
      was rejected or declined everywhere would otherwise pass the
      identity gates vacuously (the "non-zero hit rate" guard);
    * the what-if cross-check must have run (non-zero checks) and agree
      within :data:`LEARNED_WHATIF_GATE` on the critical kernels.
    """
    base_rec, lrn_rec = base.record(), lrn.record()
    summary = lrn_rec.get("learned") or {}
    whatif = summary.get("whatif") or {}
    fraction = _ratio(lrn_rec["configs_explored"], base_rec["configs_explored"])
    if summary.get("rejected"):
        failures.append(
            f"learned: model artifact rejected ({summary['rejected']})"
        )
    match, diverged = winner_gate(base.winner("exhaustive"), lrn.winner("learned"))
    failures.extend(diverged)
    if fraction > LEARNED_CONFIGS_TARGET:
        failures.append(
            f"learned: measured {lrn_rec['configs_explored']} of "
            f"{base_rec['configs_explored']} exhaustive configurations "
            f"({fraction * 100:.0f}%; target <= "
            f"{LEARNED_CONFIGS_TARGET * 100:.0f}%)"
        )
    if summary.get("choices_pruned", 0) <= 0:
        failures.append(
            "learned: model pruned 0 choices (hit rate is zero; skips: "
            f"{summary.get('skips', {})})"
        )
    if whatif.get("checked", 0) <= 0:
        failures.append("learned: what-if cross-check ran 0 checks")
    elif not whatif.get("ok", False) or (
        whatif.get("max_rel_error", 0.0) > LEARNED_WHATIF_GATE
    ):
        failures.append(
            f"learned: what-if disagreement "
            f"{whatif.get('max_rel_error', 0.0) * 100:.1f}% above the "
            f"{LEARNED_WHATIF_GATE * 100:.0f}% gate"
        )
    return {
        "learned": lrn_rec,
        "learned_speedup": _ratio(base_rec["wall_s"], lrn_rec["wall_s"]),
        "learned_configs_fraction": fraction,
        "learned_winner_match": match,
        "learned_choices_pruned": summary.get("choices_pruned", 0),
        "learned_whatif_checked": whatif.get("checked", 0),
        "learned_whatif_max_rel_error": whatif.get("max_rel_error", 0.0),
        "learned_model_fingerprint": summary.get("fingerprint"),
        "learned_gate": (
            f"<= {LEARNED_CONFIGS_TARGET * 100:.0f}% of exhaustive "
            f"configs, identical winner, what-if within "
            f"{LEARNED_WHATIF_GATE * 100:.0f}%"
        ),
    }


def _parallel_leg(
    fast: BenchRun,
    par: BenchRun,
    workers: int,
    host_cpus: int,
    quick: bool,
    failures: list[str],
) -> dict:
    """Record and gate the parallel leg against the serial fast leg.

    The engine parallelizes the fusion+kernel trees, so the leg reruns
    the fast configuration with ``workers`` measurement workers.  Its
    gates:

    * equivalence, always, on every host: the winning assignment, final
      epoch time and explored-config count must equal the serial fast
      run's *exactly* -- a parallel engine that changes the answer is
      broken, not fast;
    * throughput, full runs only: configs/sec at least
      :data:`PARALLEL_SPEEDUP_TARGET` times the serial fast leg's, when
      the host has at least ``workers`` cores.  On smaller hosts the
      measured ratio is still recorded but the gate reports itself
      skipped (``parallel_gate``); quick runs only require the ratio to
      be non-zero (both legs completed and were timed).
    """
    leg = f"parallel@{workers}"
    match, diverged = winner_gate(fast.winner("serial fast"), par.winner(leg))
    failures.extend(diverged)
    fast_rec, par_rec = fast.record(), par.record()
    ratio = _ratio(par_rec["configs_per_sec"], fast_rec["configs_per_sec"])
    if par_rec["configs_explored"] != fast_rec["configs_explored"]:
        match = False
        failures.append(
            f"{leg}: explored {par_rec['configs_explored']} "
            f"configs, serial explored {fast_rec['configs_explored']}"
        )
    if quick:
        gate = "non-zero"
        if ratio <= 0.0:
            failures.append(f"{leg}: configs/sec ratio is zero")
    elif host_cpus >= workers:
        gate = f">= {PARALLEL_SPEEDUP_TARGET:.1f}x"
        if ratio < PARALLEL_SPEEDUP_TARGET:
            failures.append(
                f"{leg}: configs/sec ratio {ratio:.2f} below "
                f"the {PARALLEL_SPEEDUP_TARGET:.1f}x target"
            )
    else:
        gate = (
            f"skipped: host has {host_cpus} core(s) < {workers} workers"
        )
    return {
        "parallel": par_rec,
        "parallel_ratio": ratio,
        "parallel_winner_match": match,
        "parallel_gate": gate,
    }


#: maximum tolerated drop in a document's machine-relative throughput
#: ratio before ``--compare`` fails (see :func:`compare_bench`)
REGRESSION_THRESHOLD = 0.20

#: the document version that introduced each optional leg.  The compare
#: gate uses these to distinguish "this document *predates* the leg"
#: (gate skipped: committed old baselines stay loadable forever) from
#: "this document *should* carry the leg but does not" (gate reports the
#: missing leg explicitly) -- and to refuse documents that carry a leg
#: their declared version cannot: without the explicit check, a learned
#: leg diffed against a v2/v3 baseline would silently pass vacuously.
LEG_VERSIONS = {"warm": 3, "learned": 4}

#: human label per leg for failure messages
_LEG_LABELS = {"warm": "warm-start", "learned": "learned-top-k"}


def _compare_rows(doc: dict) -> tuple[str, dict[str, dict]]:
    """Either document kind as its throughput unit and comparable rows.

    A session document has one row per variant: the fast leg's winning
    assignment and configs/sec ratio over the baseline.  A fleet
    document has one row named after its fleet: the exhaustive winner
    and the pruned leg's strategies/sec multiple.
    """
    if "legs" in doc:
        legs = doc["legs"]
        return "strategies", {doc.get("fleet"): {
            "winner": legs["exhaustive"].get("winner"),
            "ratio": doc.get("strategies_per_sec_multiple", 0.0),
            "rate": legs["pruned"]["strategies_per_sec"],
        }}
    return "configs", {
        variant: {
            "winner": vdoc.get("winning_assignment"),
            "ratio": vdoc.get("configs_per_sec_ratio", 0.0),
            "rate": vdoc["fast"]["configs_per_sec"],
            "hit_rate": vdoc.get("cache_hit_rate", 0.0),
        }
        for variant, vdoc in doc.get("variants", {}).items()
    }


def compare_bench(current: dict, baseline: dict) -> dict:
    """Diff a fresh bench document against a committed baseline.

    Both document kinds -- ``BENCH_<model>.json`` and
    ``BENCH_fleet_<model>.json`` -- go through the same gate, which
    compares what is stable across machines:

    * **the job** -- the baseline must describe the same job: model,
      batch, sequence length, device and exploration budget (a fleet
      document: fleet, pipeline micro-batches and document version) and
      seed.  A mismatch is refused with the field named; nothing else is
      compared.  ``quick`` is not part of the job: CI compares a quick
      document against the committed full one;
    * **winner identity** -- the winning assignment (strategy) of every
      row both documents carry must be identical; an optimizer that
      starts picking a different plan has changed behavior, not speed;
    * **relative throughput** -- the configs/sec ratio (strategies/sec
      multiple), which divides out the host's absolute speed.  A drop
      of more than :data:`REGRESSION_THRESHOLD` (20%) in any shared row
      fails the comparison;
    * **optional legs** (warm-start, learned-top-k) -- when *both*
      documents carry the leg, its ``<leg>_speedup`` ratio (which
      divides out the host's absolute speed) must not drop by more than
      the same threshold, and the leg's winner identity must hold.
      Each leg has an explicit schema version (:data:`LEG_VERSIONS`): a
      baseline whose declared version predates the leg skips the gate
      (committed v2/v3 documents stay loadable forever), a document
      that carries a leg its declared version cannot **fails** the
      comparison, and a document new enough to carry the leg but
      missing it reports a distinct skip reason -- the learned gate can
      never silently pass against a pre-learned baseline;
    * a current document that carries its own failures fails.

    Absolute throughput and cache hit rates are reported as
    informational deltas only -- they track the machine as much as the
    code, so they never gate.
    """
    fleet = "legs" in current
    job = (
        ("version", "model", "batch", "seq_len", "fleet", "microbatches", "seed")
        if fleet else ("model", "batch", "seq_len", "device", "budget", "seed")
    )
    failures = [
        f"document mismatch: {key} is {current.get(key)!r} here, "
        f"{baseline.get(key)!r} in the committed baseline"
        for key in job if current.get(key) != baseline.get(key)
    ]
    unit, cur_rows = _compare_rows(current)
    rows: dict[str, dict] = {}
    if not failures:
        base_rows = _compare_rows(baseline)[1]
        shared = [row for row in base_rows if row in cur_rows]
        if not shared:
            failures.append(
                "no shared variants between current and baseline docs"
            )
        for row in shared:
            rows[row] = _compare_row(
                row, unit, cur_rows[row], base_rows[row], failures
            )
            if not fleet:
                for leg in LEG_VERSIONS:
                    _compare_leg(
                        row, leg, current["variants"][row],
                        baseline["variants"][row], current.get("version", 0),
                        baseline.get("version", 0), rows[row], failures,
                    )
        if current.get("ok") is False:
            failures.append("current document carries its own failures")
    return {
        "model": current.get("model"),
        "baseline_model": baseline.get("model"),
        "unit": unit,
        "threshold": REGRESSION_THRESHOLD,
        "variants": rows,
        "failures": failures,
        "ok": not failures,
    }


def _compare_row(row: str, unit: str, cur: dict, base: dict,
                 failures: list[str]) -> dict:
    """Gate one shared row's winner and throughput ratio."""
    ratio_drop = (
        1.0 - cur["ratio"] / base["ratio"] if base["ratio"] > 0 else 0.0
    )
    winner_match = cur["winner"] is not None and cur["winner"] == base["winner"]
    if not winner_match:
        failures.append(
            f"{row}: winning assignment changed vs committed baseline"
            + (f" ({base['winner']!r} -> {cur['winner']!r})"
               if isinstance(cur["winner"], str) else "")
        )
    if ratio_drop > REGRESSION_THRESHOLD:
        failures.append(
            f"{row}: {unit}/sec ratio regressed {ratio_drop * 100:.1f}% "
            f"({base['ratio']:.2f}x -> {cur['ratio']:.2f}x; "
            f"threshold {REGRESSION_THRESHOLD * 100:.0f}%)"
        )
    diff = {
        "winner_match": winner_match,
        "ratio_current": cur["ratio"],
        "ratio_baseline": base["ratio"],
        "ratio_drop": ratio_drop,
        # informational: machine-dependent, never gated
        f"{unit}_per_sec_current": cur["rate"],
        f"{unit}_per_sec_baseline": base["rate"],
    }
    if "hit_rate" in cur:
        diff["cache_hit_rate_current"] = cur["hit_rate"]
        diff["cache_hit_rate_baseline"] = base["hit_rate"]
    return diff


def _compare_leg(
    variant: str, leg: str, cur: dict, base: dict,
    cur_version: int, base_version: int, vdoc: dict, failures: list[str],
) -> None:
    """Gate one optional leg of one variant (see :func:`compare_bench`)."""
    min_version = LEG_VERSIONS[leg]
    cur_speed = cur.get(f"{leg}_speedup")
    base_speed = base.get(f"{leg}_speedup")
    vdoc[f"{leg}_speedup_current"] = cur_speed
    vdoc[f"{leg}_speedup_baseline"] = base_speed
    # a document that carries the leg while declaring a version that
    # predates it is mislabelled -- refuse it instead of comparing
    mislabelled = False
    for side, version, speed in (("current", cur_version, cur_speed),
                                 ("baseline", base_version, base_speed)):
        if speed is not None and version < min_version:
            failures.append(
                f"{variant}: {side} document declares version {version} "
                f"but carries a {leg} leg (introduced in version "
                f"{min_version})"
            )
            mislabelled = True
    if mislabelled:
        vdoc[f"{leg}_gate"] = "failed: version/leg mismatch"
        return
    if cur_speed is None or base_speed is None:
        if base_version < min_version or cur_version < min_version:
            side, version = (
                ("baseline", base_version) if base_version < min_version
                else ("current", cur_version)
            )
            vdoc[f"{leg}_gate"] = (
                f"skipped: {side} document version {version} predates "
                f"the {leg} leg (introduced in version {min_version})"
            )
        else:
            side = "current" if cur_speed is None else "baseline"
            vdoc[f"{leg}_gate"] = (
                f"skipped: {side} document did not run the {leg} leg"
            )
        return
    drop = 1.0 - cur_speed / base_speed if base_speed > 0 else 0.0
    vdoc[f"{leg}_gate"] = "compared"
    vdoc[f"{leg}_speedup_drop"] = drop
    vdoc[f"{leg}_winner_match"] = cur.get(f"{leg}_winner_match", False)
    if not cur.get(f"{leg}_winner_match", False):
        failures.append(f"{variant}: {leg} leg's winner diverged")
    if drop > REGRESSION_THRESHOLD:
        failures.append(
            f"{variant}: {_LEG_LABELS[leg]} speedup regressed "
            f"{drop * 100:.1f}% "
            f"({base_speed:.2f}x -> {cur_speed:.2f}x; "
            f"threshold {REGRESSION_THRESHOLD * 100:.0f}%)"
        )


def render_compare(diff: dict) -> str:
    """Human-readable summary of a :func:`compare_bench` diff."""
    unit = diff.get("unit", "configs")
    lines = [
        f"bench compare: {diff.get('model')} vs committed "
        f"{diff.get('baseline_model')} "
        f"(gate: job + winner identity + {unit}/sec ratio within "
        f"{diff['threshold'] * 100:.0f}%)",
        f"{'row':>8}  {'ratio old':>9}  {'ratio new':>9}  {'drop%':>6}  "
        f"{'rate old':>10}  {'rate new':>10}  {'hit% old':>8}  "
        f"{'hit% new':>8}  winner",
    ]
    for row, vdoc in diff["variants"].items():
        hits = [
            f"{vdoc[f'cache_hit_rate_{side}'] * 100:8.1f}"
            if f"cache_hit_rate_{side}" in vdoc else f"{'-':>8}"
            for side in ("baseline", "current")
        ]
        lines.append(
            f"{row:>8}  {vdoc['ratio_baseline']:8.2f}x  "
            f"{vdoc['ratio_current']:8.2f}x  "
            f"{vdoc['ratio_drop'] * 100:6.1f}  "
            f"{vdoc[f'{unit}_per_sec_baseline']:10.1f}  "
            f"{vdoc[f'{unit}_per_sec_current']:10.1f}  "
            f"{hits[0]}  {hits[1]}  "
            f"{'match' if vdoc['winner_match'] else 'CHANGED'}"
        )
    for leg in LEG_VERSIONS:
        for variant, vdoc in diff["variants"].items():
            gate = vdoc.get(f"{leg}_gate")
            if gate is None:
                continue
            if gate != "compared":
                lines.append(f"{variant:>8}  {leg}: {gate}")
            else:
                lines.append(
                    f"{variant:>8}  {leg}: "
                    f"{vdoc[f'{leg}_speedup_baseline']:.2f}x -> "
                    f"{vdoc[f'{leg}_speedup_current']:.2f}x "
                    f"(drop {vdoc[f'{leg}_speedup_drop'] * 100:.1f}%)  "
                    f"{'match' if vdoc.get(f'{leg}_winner_match') else 'CHANGED'}"
                )
    if diff["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in diff["failures"])
    else:
        lines.append("ok: same job, winners stable, relative throughput held")
    return "\n".join(lines)


def render_bench(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    lines = [
        f"bench {doc['model']}  batch={doc['batch']} seq={doc['seq_len']} "
        f"device={doc['device']} seed={doc['seed']}"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'variant':>8}  {'base(s)':>8}  {'fast(s)':>8}  {'ratio':>6}  "
        f"{'cfg/s base':>10}  {'cfg/s fast':>10}  {'hit%':>5}  "
        f"{'pruned':>6}  winner",
    ]
    for variant, vdoc in doc["variants"].items():
        base, fast = vdoc["baseline"], vdoc["fast"]
        lines.append(
            f"{variant:>8}  {base['wall_s']:8.3f}  {fast['wall_s']:8.3f}  "
            f"{vdoc['configs_per_sec_ratio']:5.2f}x  "
            f"{base['configs_per_sec']:10.0f}  {fast['configs_per_sec']:10.0f}  "
            f"{vdoc['cache_hit_rate'] * 100:5.1f}  "
            f"{fast['choices_pruned']:6d}  "
            f"{'match' if vdoc['winner_match'] else 'DIVERGED'}"
        )
    for variant, vdoc in doc["variants"].items():
        par = vdoc.get("parallel")
        if par is None:
            continue
        engine = par.get("engine") or {}
        lines.append(
            f"{variant:>8}  parallel@{doc.get('workers', '?')} "
            f"({engine.get('pool', '?')} pool): {par['wall_s']:.3f}s  "
            f"{vdoc['parallel_ratio']:.2f}x vs fast  "
            f"{'match' if vdoc['parallel_winner_match'] else 'DIVERGED'}  "
            f"gate: {vdoc['parallel_gate']}"
        )
    for variant, vdoc in doc["variants"].items():
        warm = vdoc.get("warm")
        if warm is None:
            continue
        lines.append(
            f"{variant:>8}  warm (store): {warm['wall_s']:.3f}s  "
            f"{vdoc['warm_speedup']:.2f}x vs cold  "
            f"measured {warm['configs_explored']} of "
            f"{vdoc['fast']['configs_explored']} configs "
            f"({vdoc['warm_configs_fraction'] * 100:.0f}%)  "
            f"seeded {vdoc['warm_seeded_entries']}  "
            f"{'match' if vdoc['warm_winner_match'] else 'DIVERGED'}  "
            f"gate: {vdoc['warm_gate']}"
        )
    for variant, vdoc in doc["variants"].items():
        lrn = vdoc.get("learned")
        if lrn is None:
            continue
        fingerprint = vdoc.get("learned_model_fingerprint") or "?"
        lines.append(
            f"{variant:>8}  learned (model {fingerprint[:12]}): "
            f"{lrn['wall_s']:.3f}s  "
            f"{vdoc['learned_speedup']:.2f}x vs exhaustive  "
            f"measured {lrn['configs_explored']} of "
            f"{vdoc['baseline']['configs_explored']} configs "
            f"({vdoc['learned_configs_fraction'] * 100:.0f}%)  "
            f"cut {vdoc['learned_choices_pruned']}  "
            f"what-if {vdoc['learned_whatif_checked']} checks "
            f"(max {vdoc['learned_whatif_max_rel_error'] * 100:.1f}%)  "
            f"{'match' if vdoc['learned_winner_match'] else 'DIVERGED'}  "
            f"gate: {vdoc['learned_gate']}"
        )
    for variant, vdoc in doc["variants"].items():
        phases = vdoc["fast"]["phases_s"]
        detail = "  ".join(f"{k}={v:.3f}" for k, v in phases.items())
        lines.append(f"{variant:>8}  fast phases (s): {detail}")
    if doc["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in doc["failures"])
    else:
        lines.append("ok: winners identical, cache effective"
                     + ("" if doc.get("quick") else
                        f", primary ratio >= {doc['speedup_target']:.1f}x"))
    return "\n".join(lines)
