#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, metrics as JSON.

    python3 astrabench/run.py --workload stream_explore --seed 1 \\
        --seconds 30 --trace 0

Run from a checkout: the system is imported from ``src/`` next to this
directory, and the run exits with code 2 when it is missing.  With
``--trace 0`` the run reports the end-to-end metrics of untraced jobs;
with ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced ones and writes their spans to
``astrabench/_out/<workload>.trace.json``.  Every job's output is checked
against ``reference.json``; the last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``astrabench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)

import jobs as runners  # noqa: E402
import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from check import check_outcome, load_reference, winner_of  # noqa: E402
from workloads import FLEET_WORKERS, WORKLOADS, job_key, job_list  # noqa: E402

#: (name, unit) of every end-to-end metric, reported by every workload
END_TO_END = (
    ("setup_s", "s"),
    ("optimize_wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric; per traced pass where a count
PER_LAYER = (
    ("ir.trace.s", "s"), ("ir.trace.nodes", "count"),
    ("core.enumerate.s", "s"),
    ("core.build_plan.calls", "count"), ("core.build_plan.s", "s"),
    ("core.index.merge.calls", "count"), ("core.index.merge.s", "s"),
    ("core.index.hit_ratio", "ratio"),
    ("core.explore.self_s", "s"), ("core.explore.configs", "count"),
    ("core.explore.sim_ms", "ms"),
    ("perf.prerank.s", "s"), ("perf.prune.ratio", "ratio"),
    ("perf.cache.calls", "count"), ("perf.cache.self_s", "s"),
    ("perf.cache.lower_avoided_ratio", "ratio"),
    ("perf.cache.reported_hit_rate", "ratio"),
    ("runtime.lower.calls", "count"), ("runtime.lower.s", "s"),
    ("runtime.execute.self_s", "s"),
    ("gpu.simulate.seq.calls", "count"), ("gpu.simulate.seq.items", "count"),
    ("gpu.simulate.seq.s", "s"),
    ("gpu.simulate.conc.calls", "count"),
    ("gpu.simulate.conc.items", "count"), ("gpu.simulate.conc.s", "s"),
    ("gpu.simulate.conc.items_per_s", "1/s"),
    ("baselines.native.s", "s"),
    ("serve.submit.s", "s"), ("serve.wait.s", "s"),
    ("serve.store.load.calls", "count"), ("serve.store.load.s", "s"),
    ("serve.store.put.calls", "count"), ("serve.store.put.s", "s"),
    ("serve.journal.s", "s"), ("serve.warm.configs_measured", "count"),
    ("serve.repeat_share", "ratio"),
    ("fleet.search.s", "s"), ("fleet.calibrate.s", "s"),
    ("fleet.strategies.measured", "count"),
    ("fleet.strategies.total", "count"),
    ("parallel.wave.calls", "count"), ("parallel.wave.s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)

#: host-speed probes before each job of a job list (one per serve job)
PROBES_PER_JOB = 3
#: untraced daemon starts per serve_warm run; setup_s is their median
SERVE_STARTS = 3
#: optimize_wall_s on serve_warm: round trips of this many first-seen
#: (exploring) jobs, from the run's mean
SERVE_COLD_UNIT = 30
#: the loop runs past --seconds until this many warm round trips are
#: in, so that ten or more lie beyond their p90
MIN_WARM_SAMPLES = 100


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.recorder = tracing.SpanRecorder() if trace else None
        self.speed = HostSpeed()
        self.extras: dict[str, float] = defaultdict(float)
        self.fast = None
        #: simulated exploration time per session job key (deterministic)
        self.explore_sim_ms: dict[str, float] = {}
        self.traced_passes = 0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0

    def record(self, key: str, outcome: dict | None, error=None) -> bool:
        """Count one job and check its output; False if it failed."""
        self.attempted += 1
        problems = [error] if error else check_outcome(
            key, outcome, self.reference)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {problem}", file=sys.stderr)
            return False
        return True

    def recorder_for(self, traced: bool):
        return self.recorder if traced else runners.NULL_RECORDER

    def layers(self, traced: bool):
        return tracing.traced_layers(self.recorder) if traced else nullcontext()


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run: Run, setup, optimize, jobs_per_s, latencies) -> None:
    """Record the end-to-end metrics in reference seconds (hostspeed.py);
    the raw figures go to the printed notes."""
    scale = run.speed.scale
    probe_ms = statistics.median(run.speed.samples) * 1e3
    run.notes.append(
        f"host speed: median probe {probe_ms:.3f} ms over "
        f"{len(run.speed.samples)} probes, scale {scale:.4f}; raw: "
        f"setup {setup:.4f} s, optimize {optimize:.4f} s, "
        f"{jobs_per_s:.4f} jobs/s, p50 {statistics.median(latencies):.4f} s, "
        f"p90 {_p90(latencies):.4f} s")
    run.metrics["setup_s"] = (setup * scale, "s")
    run.metrics["optimize_wall_s"] = (optimize * scale, "s")
    run.metrics["jobs_per_s"] = (jobs_per_s / scale, "1/s")
    run.metrics["job_s.p50"] = (statistics.median(latencies) * scale, "s")
    run.metrics["job_s.p90"] = (_p90(latencies) * scale, "s")


# -- stream_explore, fusion_zoo, fleet_search ---------------------------------

def _job_once(run: Run, kind: str, job: dict, traced: bool, label: str):
    """Run one session or fleet job; (setup_s, work_s) or None if failed."""
    recorder = run.recorder_for(traced)
    key = job_key(job)
    root = (recorder.span("bench.job", job=label) if traced else nullcontext())
    try:
        with root:
            if kind == "fleet":
                setup, work, outcome, report = runners.run_fleet_job(
                    job, FLEET_WORKERS, recorder)
            else:
                setup, work, outcome = runners.run_session_job(
                    job, run.fast, recorder)
    except Exception:  # a job that errors is a failed operation
        run.record(key, None, error=f"{key}: " + traceback.format_exc())
        return None
    if not run.record(key, outcome):
        return None
    if traced and kind == "fleet":
        run.extras["fleet.strategies.measured"] += report.strategies_measured
        run.extras["fleet.strategies.total"] += report.strategies_total
        run.extras["parallel.worker_busy_s"] += report.engine.get(
            "worker_busy_s", 0.0)
    if kind == "session":
        run.explore_sim_ms[key] = outcome["explore_sim_us"] / 1000.0
    return setup, work


def run_job_list(run: Run, kind: str) -> None:
    jobs = job_list(run.workload, run.seed)
    if kind == "session":
        from repro.perf import FastPath

        # the CLI's default fast path: cache and prune on, serial
        run.fast = FastPath(cache=True, prune=True)
    setups = [[] for _ in jobs]
    works = [[] for _ in jobs]
    latencies = []
    start = time.perf_counter()
    if not run.trace:
        # cycle through the list until --seconds are up and every job has
        # at least one sample; the overrun is at most one job
        n = 0
        while n < len(jobs) or time.perf_counter() - start < run.seconds:
            i = n % len(jobs)
            run.speed.sample(PROBES_PER_JOB)
            result = _job_once(run, kind, jobs[i], False, f"{n}")
            n += 1
            if result is not None:
                setups[i].append(result[0])
                works[i].append(result[1])
                latencies.append(result[0] + result[1])
        elapsed = time.perf_counter() - start - run.speed.spent_s
        run.notes.append(f"{len(jobs)} jobs in the list, {n} job runs, "
                         f"{len(latencies)} latency samples")
        if not latencies:
            return
        # per-job means, not medians: the host's speed drifts in phases of
        # seconds, and a median of two or three samples jumps between them
        end_to_end(
            run,
            setup=sum(statistics.median(s) for s in setups if s),
            optimize=sum(statistics.fmean(w) for w in works if w),
            jobs_per_s=len(latencies) / elapsed,
            latencies=latencies,
        )
        if kind == "session":
            sim = sum(run.explore_sim_ms.get(job_key(j), 0.0) for j in jobs)
            run.notes.append(f"simulated exploration per list: {sim:.3f} ms")
        return
    # traced: (untraced pass, traced pass) pairs while another pair still
    # fits in --seconds
    passes = 0
    pair = 0.0
    while passes == 0 or (
        time.perf_counter() - start + pair <= run.seconds
    ):
        pair_start = time.perf_counter()
        for traced in (False, True):
            t0 = time.perf_counter()
            with run.layers(traced):
                for i, job in enumerate(jobs):
                    _job_once(run, kind, job, traced, f"{passes}:{i}")
            wall = time.perf_counter() - t0
            if traced:
                run.traced_wall += wall
                run.traced_passes += 1
            else:
                run.untraced_wall += wall
        pair = time.perf_counter() - pair_start
        passes += 1


# -- serve_warm ---------------------------------------------------------------

def serve_loop(run: Run, client, sequence, traced: bool, seconds: float,
               min_warm: int = 0) -> dict:
    """The closed loop, one job in flight, until ``seconds`` are up and at
    least ``min_warm`` warm repeats are in (or the sequence ends)."""
    recorder = run.recorder_for(traced)
    twins: dict[str, tuple] = {}
    loop = {"sent": 0, "done": 0, "warm": [], "cold": []}
    probing = -run.speed.spent_s
    start = time.perf_counter()
    for n, job in enumerate(sequence):
        if len(loop["warm"]) >= min_warm and (
            time.perf_counter() - start >= seconds
        ):
            break
        if not traced:
            run.speed.sample()
        loop["sent"] += 1
        key = job_key(job)
        root = (recorder.span("bench.job", job=f"{n}:{key}") if traced
                else nullcontext())
        try:
            with root:
                trip, doc = runners.run_serve_job(client, job, recorder)
        except Exception:
            run.record(key, None, error=f"{key}: " + traceback.format_exc())
            continue
        loop["done"] += 1
        if doc.get("status") != "done":
            run.record(key, None, error=f"{key}: job {doc.get('id')} "
                       f"{doc.get('status')}: {doc.get('error')}")
            continue
        outcome = doc["result"]
        warm = key in twins
        if warm and winner_of(outcome) != twins[key]:
            run.record(key, None, error=f"{key}: warm winner differs from "
                       f"its cold twin")
            continue
        if not run.record(key, outcome):
            continue
        if warm:
            loop["warm"].append(trip)
            if traced:
                run.extras["serve.warm.configs_measured"] += \
                    outcome["configs_explored"]
        else:
            loop["cold"].append(trip)
            twins[key] = winner_of(outcome)
    probing += run.speed.spent_s
    loop["wall"] = time.perf_counter() - start - probing
    return loop


def run_serve(run: Run) -> None:
    sequence = job_list(run.workload, run.seed)
    workdir = os.path.join(WORK_DIR, f"serve-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if run.trace:
            _run_serve_traced(run, sequence, workdir)
        else:
            _run_serve_untraced(run, sequence, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_serve_untraced(run: Run, sequence, workdir: str) -> None:
    setups = []
    daemon = None
    try:
        for k in range(SERVE_STARTS):
            if daemon is not None:
                daemon.stop()
            daemon = runners.Daemon(ROOT, workdir, f"store{k}")
            run.speed.sample(PROBES_PER_JOB)
            t0 = time.perf_counter()
            daemon.start()
            setups.append(time.perf_counter() - t0)
        loop = serve_loop(run, daemon.client, sequence, False, run.seconds,
                          min_warm=MIN_WARM_SAMPLES)
    finally:
        if daemon is not None:
            daemon.stop()
    warm, cold = loop["warm"], loop["cold"]
    run.notes.append(
        f"{loop['done']} jobs: {len(cold)} first-seen, {len(warm)} warm "
        f"repeats (repeat share {len(warm) / max(loop['done'], 1):.3f}); "
        f"job_s percentiles over the {len(warm)} warm round trips")
    if not warm or not cold:
        return
    end_to_end(
        run,
        setup=statistics.median(setups),
        optimize=SERVE_COLD_UNIT * statistics.fmean(cold),
        jobs_per_s=loop["done"] / loop["wall"],
        latencies=warm,
    )


def _run_serve_traced(run: Run, sequence, workdir: str) -> None:
    """Untraced then traced closed loop over the same job prefix, each
    against an in-process daemon with a fresh store, so the daemon's
    store and journal calls can be wrapped too."""
    from repro.serve import AstraServer, ServeClient

    for traced in (False, True):
        server = AstraServer(os.path.join(workdir, f"store-{int(traced)}"))
        server.start()
        try:
            with run.layers(traced):
                loop = serve_loop(
                    run, ServeClient(server.url), sequence, traced,
                    float("inf") if traced else run.seconds / 2)
        finally:
            server.shutdown()
        if traced:
            run.traced_wall, run.traced_passes = loop["wall"], 1
            run.extras["serve.repeat_share"] = (
                len(loop["warm"]) / max(loop["done"], 1))
        else:
            run.untraced_wall = loop["wall"]
            sequence = sequence[:loop["sent"]]


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(run: Run) -> dict[str, float]:
    spans = run.recorder.spans
    passes = max(run.traced_passes, 1)
    charged = tracing.self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name):
        return sum(s.duration for s in by_name[name]) / passes

    def calls(name):
        return len(by_name[name]) / passes

    def self_s(name):
        return sum(charged[s.sid] for s in by_name[name]) / passes

    def arg(name, key):
        return sum(s.args.get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    lowered = {s.parent.sid for s in by_name["runtime.lower"] if s.parent}
    cache_calls = by_name["perf.cache"]
    avoided = sum(1 for s in cache_calls if s.sid not in lowered)
    values = {
        "ir.trace.s": total("ir.trace"),
        "ir.trace.nodes": arg("ir.trace", "nodes") / passes,
        "core.enumerate.s": total("core.enumerate"),
        "core.build_plan.calls": calls("core.build_plan"),
        "core.build_plan.s": total("core.build_plan"),
        "core.index.merge.calls": calls("core.index.merge"),
        "core.index.merge.s": total("core.index.merge"),
        "core.index.hit_ratio": ratio(arg("core.explore", "index_hits"),
                                      arg("core.explore", "index_lookups")),
        "core.explore.self_s": self_s("core.explore"),
        "core.explore.configs": arg("core.explore", "configs") / passes,
        "core.explore.sim_ms": arg("core.explore", "sim_us") / passes / 1e3,
        "perf.prerank.s": total("perf.prerank"),
        "perf.prune.ratio": ratio(arg("core.explore", "choices_pruned"),
                                  arg("core.explore", "choices_total")),
        "perf.cache.calls": calls("perf.cache"),
        "perf.cache.self_s": self_s("perf.cache"),
        "perf.cache.lower_avoided_ratio": ratio(avoided, len(cache_calls)),
        "perf.cache.reported_hit_rate": ratio(
            arg("core.explore", "cache_hits"),
            arg("core.explore", "cache_lookups")),
        "runtime.lower.calls": calls("runtime.lower"),
        "runtime.lower.s": total("runtime.lower"),
        "runtime.execute.self_s": self_s("runtime.execute"),
        "baselines.native.s": total("baselines.native"),
        "serve.submit.s": total("serve.submit"),
        "serve.wait.s": total("serve.wait"),
        "serve.store.load.calls": calls("serve.store.load"),
        "serve.store.load.s": total("serve.store.load"),
        "serve.store.put.calls": calls("serve.store.put"),
        "serve.store.put.s": total("serve.store.put"),
        "serve.journal.s": total("serve.journal"),
        "fleet.search.s": total("fleet.search"),
        "fleet.calibrate.s": total("fleet.calibrate"),
        "parallel.wave.calls": calls("parallel.wave"),
        "parallel.wave.s": total("parallel.wave"),
        "trace_overhead_ratio": ratio(run.traced_wall, run.untraced_wall),
    }
    for kind in ("seq", "conc"):
        name = f"gpu.simulate.{kind}"
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.items"] = arg(name, "items") / passes
        values[f"{name}.s"] = total(name)
    values["gpu.simulate.conc.items_per_s"] = ratio(
        values["gpu.simulate.conc.items"], values["gpu.simulate.conc.s"])
    for name in ("serve.warm.configs_measured", "serve.repeat_share"):
        values[name] = run.extras.get(name, 0.0)
    for name in ("fleet.strategies.measured", "fleet.strategies.total",
                 "parallel.worker_busy_s"):
        values[name] = run.extras.get(name, 0.0) / passes
    return values


def report_trace(run: Run) -> None:
    from repro.obs.trace import validate_chrome_trace

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{run.workload}.trace.json")
    summary = tracing.write_chrome_trace(run.recorder, path,
                                         validate_chrome_trace)
    print(f"trace: {len(run.recorder.spans)} spans, {summary['events']} "
          f"events on {len(summary['tracks'])} tracks -> "
          f"{os.path.relpath(path, ROOT)} (validated)")
    wall = run.traced_wall
    print(f"layer shares of the traced wall ({wall:.3f} s over "
          f"{run.traced_passes} traced pass(es)):")
    rows = tracing.layer_table(run.recorder.spans, wall)
    for layer, seconds in rows:
        print(f"  {layer:<14s} {seconds:9.3f} s  {seconds / wall * 100:6.2f}%")
    print(f"  {'total':<14s} {sum(s for _l, s in rows):9.3f} s  100.00%")


# -- entry point --------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"astrabench: no system to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {run.workload}  seed {run.seed}  "
          f"seconds {run.seconds:g}  trace {int(run.trace)}")
    if run.workload == "serve_warm":
        run_serve(run)
    else:
        run_job_list(run, "fleet" if run.workload == "fleet_search"
                     else "session")

    if run.trace:
        if run.traced_passes:
            report_trace(run)
        values = layer_metrics(run)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        run.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        metrics = run.metrics
    for note in run.notes:
        if note:
            print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    wanted = PER_LAYER if run.trace else END_TO_END
    missing = [name for name, _unit in wanted if name not in metrics]
    correct = run.failed == 0 and run.attempted > 0 and not missing
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
