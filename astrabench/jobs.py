"""Running one job of each kind through the system's public entry points.

Session jobs use the model builders and :class:`repro.AstraSession` with
the CLI's default fast path; fleet jobs call
:func:`repro.fleet.run_fleet_search`; serve jobs go through a
:class:`repro.serve.ServeClient` to a ``repro serve`` daemon.  Each
runner returns what the output check compares (see ``check.py``).

Every runner takes a recorder; the untraced runs pass
:data:`NULL_RECORDER`, whose spans cost one call and record nothing.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from contextlib import nullcontext

from tracing import Span

#: the CLI's ``repro optimize`` default budget
BUDGET = 3000
#: the client's status-poll interval; ServeClient.wait defaults to 50 ms,
#: which would round every ~30 ms warm job up to the next poll
POLL_S = 0.005
#: how long a daemon may take to print its URL and answer ``/readyz``
DAEMON_START_TIMEOUT_S = 60.0


class NullRecorder:
    _span = Span(-1, "null", 0.0)

    def span(self, name, job=None):
        return nullcontext(self._span)


NULL_RECORDER = NullRecorder()


def build_model(job: dict):
    """Trace + autodiff one zoo model at the job's shape."""
    from repro.models import MODEL_BUILDERS

    module = importlib.import_module(f"repro.models.{job['model']}")
    config = module.DEFAULT_CONFIG.scaled(
        batch_size=job["batch"], seq_len=job["seq_len"]
    )
    return MODEL_BUILDERS[job["model"]], config


def session_outcome(report) -> dict:
    astra = report.astra
    return {
        "assignment": {k: repr(v) for k, v in astra.assignment.items()},
        "best_time_us": astra.best_time_us,
        "configs_explored": astra.configs_explored,
        "exploration_time_us": astra.exploration_time_us,
        "explore_sim_us": sum(t for _phase, t in astra.timeline),
    }


def run_session_job(job: dict, fast, recorder=NULL_RECORDER):
    """One cold ``AstraSession`` job: (setup_s, optimize_s, outcome)."""
    from repro import AstraSession

    start = time.perf_counter()
    with recorder.span("ir.trace") as span:
        builder, config = build_model(job)
        model = builder(config)
        span.args["nodes"] = len(model.graph.nodes)
    with recorder.span("core.session"):
        session = AstraSession(model, features=job["features"], fast=fast)
    ready = time.perf_counter()
    try:
        with recorder.span("core.session.optimize"):
            report = session.optimize(max_minibatches=BUDGET)
        done = time.perf_counter()
    finally:
        session.close()
    return ready - start, done - ready, session_outcome(report)


def run_fleet_job(job: dict, workers: int, recorder=NULL_RECORDER):
    """One inner-Astra fleet search: (setup_s, search_s, outcome, report)."""
    from repro.fleet import get_fleet, run_fleet_search

    start = time.perf_counter()
    with recorder.span("ir.trace") as span:
        builder, config = build_model(job)
        span.args["nodes"] = len(builder(config).graph.nodes)
    ready = time.perf_counter()
    with recorder.span("fleet.search"):
        report = run_fleet_search(
            builder, config, get_fleet(job["fleet"]),
            model_name=job["model"], workers=workers, use_astra=True,
        )
    done = time.perf_counter()
    outcome = {
        "strategy": report.winner.label,
        "winner_per_sample_us": report.winner_per_sample_us,
        "strategies_measured": report.strategies_measured,
    }
    return ready - start, done - ready, outcome, report


def serve_spec(job: dict) -> dict:
    return {"model": job["model"], "batch": job["batch"],
            "seq_len": job["seq_len"], "features": job["features"],
            "budget": BUDGET}


def run_serve_job(client, job: dict, recorder=NULL_RECORDER):
    """Submit one job and wait for its terminal doc: (round_trip_s, doc)."""
    start = time.perf_counter()
    with recorder.span("serve.submit"):
        accepted = client.submit(serve_spec(job))
    with recorder.span("serve.wait"):
        doc = client.wait(accepted["id"], poll=POLL_S)
    return time.perf_counter() - start, doc


class Daemon:
    """A ``repro serve`` subprocess with its own fresh store."""

    def __init__(self, root: str, workdir: str, name: str):
        self.root = root
        self.store = os.path.join(workdir, name)
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.proc = None
        self.client = None

    def start(self) -> None:
        """Start the daemon and return once ``/readyz`` answers."""
        from repro.serve import ServeClient, ServeError

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--store", self.store, "--port", "0"],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        url = None
        while url is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode}")
            if time.monotonic() > deadline:
                raise TimeoutError("repro serve printed no URL")
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith("serving on "):
                        url = line.split()[-1]
            if url is None:
                time.sleep(0.002)
        self.client = ServeClient(url, retries=0, breaker_threshold=0)
        while True:
            try:
                self.client.readyz()
                return
            except (OSError, ServeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def stop(self) -> None:
        """Ask the daemon to drain and exit; kill it if it does not."""
        if self.proc is None:
            return
        from repro.serve import ServeError

        if self.client is not None and self.proc.poll() is None:
            try:
                self.client.shutdown()
            except (OSError, ServeError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None
