"""Spans for the traced run: recorder, layer wrappers, self time, output.

The traced run wraps the public calls of each layer of ``repro`` from
here, so nothing under ``src/`` knows it is being measured.  Each span
has a name (``<layer>.<what>``), a start, an end, a parent span and a job
id; spans stay in memory until the run ends and are then written as a
Chrome trace.

Self time follows the blocking path: a span is charged for the part of
its interval that none of its children cover.  Spans opened on another
thread (the serve daemon's worker and HTTP threads, when the traced run
hosts the daemon in-process) hang under the client's job span and take
precedence over the client's own spans where they overlap, because the
client's ``submit`` and ``wait`` are blocked on them.  The charged time
of every span in a tree then adds up to the root's duration exactly.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "job", "tid",
                 "remote", "args")

    def __init__(self, sid, name, start, end=None, parent=None, job=None,
                 tid=0, remote=False, args=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.tid = tid
        self.remote = remote
        self.args = args if args is not None else {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans; one per traced run, shared by every thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.origin = clock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        #: the main thread's open job span: parent of spans that other
        #: threads open outside any span of their own
        self.request_root: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job=None) -> Span:
        stack = self._stack()
        remote = False
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self.request_root:
            parent, remote = self.request_root, True
        else:
            parent = None
        if job is None and parent is not None:
            job = parent.job
        span = Span(next(self._ids), name, self.clock(), parent=parent,
                    job=job, tid=threading.get_ident(), remote=remote)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, job=None):
        span = self.open(name, job=job)
        if span.parent is None:
            self.request_root = span
        try:
            yield span
        finally:
            self.close(span)
            if self.request_root is span:
                self.request_root = None


# -- wrapping the layers ------------------------------------------------------

def _simulate_name(args, kwargs) -> tuple[str, dict]:
    items = args[1] if len(args) > 1 else kwargs["items"]
    streams = {item.stream for item in items if hasattr(item, "stream")}
    kind = "conc" if len(streams) > 1 else "seq"
    return f"gpu.simulate.{kind}", {"items": len(items)}


def _explore_result(span: Span, report) -> None:
    fast = report.fast_path or {}
    cache = fast.get("cache") or {}
    hits = cache.get("schedule_hits", 0) + cache.get("structure_hits", 0)
    span.args.update(
        configs=report.configs_explored,
        sim_us=sum(t for _phase, t in report.timeline),
        index_hits=sum(p.index_hits for p in report.phases),
        index_lookups=sum(p.index_hits + p.minibatches
                          for p in report.phases),
        choices_pruned=fast.get("choices_pruned", 0),
        choices_total=fast.get("choices_total", 0),
        cache_hits=hits,
        cache_lookups=hits + cache.get("structure_misses", 0),
    )


def _build_result(span: Span, model) -> None:
    span.args["nodes"] = len(model.graph.nodes)


#: (module, attribute path, span name, result hook).  A ``None`` name
#: means the span is named per call (the simulator, split by how many
#: streams the schedule uses).  Functions imported by name elsewhere are
#: wrapped where the caller looks them up.
LAYER_CALLS = (
    ("repro.core.enumerator", "Enumerator.__init__", "core.enumerate", None),
    ("repro.core.enumerator", "Enumerator.build_plan", "core.build_plan", None),
    ("repro.core.profile_index", "ProfileIndex.merge", "core.index.merge", None),
    ("repro.core.wirer", "CustomWirer.optimize", "core.explore",
     _explore_result),
    ("repro.core.wirer", "prune_fk_tree", "perf.prerank", None),
    ("repro.perf.cache", "LoweringCache.lower", "perf.cache", None),
    ("repro.runtime.dispatcher", "Dispatcher.lower", "runtime.lower", None),
    ("repro.runtime.executor", "Executor.run", "runtime.execute", None),
    ("repro.gpu.streams", "StreamSimulator.run", None, None),
    ("repro.core.session", "AstraSession.measure_native", "baselines.native",
     None),
    ("repro.serve.server", "run_job", "serve.job", None),
    ("repro.serve.jobs", "build_model", "ir.trace", _build_result),
    ("repro.serve.store", "ProfileStore.load", "serve.store.load", None),
    ("repro.serve.store", "ProfileStore.put", "serve.store.put", None),
    ("repro.serve.journal", "JobJournal.append", "serve.journal", None),
    ("repro.fleet.measure", "FleetMeasurer.calibrate", "fleet.calibrate", None),
    ("repro.parallel.engine", "ParallelEngine.measure_wave", "parallel.wave",
     None),
)


def _wrap(recorder: SpanRecorder, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:
            span_name, extra = _simulate_name(args, kwargs)
        else:
            span_name, extra = name, None
        span = recorder.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if extra:
            span.args.update(extra)
        if hook is not None:
            hook(span, result)
        return result

    return wrapper


@contextmanager
def traced_layers(recorder: SpanRecorder):
    """Install a span wrapper on every call in :data:`LAYER_CALLS` for the
    duration of the block, then restore the originals."""
    undo = []
    try:
        for module_name, path, name, hook in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(recorder, original, name, hook))
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- self time ----------------------------------------------------------------

def _clip(segments, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in segments
            if min(b, hi) > max(a, lo)]


def _subtract(segments, taken):
    """``segments`` minus the sorted, disjoint intervals ``taken``."""
    if not taken:
        return list(segments)
    starts = [a for a, _b in taken]
    out = []
    for lo, hi in segments:
        i = max(0, bisect.bisect_right(starts, lo) - 1)
        cursor = lo
        while i < len(taken) and taken[i][0] < hi:
            a, b = taken[i]
            if b > cursor:
                if a > cursor:
                    out.append((cursor, a))
                cursor = max(cursor, b)
            i += 1
        if cursor < hi:
            out.append((cursor, hi))
    return out


def _insert(taken, segments):
    merged = sorted(taken + segments)
    out = []
    for a, b in merged:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _length(segments) -> float:
    return sum(b - a for a, b in segments)


def self_times(spans) -> dict:
    """Charged self time per span id.

    A span is charged over its interval clipped to what its parent was
    charged; each child takes its share of that first, remote children
    before local ones, and the span keeps the rest.
    """
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is None:
            roots.append(span)
        else:
            children[span.parent.sid].append(span)
    out = {}
    work = [(root, [(root.start, root.end)]) for root in roots]
    while work:
        span, segments = work.pop()
        taken = []
        kids = sorted(children[span.sid], key=lambda k: (not k.remote, k.start))
        for kid in kids:
            share = _subtract(_clip(segments, kid.start, kid.end), taken)
            taken = _insert(taken, share)
            work.append((kid, share))
        out[span.sid] = _length(segments) - _length(taken)
    return out


def layer_table(spans, wall_s: float) -> list[tuple[str, float]]:
    """(layer, charged seconds) rows, largest first, then the unattributed
    remainder of ``wall_s``; the rows add up to ``wall_s``."""
    charged = self_times(spans)
    by_layer = defaultdict(float)
    for span in spans:
        by_layer[span.layer] += charged[span.sid]
    rows = sorted(by_layer.items(), key=lambda row: -row[1])
    rows.append(("unattributed", wall_s - sum(by_layer.values())))
    return rows


# -- Chrome trace -------------------------------------------------------------

def chrome_trace(recorder: SpanRecorder) -> dict:
    tids = {}
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "astrabench"}}]
    for span in recorder.spans:
        tid = tids.setdefault(span.tid, len(tids))
        events.append({
            "ph": "X", "pid": 1, "tid": tid, "name": span.name,
            "ts": (span.start - recorder.origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"id": span.sid,
                     "parent": span.parent.sid if span.parent else None,
                     "job": span.job, **span.args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: SpanRecorder, path: str, validate) -> dict:
    """Write the spans as a Chrome trace and check it with ``validate``
    (``repro.obs.trace.validate_chrome_trace``)."""
    doc = chrome_trace(recorder)
    summary = validate(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return summary
