"""Bit-identity golden for the concurrent discrete-event engine.

``tests/data/des_golden.json`` pins, as ``float.hex`` strings, every
timestamp the multi-stream engine (``StreamSimulator._run_concurrent``)
produces on a fixed set of dispatch lists:

* seeded random schedules over 2-4 streams with cross-stream waits,
  event records piggybacked on busy streams and stamped on idle ones,
  ``HostSyncItem(event)`` and ``HostSyncItem()`` barriers,
  ``HostComputeItem`` stalls, and zero-parallelism copy-engine kernels;
* one ``features="all"`` stream-phase schedule per zoo model, captured
  from a session on a fixed tiny config;
* a crafted schedule whose heads become ready, start and finish at one
  instant on several streams, which pins the tie rules.

Every case runs at base clock.  A few also run under autoboost (one RNG
seed) and under a :class:`~repro.faults.injector.FaultInjector` (one plan
seed), which pins the order of the engine's random draws: jitter and
straggler multipliers are drawn per kernel start, launch failures and
timestamp faults per issue.  Equality is exact: records' issue/start/end,
``event_times`` including its key order, the total, the CPU time, the
profiling overhead, and the injector's fault log.

The schedules are stored in the file, so the test depends only on the
engine and the kernel cost models, not on lowering.  Regenerating after
an *intentional* timing change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/gpu/test_des_golden.py

then review the diff of ``tests/data/des_golden.json``.
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import FaultSpec
from repro.gpu import (
    CLOCK_AUTOBOOST,
    DEVICES,
    GEMM_LIBRARIES,
    CompoundLaunch,
    CopyLaunch,
    ElementwiseLaunch,
    EventId,
    EventNamespace,
    GemmLaunch,
    HostComputeItem,
    HostSyncItem,
    HostTransfer,
    LaunchItem,
    RecordEventItem,
    StreamSimulator,
)
from repro.serialize import kernel_from_dict, kernel_to_dict

PATH = Path(__file__).resolve().parent.parent / "data" / "des_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

RANDOM_SEEDS = tuple(range(48))
ZOO_MODELS = ("scrnn", "milstm", "sublstm", "stacked_lstm", "gnmt")
#: schedules that are also run under autoboost and under fault injection
RNG_SCHEDULES = ("random-0", "random-1", "random-2", "random-3", "zoo-milstm", "ties")
AUTOBOOST_SEED = 11
INJECTOR_PLAN = FaultPlan(
    specs=(
        FaultSpec("slowdown", rate=0.3, factor=2.5),
        FaultSpec("clock_throttle", factor=1.5),
        # armed but never firing: every launch still draws from the RNG
        FaultSpec("launch_fail", rate=1e-12),
        FaultSpec("event_drop", rate=0.2),
        FaultSpec("event_corrupt", rate=0.3, factor=2.0),
    ),
    seed=5,
)

CASES = (
    [(f"random-{s}", "base") for s in RANDOM_SEEDS]
    + [(f"zoo-{m}", "base") for m in ZOO_MODELS]
    + [("ties", "base")]
    + [(name, mode) for mode in ("autoboost", "injector") for name in RNG_SCHEDULES]
)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _random_kernel(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        return GemmLaunch(
            rng.choice((16, 64, 256, 1024)), rng.choice((64, 256, 1024)),
            rng.choice((64, 256, 1024)), rng.choice(sorted(GEMM_LIBRARIES)),
        )
    if roll < 0.75:
        return ElementwiseLaunch(
            num_elements=rng.choice((256, 4096, 65536, 1 << 20)),
            fused_ops=rng.choice((1, 3)),
        )
    if roll < 0.85:
        return CopyLaunch(bytes_moved=rng.choice((4096, 1 << 20)))
    if roll < 0.95:
        # parallelism 0: runs on the copy engine at unit rate
        return HostTransfer(bytes_moved=rng.choice((1024, 1 << 16)))
    return CompoundLaunch(total_flops=rng.choice((10**7, 10**8)), rows=32)


def random_schedule(seed: int) -> list:
    """A seeded multi-stream dispatch list that cannot deadlock: every wait
    and host sync names an event recorded earlier in dispatch order."""
    rng = random.Random(seed)
    ns = EventNamespace()
    streams = rng.randint(2, 4)
    recorded: list[EventId] = []
    items: list = [
        LaunchItem(_random_kernel(rng), 0),
        LaunchItem(_random_kernel(rng), 1),
    ]
    for _ in range(rng.randint(20, 50)):
        roll = rng.random()
        if roll < 0.6:
            waits = rng.sample(recorded, min(len(recorded), rng.choice((0, 0, 1, 2))))
            record = ns.new_event() if rng.random() < 0.35 else None
            items.append(LaunchItem(
                _random_kernel(rng), rng.randrange(streams), waits=tuple(waits),
                record=record, record_is_profiling=rng.random() < 0.5,
            ))
            if record is not None:
                recorded.append(record)
        elif roll < 0.75:
            event = ns.new_event()
            items.append(RecordEventItem(rng.randrange(streams), event))
            recorded.append(event)
        elif roll < 0.83 and recorded:
            items.append(HostSyncItem(rng.choice(recorded)))
        elif roll < 0.88:
            items.append(HostSyncItem())
        else:
            items.append(HostComputeItem(rng.choice((0.5, 3.0, 17.25, 40.0))))
    items.append(HostSyncItem())
    return items


def tie_schedule() -> list:
    """Heads on several streams that wait on one event, so they become
    ready, start and (being identical) finish at the same instant.  This
    pins the tie rules: simultaneous starts go in stream first-launch
    order (3, 1, 2 here, which is also the RNG draw order), and
    simultaneous completions stamp their events in start order."""
    ns = EventNamespace()
    items: list = []
    for gate_kernel, kernels in (
        (GemmLaunch(1024, 1024, 1024, "cublas"),
         [GemmLaunch(256, 1024, 1024, "cublas")] * 3),
        (ElementwiseLaunch(num_elements=1 << 20),
         [ElementwiseLaunch(num_elements=65536),
          ElementwiseLaunch(num_elements=65536, fused_ops=3),
          HostTransfer(bytes_moved=4096)]),
    ):
        gate = ns.new_event()
        items.append(LaunchItem(gate_kernel, 0, record=gate))
        for stream, kernel in zip((3, 1, 2), kernels):
            items.append(LaunchItem(kernel, stream, waits=(gate,), record=ns.new_event()))
            items.append(RecordEventItem(stream, ns.new_event()))
        items.append(HostSyncItem())
    return items


def zoo_schedule(model: str) -> list:
    """The last concurrent schedule a tiny ``features="all"`` session runs."""
    from repro import AstraSession
    from repro.models import MODEL_BUILDERS, ModelConfig

    config = ModelConfig(
        batch_size=4, seq_len=2, hidden_size=32, embed_size=32, vocab_size=50
    )
    if model in ("stacked_lstm", "gnmt"):
        config = config.scaled(num_layers=2)
    captured: list = []
    original = StreamSimulator._run_concurrent

    def capture(self, items):
        captured.append(list(items))
        return original(self, items)

    StreamSimulator._run_concurrent = capture
    try:
        AstraSession(MODEL_BUILDERS[model](config), features="all").optimize(
            max_minibatches=200
        )
    finally:
        StreamSimulator._run_concurrent = original
    assert captured, f"{model}: no concurrent schedule was simulated"
    return captured[-1]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def encode_items(items: list, kernels: list) -> list:
    """Compact rows; kernels are interned into the shared ``kernels`` table
    (their ``node_ids`` are provenance only and are dropped)."""
    table = {json.dumps(k, sort_keys=True): i for i, k in enumerate(kernels)}

    def kernel_ref(kernel) -> int:
        data = kernel_to_dict(kernel)
        data.pop("node_ids", None)
        key = json.dumps(data, sort_keys=True)
        if key not in table:
            table[key] = len(kernels)
            kernels.append(data)
        return table[key]

    rows = []
    for item in items:
        if type(item) is LaunchItem:
            rows.append([
                "L", item.stream, kernel_ref(item.kernel),
                [ev.index for ev in item.waits],
                item.record.index if item.record is not None else None,
                item.record_is_profiling,
            ])
        elif type(item) is RecordEventItem:
            rows.append(["R", item.stream, item.event.index])
        elif type(item) is HostSyncItem:
            rows.append(["S", item.event.index if item.event is not None else None])
        else:
            rows.append(["H", item.duration_us.hex(), item.label])
    return rows


def decode_items(rows: list, kernels: list) -> list:
    events: dict[int, EventId] = {}

    def event(index):
        if index is None:
            return None
        return events.setdefault(index, EventId(index))

    built = [kernel_from_dict(k) for k in kernels]
    items = []
    for row in rows:
        tag = row[0]
        if tag == "L":
            _, stream, kernel, waits, record, profiling = row
            items.append(LaunchItem(
                built[kernel], stream, waits=tuple(event(w) for w in waits),
                record=event(record), record_is_profiling=profiling,
            ))
        elif tag == "R":
            items.append(RecordEventItem(row[1], event(row[2])))
        elif tag == "S":
            items.append(HostSyncItem(event(row[1])))
        else:
            items.append(HostComputeItem(float.fromhex(row[1]), row[2]))
    return items


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def simulate(items: list, device_name: str, mode: str) -> dict:
    device = DEVICES[device_name]
    seed, injector = 0, None
    if mode == "autoboost":
        device, seed = device.with_clock(CLOCK_AUTOBOOST), AUTOBOOST_SEED
    elif mode == "injector":
        injector = INJECTOR_PLAN.injector()
        # mini-batch 0 lies in the throttle window and in every rate window
        injector.begin_minibatch()
    assert not StreamSimulator._is_sequential(items), "not a concurrent schedule"
    res = StreamSimulator(device, seed=seed, injector=injector).run(items)
    out = {
        "total": res.total_time_us.hex(),
        "cpu": res.cpu_time_us.hex(),
        "profiling": res.profiling_overhead_us.hex(),
        "records": [
            [r.stream, r.issue_time.hex(), r.start_time.hex(), r.end_time.hex()]
            for r in res.records
        ],
        "events": [[ev.index, t.hex()] for ev, t in res.event_times.items()],
    }
    if injector is not None:
        log = injector.current_log
        out["faults"] = {
            "dropped": sorted(log.dropped_records),
            "corrupted": [[i, f.hex()] for i, f in sorted(log.corrupted_records.items())],
            "slowdowns": log.slowdowns,
            "throttled": log.throttled,
        }
    return out


def build_golden() -> dict:
    kernels: list = []
    schedules: dict[str, dict] = {}
    for seed in RANDOM_SEEDS:
        device = ("P100", "V100")[seed % 2]
        schedules[f"random-{seed}"] = {
            "device": device, "items": encode_items(random_schedule(seed), kernels),
        }
    for model in ZOO_MODELS:
        schedules[f"zoo-{model}"] = {
            "device": "P100", "items": encode_items(zoo_schedule(model), kernels),
        }
    schedules["ties"] = {"device": "P100", "items": encode_items(tie_schedule(), kernels)}
    expected = {}
    for name, mode in CASES:
        sched = schedules[name]
        items = decode_items(sched["items"], kernels)
        expected[f"{name}/{mode}"] = simulate(items, sched["device"], mode)
    return {"kernels": kernels, "schedules": schedules, "expected": expected}


def _dump(golden: dict) -> str:
    """One schedule / one expectation per line keeps diffs reviewable."""
    def block(mapping: dict) -> str:
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in mapping.items()]
        return "{\n" + ",\n".join(rows) + "\n }"

    kernels = ",\n".join(f"  {json.dumps(k, sort_keys=True)}" for k in golden["kernels"])
    return (
        "{\n"
        f' "kernels": [\n{kernels}\n ],\n'
        f' "schedules": {block(golden["schedules"])},\n'
        f' "expected": {block(golden["expected"])}\n'
        "}\n"
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN:
        PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH.write_text(_dump(build_golden()))
    if not PATH.exists():
        pytest.fail(
            f"golden file {PATH} missing; generate it with "
            "REPRO_REGEN_GOLDEN=1 (see module docstring)"
        )
    return json.loads(PATH.read_text())


@pytest.mark.parametrize("name,mode", CASES, ids=[f"{n}/{m}" for n, m in CASES])
def test_concurrent_engine_matches_golden(golden, name, mode):
    sched = golden["schedules"][name]
    items = decode_items(sched["items"], golden["kernels"])
    actual = simulate(items, sched["device"], mode)
    expected = golden["expected"][f"{name}/{mode}"]
    for field in ("total", "cpu", "profiling", "faults"):
        assert actual.get(field) == expected.get(field), (
            f"{field} diverged; if the timing change is intentional, "
            "regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
        )
    assert actual["events"] == expected["events"]
    for i, (got, want) in enumerate(zip(actual["records"], expected["records"])):
        assert got == want, f"record {i} diverged"
    assert len(actual["records"]) == len(expected["records"])


def test_golden_covers_the_engine_features(golden):
    rows = [r for s in golden["schedules"].values() for r in s["items"]]
    tags = {r[0] for r in rows}
    assert tags == {"L", "R", "S", "H"}
    assert any(r[0] == "S" and r[1] is None for r in rows)
    assert any(r[0] == "S" and r[1] is not None for r in rows)
    assert any(r[0] == "L" and r[3] for r in rows), "no cross-stream waits"
    zero_cap = {i for i, k in enumerate(golden["kernels"]) if k["kind"] == "transfer"}
    assert any(r[0] == "L" and r[2] in zero_cap for r in rows)
    faults = [e["faults"] for k, e in golden["expected"].items() if k.endswith("/injector")]
    assert any(f["slowdowns"] for f in faults)
    assert any(f["dropped"] for f in faults) and any(f["corrupted"] for f in faults)
