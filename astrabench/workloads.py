"""Seeded job lists for the four benchmark workloads.

Pure Python: nothing here imports ``repro``, so the job lists, the pools
the reference covers, and the tests of both run without the system.

A job is a plain dict.  Session and serve jobs carry ``model``,
``batch``, ``seq_len`` and ``features``; fleet jobs carry ``model``,
``batch``, ``seq_len`` and ``fleet``.  :func:`job_key` names a job in
``reference.json``.

The seed draws every input the system sees, but each workload draws
within strata of equal cost: a stratum fixes what sets the amount of
work (model, sequence length, feature set) and the seed draws what does
not (batch size within a band, job order, which specs repeat).  Run-to-
run spread then measures the system rather than the draw.
"""

from __future__ import annotations

import random

WORKLOADS = ("stream_explore", "fusion_zoo", "serve_warm", "fleet_search")

#: every model registered in ``repro.models.MODEL_BUILDERS``
ZOO = ("scrnn", "milstm", "sublstm", "stacked_lstm", "gnmt")

# -- stream_explore -----------------------------------------------------------
#: (model, seq_len, batches, jobs per list).  The batches are the paper's
#: small ones at which each model explores the same number of configs
#: (within 1%), so the draw does not change the work.  One milstm job
#: costs ~2.5 sublstm jobs; with two sublstm jobs per milstm job the per-
#: job p50 falls among the sublstm jobs and the p90 among the milstm ones
STREAM_STRATA = (("sublstm", 3, (2, 3, 4), 2), ("milstm", 2, (3, 4, 6), 1))

# -- fusion_zoo ---------------------------------------------------------------
#: one batch per band per model spans 8..256; an FK job's host cost is
#: nearly batch-independent, so the draw moves simulated times only
FUSION_BANDS = (
    (8, 10, 12), (16, 20, 24), (32, 40, 48),
    (64, 80, 96), (128, 160, 192), (256,),
)
FUSION_SEQ_LEN = 5

# -- serve_warm ---------------------------------------------------------------
SERVE_MODELS = ZOO
SERVE_FEATURES = ("F", "FK")
SERVE_BATCHES = (4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64)
SERVE_SEQ_LEN = 3
#: in every block of this many jobs exactly one is a first-seen spec
SERVE_BLOCK = 3

# -- fleet_search -------------------------------------------------------------
#: (model, jobs per list): scrnn once, sublstm twice, so that the per-job
#: p50 and p90 both fall among the sublstm searches however many cycles
#: of the list a run completes
FLEET_STRATA = (("scrnn", 1), ("sublstm", 2))
#: batch ~256, divisible by the 4-way shard and microbatch splits
FLEET_BATCHES = (248, 256, 264)
FLEET_SEQ_LEN = 5
FLEET_NAME = "hetero"
FLEET_WORKERS = 2


def job_key(job: dict) -> str:
    """Stable name of one job in ``reference.json``."""
    if "fleet" in job:
        return (f"fleet/{job['fleet']}/{job['model']}/b{job['batch']}"
                f"/s{job['seq_len']}")
    return (f"{job['model']}/b{job['batch']}/s{job['seq_len']}"
            f"/{job['features']}")


def _rng(workload: str, seed: int) -> random.Random:
    # a str seed hashes with SHA-512: stable across processes and
    # independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}")


def stream_explore(seed: int) -> list[dict]:
    rng = _rng("stream_explore", seed)
    jobs = []
    for model, seq_len, batches, count in STREAM_STRATA:
        for batch in rng.sample(batches, count):
            jobs.append({"model": model, "batch": batch,
                         "seq_len": seq_len, "features": "all"})
    rng.shuffle(jobs)
    return jobs


def fusion_zoo(seed: int) -> list[dict]:
    rng = _rng("fusion_zoo", seed)
    jobs = [
        {"model": model, "batch": rng.choice(band),
         "seq_len": FUSION_SEQ_LEN, "features": "FK"}
        for model in ZOO for band in FUSION_BANDS
    ]
    rng.shuffle(jobs)
    return jobs


def serve_warm(seed: int) -> list[dict]:
    """The closed loop's job sequence: one first-seen spec per block of
    ``SERVE_BLOCK`` jobs, the rest repeats of specs already submitted.

    First-seen specs cycle through the models in a seeded order, so any
    prefix holds every model in near-equal share; the sequence ends when
    the pool of distinct specs is used up.
    """
    rng = _rng("serve_warm", seed)
    by_model = {}
    for model in SERVE_MODELS:
        specs = [
            {"model": model, "batch": batch, "seq_len": SERVE_SEQ_LEN,
             "features": features}
            for features in SERVE_FEATURES for batch in SERVE_BATCHES
        ]
        rng.shuffle(specs)
        by_model[model] = specs
    fresh = []
    for round_ in range(len(SERVE_FEATURES) * len(SERVE_BATCHES)):
        models = list(SERVE_MODELS)
        rng.shuffle(models)
        fresh.extend(by_model[m][round_] for m in models)

    seen: list[dict] = []
    sequence = []
    for spec in fresh:
        # the block's first-seen spec goes anywhere but before the first
        # spec of the whole sequence (nothing to repeat yet)
        slot = 0 if not seen else rng.randrange(SERVE_BLOCK)
        for position in range(SERVE_BLOCK):
            if position == slot:
                seen.append(spec)
                sequence.append(dict(spec))
            else:
                sequence.append(dict(rng.choice(seen)))
    return sequence


def fleet_search(seed: int) -> list[dict]:
    rng = _rng("fleet_search", seed)
    jobs = [
        {"model": model, "batch": batch, "seq_len": FLEET_SEQ_LEN,
         "fleet": FLEET_NAME}
        for model, count in FLEET_STRATA
        for batch in rng.sample(FLEET_BATCHES, count)
    ]
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "stream_explore": stream_explore,
    "fusion_zoo": fusion_zoo,
    "serve_warm": serve_warm,
    "fleet_search": fleet_search,
}


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded job list (for ``serve_warm``, the job sequence)."""
    return GENERATORS[workload](seed)


def pool(workload: str) -> list[dict]:
    """Every distinct job any seed can draw for ``workload``."""
    if workload == "stream_explore":
        return [
            {"model": model, "batch": batch, "seq_len": seq_len,
             "features": "all"}
            for model, seq_len, batches, _count in STREAM_STRATA
            for batch in batches
        ]
    if workload == "fusion_zoo":
        return [
            {"model": model, "batch": batch, "seq_len": FUSION_SEQ_LEN,
             "features": "FK"}
            for model in ZOO for band in FUSION_BANDS for batch in band
        ]
    if workload == "serve_warm":
        return [
            {"model": model, "batch": batch, "seq_len": SERVE_SEQ_LEN,
             "features": features}
            for model in SERVE_MODELS for features in SERVE_FEATURES
            for batch in SERVE_BATCHES
        ]
    if workload == "fleet_search":
        return [
            {"model": model, "batch": batch, "seq_len": FLEET_SEQ_LEN,
             "fleet": FLEET_NAME}
            for model, _count in FLEET_STRATA for batch in FLEET_BATCHES
        ]
    raise KeyError(workload)
