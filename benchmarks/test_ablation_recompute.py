"""Section 3.4 extension: recomputation as a measured memory/compute trade.

The paper motivates trading compute for memory ("if the cost of
recomputation ... is lower than the parallelism benefit from supporting
say a 2x larger mini-batch size, again a complex dynamic that needs
measurement").  This bench measures that decision on subLSTM: under a
memory budget that only admits the 2x batch *with* recomputation, the
per-sample training time still favors the bigger batch at small batch
sizes (the GPU is underutilized), and the decision flips as batch grows.
"""

from harness import emit
from repro.core.recompute import best_batch_under_budget, estimate_memory
from repro.models import build_sublstm, model_config


def build_table():
    payload = {}
    for base_batch in (8, 32, 128):
        config = model_config("sublstm", base_batch, 5)
        big = estimate_memory(build_sublstm(config.scaled(batch_size=base_batch * 2)).graph)
        budget = big.total_bytes - big.activation_bytes // 3  # 2x fits only w/ recompute
        decisions = best_batch_under_budget(
            build_sublstm, config, budget, batch_factors=(1, 2)
        )
        payload[base_batch] = [
            {
                "batch": d.batch_size,
                "per_sample_us": d.per_sample_us,
                "recomputed_segments": len(d.recompute.segments),
                "extra_us": d.recompute.extra_time_us,
            }
            for d in decisions
        ]
    return payload


def test_ablation_recompute(table_benchmark):
    payload = table_benchmark(build_table)
    rows = []
    for base, decisions in payload.items():
        for d in decisions:
            rows.append([
                base, d["batch"], f"{d['per_sample_us']:.1f}",
                d["recomputed_segments"], f"{d['extra_us']:.0f}us",
            ])
    emit(
        "Ablation (section 3.4): batch-size vs recomputation under a memory budget",
        ["base batch", "candidate batch", "us/sample", "recomputed segs", "recompute cost"],
        rows,
        "ablation_recompute",
        payload,
    )
    # at small batch, doubling (with recompute) wins per sample
    assert payload[8][0]["batch"] == 16
    assert payload[8][0]["recomputed_segments"] > 0
    # every candidate that needed recomputation actually paid for it
    for decisions in payload.values():
        for d in decisions:
            if d["recomputed_segments"]:
                assert d["extra_us"] > 0
