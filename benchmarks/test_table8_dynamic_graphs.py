"""Table 8: bucketed adaptation vs native dynamic graphs.

Paper: SCRNN-16 1.61, SCRNN-32 1.43, subLSTM-16 2.47, subLSTM-32 2.13,
StackedLSTM-16 2.44, StackedLSTM-32 2.22 -- Astra with 5-bucket profiling
beats a per-length dynamic execution despite the round-up padding.
"""

from harness import BENCH_SEQ_LEN, emit
from repro.core import run_bucketed
from repro.models import MODEL_BUILDERS, PTB_LENGTHS, model_config

CASES = [("scrnn", 16), ("scrnn", 32), ("sublstm", 16), ("sublstm", 32),
         ("stacked_lstm", 16), ("stacked_lstm", 32)]

#: scale the length distribution down so each bucket's graph stays
#: tractable for the simulator; quantile bucketing is scale-invariant
MAX_LEN = 16


def build_table():
    payload = {}
    from repro.models import LengthDistribution

    dist = LengthDistribution("ptb-scaled", mean_log=1.9, sigma_log=0.55,
                              min_len=2, max_len=MAX_LEN)
    for name, batch in CASES:
        # run_bucketed rescales seq_len to each bucket's bound
        config = model_config(name, batch, BENCH_SEQ_LEN)
        report = run_bucketed(
            MODEL_BUILDERS[name], config, dist,
            num_buckets=5, num_samples=60, features="FK", seed=2,
        )
        payload[f"{name}-{batch}"] = {
            "speedup": report.speedup,
            "buckets": report.buckets,
            "padding_overhead": report.padding_overhead,
            "configs": report.total_configs,
        }
    return payload


def test_table8(table_benchmark):
    payload = table_benchmark(build_table)
    rows = [
        [case, "1.00", f"{payload[case]['speedup']:.2f}",
         f"{payload[case]['padding_overhead']:.2f}"]
        for case in payload
    ]
    emit(
        "Table 8: Astra + bucketing vs native dynamic graphs "
        "(paper: 1.43..2.47)",
        ["model-batch", "dynamic", "astra+bucketing", "padding ovh"],
        rows,
        "table8_dynamic_graphs",
        payload,
    )
    for case, entry in payload.items():
        assert entry["speedup"] > 1.1, case
        assert len(entry["buckets"]) == 5
    # smaller batches benefit at least as much (paper's -16 rows > -32 rows)
    assert payload["sublstm-16"]["speedup"] >= payload["sublstm-32"]["speedup"] * 0.9
