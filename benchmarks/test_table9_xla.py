"""Table 9: the TensorFlow prototype (Astra_FK) vs XLA.

Paper: on embedding-less variants, XLA gives 0.98-1.45x over native TF
while Astra_FK gives 1.32-2.0x (25-70% over XLA).  With embeddings, XLA
is up to 3x WORSE than native TF (host/device transitions around
lookups), which is why the variants exist.  The stacked LSTM / GNMT rows
also report cuDNN for reference.
"""

from harness import build_model, emit
from repro import AstraSession
from repro.baselines import cudnn_applicable, run_cudnn, run_native, run_xla
from repro.gpu import P100

MODELS = ("scrnn", "milstm", "sublstm", "stacked_lstm", "gnmt")
BATCHES = (16, 32)


def build_table():
    payload = {}
    for name in MODELS:
        for batch in BATCHES:
            seq = 4 if name == "gnmt" else 5
            model = build_model(name, batch, seq, use_embedding=False)
            native = run_native(model.graph, P100).total_time_us
            xla = run_xla(model.graph, P100).total_time_us
            # the TF prototype: fusion pays tensor copies, no streams (5.4)
            fk = AstraSession(model, features="FK-tf", seed=1).optimize()
            entry = {
                "native_us": native,
                "xla_speedup": native / xla,
                "fk_speedup": native / fk.best_time_us,
                "fk_over_xla": xla / fk.best_time_us,
            }
            if cudnn_applicable(model.graph):
                cudnn = run_cudnn(model.graph, P100).total_time_us
                entry["cudnn_speedup"] = native / cudnn
            payload[f"{name} ({batch})"] = entry

    # the embedding pathology itself (with-embedding variants)
    for name in ("scrnn", "sublstm"):
        model = build_model(name, 16, 5)
        native = run_native(model.graph, P100).total_time_us
        xla = run_xla(model.graph, P100).total_time_us
        payload[f"{name}+embeddings"] = {"xla_speedup": native / xla}
    return payload


def test_table9(table_benchmark):
    payload = table_benchmark(build_table)
    rows = []
    for case, entry in payload.items():
        if "fk_speedup" not in entry:
            continue
        rows.append([
            case, "1.00",
            f"{entry['xla_speedup']:.2f}",
            f"{entry['fk_speedup']:.2f} ({entry['fk_over_xla']:.2f})",
            f"{entry.get('cudnn_speedup', float('nan')):.2f}" if "cudnn_speedup" in entry else "-",
        ])
    emit(
        "Table 9: Astra_FK vs XLA, embedding-less variants "
        "(paper XLA: 0.98-1.45, Astra_FK rel XLA in parens: 0.95-1.72)",
        ["model (batch)", "TF", "TF+XLA", "Astra_FK (rel XLA)", "cuDNN"],
        rows,
        "table9_xla",
        payload,
    )
    fk_over_xla = [
        e["fk_over_xla"] for k, e in payload.items() if "fk_over_xla" in e
    ]
    # Astra_FK beats XLA on most rows, by up to ~70%
    assert sum(1 for r in fk_over_xla if r > 1.0) >= len(fk_over_xla) - 2
    assert max(fk_over_xla) > 1.3
    # XLA itself helps the embedding-less variants
    xla = [e["xla_speedup"] for k, e in payload.items() if "fk_speedup" in e]
    assert all(s > 0.9 for s in xla)
    # ... but hurts badly once embeddings are present (up to 3x worse)
    assert payload["scrnn+embeddings"]["xla_speedup"] < 0.75
    assert payload["sublstm+embeddings"]["xla_speedup"] < 0.75
