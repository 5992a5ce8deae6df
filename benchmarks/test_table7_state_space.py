"""Table 7: size of the exploration state space post-pruning.

Paper: 303-3207 configurations for Astra_FKS and 1191-9303 for Astra_all
across the five models; GNMT's space stays comparable to the small models
despite ~8x more layers (barrier exploration parallelizes super-epochs).
Also section 6.4: profiling overhead < 0.5%, so it can be always on.
"""

from harness import build_model, emit
from repro import AstraSession

MODELS = ("scrnn", "stacked_lstm", "milstm", "sublstm", "gnmt")


def build_table():
    payload = {}
    for name in MODELS:
        seq = 4 if name == "gnmt" else 5
        model = build_model(name, 16, seq)
        entry = {}
        for preset in ("FKS", "all"):
            rep = AstraSession(model, features=preset, seed=1).optimize()
            entry[preset] = {
                "configs": rep.configs_explored,
                "overhead": rep.astra.profiling_overhead,
                "profile_entries": rep.astra.astra_profile_entries
                if hasattr(rep.astra, "astra_profile_entries")
                else rep.astra.profile_entries,
            }
        payload[name] = entry
    return payload


def test_table7(table_benchmark):
    payload = table_benchmark(build_table)
    rows = [
        [name, payload[name]["FKS"]["configs"], payload[name]["all"]["configs"],
         f"{payload[name]['all']['overhead'] * 100:.2f}%"]
        for name in MODELS
    ]
    emit(
        "Table 7: configurations explored post-pruning "
        "(paper FKS: 303..3207, all: 1191..9303; overhead <0.5%)",
        ["model", "Astra_FKS", "Astra_all", "profiling overhead"],
        rows,
        "table7_state_space",
        payload,
    )
    for name in MODELS:
        fks = payload[name]["FKS"]["configs"]
        alla = payload[name]["all"]["configs"]
        # hundreds-to-thousands, explorable within a training prefix
        assert 10 <= fks <= 20000
        assert alla >= fks
    # barrier exploration: GNMT's space stays within ~an order of magnitude
    # of the shallow models despite ~8x more layers
    small = payload["sublstm"]["FKS"]["configs"]
    assert payload["gnmt"]["FKS"]["configs"] < 20 * small
    # always-on profiling: overhead below the paper's 0.5% bound
    for name in MODELS:
        assert payload[name]["all"]["overhead"] < 0.005
