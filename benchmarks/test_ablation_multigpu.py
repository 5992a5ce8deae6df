"""Section 3.4 extension: data-parallel degree chosen by measurement.

"Depending on the communication cost of the model and the physical
characteristics of the network, the choice of ideal degree of parallelism
... could be taken in an automated manner with runtime measurement and
adaptation."  This bench measures subLSTM scaling over PCIe and NVLink
fabrics: the best degree differs per fabric, which is exactly why a
static choice is wrong.  Every number comes from the fleet strategy
search (``run_fleet_search``, exhaustive) -- on homogeneous P100 fleets
for the degree curve and the data-vs-pipeline decision, and on the mixed
fleet for the heterogeneous sweep.
"""

from harness import emit
from repro.distributed import NVLINK, PCIE
from repro.fleet import FleetDevice, FleetSpec, get_fleet, run_fleet_search
from repro.gpu import P100
from repro.models import build_scrnn, build_stacked_lstm, build_sublstm, model_config

#: the data-parallel degrees the curve reports.  The fleet measures all
#: eight; NVLink's best over all of them is x6, so ``nvlink_best`` (x8)
#: is the best of this set, not of the fleet
DEGREES = (1, 2, 4, 8)


def p100_fleet(count, fabric):
    """``count`` P100s on one fabric: the homogeneous fleet of the paper."""
    return FleetSpec(
        name=f"p100x{count}_{fabric.name}",
        devices=tuple(FleetDevice(f"gpu{i}", P100) for i in range(count)),
        interconnect=fabric,
    )


def build_table():
    config = model_config("sublstm", 128, 5)
    payload = {}
    for fabric in (PCIE, NVLINK):
        report = run_fleet_search(
            build_sublstm, config, p100_fleet(max(DEGREES), fabric),
            model_name="sublstm", exhaustive=True,
        )
        rows = {
            len(row["detail"]["replicas"]): row
            for row in report.table if row["kind"] == "data"
        }
        base = rows[1]["per_sample_us"]
        payload[fabric.name] = [
            {
                "world": world,
                "per_sample_us": rows[world]["per_sample_us"],
                "exposed_comm_us": rows[world]["detail"]["exposed_comm_us"],
                "efficiency": base / rows[world]["per_sample_us"],
            }
            for world in DEGREES
        ]
        payload[fabric.name + "_best"] = min(
            DEGREES, key=lambda world: rows[world]["per_sample_us"]
        )

    # model partitioning: data vs pipeline at world=2 on a 4-layer stack
    deep = model_config("stacked_lstm", 32, 4, num_layers=4)
    world2 = run_fleet_search(
        build_stacked_lstm, deep, p100_fleet(2, PCIE),
        model_name="stacked_lstm", exhaustive=True, microbatches=4,
    )
    data = next(
        row for row in world2.table
        if row["kind"] == "data" and len(row["detail"]["replicas"]) == 2
    )
    pipe = min(
        (row for row in world2.table
         if row["kind"] == "pipeline" and len(row["detail"]["stages"]) == 2),
        key=lambda row: row["per_sample_us"],
    )
    payload["partitioning"] = [
        {"kind": row["kind"], "per_sample_us": row["per_sample_us"]}
        for row in sorted((data, pipe), key=lambda row: row["per_sample_us"])
    ]

    # heterogeneous fleet: the exhaustive sweep over a mixed 2xP100+2xV100
    # NVLink fleet finds a weighted-split winner that no homogeneous subset
    # matches at full batch
    fleet = get_fleet("hetero")
    scrnn = model_config("scrnn", 256, 5)
    report = run_fleet_search(
        build_scrnn, scrnn, fleet, model_name="scrnn", exhaustive=True
    )
    payload["fleet"] = {
        "model": "scrnn",
        "batch": scrnn.batch_size,
        "fleet": report.fleet,
        "winner": report.winner.label,
        "winner_hetero": report.hetero_winner,
        "winner_per_sample_us": report.winner_per_sample_us,
        "best_homogeneous": report.best_homogeneous_label,
        "best_homogeneous_us": report.best_homogeneous_us,
        "strategies": [
            {
                "label": row["label"],
                "kind": row["kind"],
                "heterogeneous": row["heterogeneous"],
                "per_sample_us": row["per_sample_us"],
            }
            for row in report.table
        ],
    }

    # the same fleet on a deep stack enumerates pipeline cuts alongside
    # data-parallel strategies -- both kinds land in one adaptive variable
    deep_report = run_fleet_search(
        build_stacked_lstm,
        deep,
        fleet,
        model_name="stacked_lstm",
        exhaustive=True,
        microbatches=4,
    )
    payload["fleet_partitioning"] = {
        "model": "stacked_lstm",
        "winner": deep_report.winner.label,
        "winner_kind": deep_report.winner.kind,
        "strategies": [
            {
                "label": row["label"],
                "kind": row["kind"],
                "per_sample_us": row["per_sample_us"],
            }
            for row in deep_report.table
        ],
    }
    return payload


def test_ablation_multigpu(table_benchmark):
    payload = table_benchmark(build_table)
    rows = []
    for fabric in ("pcie", "nvlink"):
        for m in payload[fabric]:
            rows.append([
                fabric, m["world"], f"{m['per_sample_us']:.1f}",
                f"{m['exposed_comm_us']:.0f}us", f"{m['efficiency']:.2f}",
            ])
    emit(
        "Ablation (section 3.4): data-parallel degree by measurement",
        ["fabric", "GPUs", "us/sample", "exposed comm", "efficiency"],
        rows,
        "ablation_multigpu",
        payload,
    )
    rows2 = [
        ["(partitioning)", d["kind"], f"{d['per_sample_us']:.1f}", "-", "-"]
        for d in payload["partitioning"]
    ]
    for s in payload["fleet_partitioning"]["strategies"]:
        us = s["per_sample_us"]
        rows2.append([
            "(hetero fleet)", s["kind"],
            f"{us:.1f}" if us is not None else "-", s["label"], "-",
        ])
    emit(
        "Ablation (section 6.7): data vs pipeline partitioning at world=2",
        ["fabric", "kind", "us/sample", "-", "-"],
        rows2,
        "ablation_partitioning",
        {
            "world2": payload["partitioning"],
            "hetero_fleet": payload["fleet_partitioning"],
        },
    )
    fleet = payload["fleet"]
    rows3 = [
        [
            s["kind"], "hetero" if s["heterogeneous"] else "homo",
            f"{s['per_sample_us']:.3f}" if s["per_sample_us"] is not None else "-",
            s["label"],
        ]
        for s in fleet["strategies"]
    ]
    emit(
        f"Ablation (hetero fleet): scrnn@{fleet['batch']} on {fleet['fleet']}",
        ["kind", "mix", "us/sample", "strategy"],
        rows3,
        "ablation_fleet",
        fleet,
    )
    # communication-bound on PCIe caps scaling earlier than NVLink
    assert payload["nvlink_best"] >= payload["pcie_best"]
    # efficiency decays with world size on the slower fabric
    pcie_eff = [m["efficiency"] for m in payload["pcie"]]
    assert pcie_eff[-1] < pcie_eff[0] * 1.5
    # both partitioning kinds measured; ordering by measured time
    kinds = [d["kind"] for d in payload["partitioning"]]
    assert set(kinds) == {"data", "pipeline"}
    # the mixed fleet's winner uses both device classes and beats every
    # homogeneous placement at full batch
    assert fleet["winner_hetero"], fleet["winner"]
    assert fleet["winner_per_sample_us"] < fleet["best_homogeneous_us"]
    # the deep stack enumerates both partitioning kinds in one variable
    fleet_kinds = {s["kind"] for s in payload["fleet_partitioning"]["strategies"]}
    assert fleet_kinds == {"data", "pipeline"}
