"""Tests for the multi-GPU dimension (§3.4 degree, §6.7 partitioning).

The fabrics and cost terms live in ``repro.distributed``; the degree and
the kind of partitioning are chosen by the fleet strategy search, so the
behavioural tests drive ``run_fleet_search`` (exhaustive) on homogeneous
P100 fleets.
"""

import pytest

import repro.models.stacked_lstm as ST
import repro.models.sublstm as SU
from repro.distributed import NVLINK, PCIE, gradient_bytes
from repro.fleet import FleetDevice, FleetSpec, run_fleet_search
from repro.gpu import P100
from repro.models import build_stacked_lstm, build_sublstm
from tests.conftest import TINY

STACK = ST.DEFAULT_CONFIG.scaled(batch_size=16, seq_len=3, num_layers=4,
                                 hidden_size=256, embed_size=256)


def _search(builder, config, count, fabric=PCIE, **kwargs):
    fleet = FleetSpec(
        name=f"p100x{count}_{fabric.name}",
        devices=tuple(FleetDevice(f"gpu{i}", P100) for i in range(count)),
        interconnect=fabric,
    )
    return run_fleet_search(builder, config, fleet, exhaustive=True, **kwargs)


def _rows(report, kind):
    return [row for row in report.table if row["kind"] == kind]


def _data_row(report, world):
    return next(
        row for row in _rows(report, "data")
        if len(row["detail"]["replicas"]) == world
    )


def _stages(row):
    return len(row["detail"]["stages"])


@pytest.fixture(scope="module")
def sublstm_x4():
    return _search(build_sublstm, TINY.scaled(batch_size=8), 4)


@pytest.fixture(scope="module")
def stack_x4():
    return _search(build_stacked_lstm, STACK, 4)


class TestInterconnect:
    def test_allreduce_zero_for_single(self):
        assert PCIE.allreduce_us(10**6, 1) == 0.0

    def test_allreduce_grows_with_world(self):
        assert PCIE.allreduce_us(10**6, 4) > PCIE.allreduce_us(10**6, 2)

    def test_allreduce_grows_with_bytes(self):
        assert PCIE.allreduce_us(10**7, 4) > PCIE.allreduce_us(10**6, 4)

    def test_nvlink_faster_than_pcie(self):
        assert NVLINK.allreduce_us(10**7, 4) < PCIE.allreduce_us(10**7, 4)

    def test_ring_volume_saturates(self):
        """Per-replica traffic approaches 2x bytes as N grows (ring
        all-reduce property), so doubling N far from doubles the time."""
        t2 = PCIE.allreduce_us(10**7, 2)
        t16 = PCIE.allreduce_us(10**7, 16)
        assert t16 < 2.5 * t2

    def test_broadcast(self):
        assert PCIE.broadcast_us(10**6, 1) == 0.0
        assert PCIE.broadcast_us(10**6, 4) > 0


class TestMeasureDegree:
    """One data-parallel degree, as the fleet search measures it."""

    def test_strong_scaling_divides_batch(self, sublstm_x4):
        replicas = _data_row(sublstm_x4, 4)["detail"]["replicas"]
        assert [r["shard"] for r in replicas] == [2, 2, 2, 2]

    def test_communication_overlap_bounded(self, sublstm_x4):
        for row in _rows(sublstm_x4, "data"):
            detail = row["detail"]
            assert 0 <= detail["exposed_comm_us"] <= detail["allreduce_us"]

    def test_gradient_bytes_counts_params(self, tiny_sublstm):
        assert gradient_bytes(tiny_sublstm.graph) == sum(
            n.spec.size_bytes for n in tiny_sublstm.graph.params()
        )

    def test_astra_inside_replicas(self):
        """Section 6.7: single-GPU adaptation benefits each replica."""
        config = TINY.scaled(batch_size=8)
        plain = _data_row(_search(build_sublstm, config, 2), 2)
        tuned = _data_row(
            _search(build_sublstm, config, 2, use_astra=True), 2
        )
        for p, t in zip(plain["detail"]["replicas"],
                        tuned["detail"]["replicas"]):
            assert t["compute_us"] < p["compute_us"]
        assert tuned["per_sample_us"] < plain["per_sample_us"]


class TestChooseParallelism:
    """The degree is picked by measuring every candidate."""

    def test_sorted_by_per_sample_time(self, sublstm_x4):
        fastest = min(row["per_sample_us"] for row in sublstm_x4.table)
        assert sublstm_x4.winner_per_sample_us == fastest

    def test_fabric_changes_the_answer(self):
        """The paper's point: the ideal degree depends on the physical
        network, so it must be measured per deployment."""
        config = SU.DEFAULT_CONFIG.scaled(batch_size=64, seq_len=2)
        pcie = _search(build_sublstm, config, 4, PCIE)
        nvlink = _search(build_sublstm, config, 4, NVLINK)
        # the faster fabric makes a larger degree pay
        assert nvlink.winner.world > pcie.winner.world

    def test_degrees_beyond_batch_skipped(self):
        report = _search(build_sublstm, TINY.scaled(batch_size=2), 4)
        assert {len(r["detail"]["replicas"]) for r in report.table} == {1, 2}

    def test_scaling_efficiency_baseline(self, sublstm_x4):
        """The single-GPU row, the baseline every efficiency is taken
        against, is always measured and pays no communication."""
        base = _data_row(sublstm_x4, 1)
        assert base["per_sample_us"] is not None
        assert base["detail"]["allreduce_us"] == 0.0
        assert base["detail"]["exposed_comm_us"] == 0.0


class TestPipeline:
    """Pipeline cuts of the layer stack, measured beside data parallelism."""

    def test_stages_partition_layers(self, stack_x4):
        for row in _rows(stack_x4, "pipeline"):
            stages = row["detail"]["stages"]
            all_scopes = [s for stage in stages for s in stage["scopes"]]
            assert sorted(all_scopes) == sorted(set(all_scopes))  # disjoint
            assert len(all_scopes) == 4  # every layer placed
            assert all(stage["compute_us"] > 0 for stage in stages)

    def test_bubble_grows_with_stages(self, stack_x4):
        def slots(row):
            detail = row["detail"]
            samples = detail["microbatch"] * 4
            return row["per_sample_us"] * samples / detail["beat_us"]

        rows = _rows(stack_x4, "pipeline")
        two = max(slots(r) for r in rows if _stages(r) == 2)
        four = min(slots(r) for r in rows if _stages(r) == 4)
        # deeper pipelines pay more bubble slots
        assert four > two

    def test_too_many_stages_rejected(self):
        report = _search(build_stacked_lstm, STACK.scaled(num_layers=2), 4)
        assert {_stages(r) for r in _rows(report, "pipeline")} == {2}

    def test_partitioning_decision_measured(self):
        report = _search(build_stacked_lstm, STACK, 2)
        assert {row["kind"] for row in report.table} == {"data", "pipeline"}
        fastest = min(row["per_sample_us"] for row in report.table)
        assert report.winner_per_sample_us == fastest

    def test_single_layer_model_has_no_pipeline_option(self):
        report = _search(build_sublstm, TINY, 3)
        assert {row["kind"] for row in report.table} == {"data"}
