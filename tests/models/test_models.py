"""Structural tests for the model zoo."""

import numpy as np
import pytest

from repro.ir import Interpreter, random_bindings
from repro.models import (
    MODEL_BUILDERS,
    ModelConfig,
    build_gnmt,
    build_model,
    build_scrnn,
    build_stacked_lstm,
    build_sublstm,
)
from tests.conftest import TINY


class TestTracing:
    def test_all_models_trace_and_validate(self, all_tiny_models):
        for model in all_tiny_models:
            model.graph.validate()
            assert len(model.graph) > 50

    def test_training_graphs_have_both_passes(self, all_tiny_models):
        for model in all_tiny_models:
            tags = {n.pass_tag for n in model.graph.compute_nodes()}
            assert tags == {"forward", "backward"}, model.name

    def test_inference_graph_forward_only(self):
        model = build_scrnn(TINY.scaled(train=False))
        tags = {n.pass_tag for n in model.graph.compute_nodes()}
        assert tags == {"forward"}

    def test_param_gradients_exist(self, tiny_sublstm):
        g = tiny_sublstm.graph
        # every gate weight should receive a gradient output
        assert len(g.outputs) > len(g.params()) // 2

    def test_logits_per_step(self, tiny_scrnn):
        assert len(tiny_scrnn.logit_nodes) == tiny_scrnn.config.seq_len


class TestShapesScaleWithConfig:
    @pytest.mark.parametrize("batch", [2, 8])
    def test_batch_size_propagates(self, batch):
        model = build_sublstm(TINY.scaled(batch_size=batch))
        logits = model.graph.node(model.logit_nodes[0])
        assert logits.spec.shape[0] == batch

    def test_seq_len_scales_gemm_count(self):
        short = build_sublstm(TINY.scaled(seq_len=2))
        long = build_sublstm(TINY.scaled(seq_len=4))
        assert len(long.graph.gemm_nodes()) > len(short.graph.gemm_nodes())

    def test_layers_scale_stacked_lstm(self):
        one = build_stacked_lstm(TINY.scaled(num_layers=1))
        two = build_stacked_lstm(TINY.scaled(num_layers=2))
        assert len(two.graph.gemm_nodes()) > len(one.graph.gemm_nodes())

    def test_embedding_optional(self):
        with_e = build_sublstm(TINY)
        without = build_sublstm(TINY.scaled(use_embedding=False))
        kinds_with = {n.kind for n in with_e.graph.compute_nodes()}
        kinds_without = {n.kind for n in without.graph.compute_nodes()}
        assert "embedding" in kinds_with
        assert "embedding" not in kinds_without


class TestBuildModel:
    """``build_model``: one zoo model at a requested shape."""

    def test_scales_default_config(self):
        from repro.models import scrnn

        model = build_model("scrnn", 4, 2, use_embedding=False)
        assert model.config == scrnn.DEFAULT_CONFIG.scaled(
            batch_size=4, seq_len=2, use_embedding=False
        )
        assert model.name == build_scrnn(model.config).name

    def test_unknown_name_lists_the_zoo(self):
        with pytest.raises(ValueError, match="unknown model 'nope'") as err:
            build_model("nope", 4, 2)
        for name in MODEL_BUILDERS:
            assert repr(name) in str(err.value)


class TestModelStructure:
    def test_sublstm_gate_count(self):
        """4 gates x 2 GEMMs per step, plus 1 head GEMM per step, times
        seq_len, doubled-ish by backward."""
        model = build_sublstm(TINY)
        fwd_gemms = [
            n for n in model.graph.gemm_nodes() if n.pass_tag == "forward"
        ]
        per_step = len(fwd_gemms) / TINY.seq_len
        assert per_step == pytest.approx(9)  # 8 gate + 1 head

    def test_scrnn_context_layer(self):
        model = build_scrnn(TINY)
        fwd_gemms = [n for n in model.graph.gemm_nodes() if n.pass_tag == "forward"]
        per_step = len(fwd_gemms) / TINY.seq_len
        assert per_step == pytest.approx(5)  # B, P, A, R + head

    def test_gnmt_depth(self):
        shallow = build_gnmt(TINY.scaled(num_layers=1))
        deep = build_gnmt(TINY.scaled(num_layers=2))
        assert len(deep.graph.gemm_nodes()) > 1.5 * len(shallow.graph.gemm_nodes())

    def test_gnmt_has_attention_gemms(self, tiny_gnmt):
        scopes = {
            n.scope for n in tiny_gnmt.graph.gemm_nodes() if "attention" in n.scope
        }
        assert scopes

    def test_milstm_has_multiplicative_integration(self, tiny_milstm):
        """MI gates multiply Wx and Uh elementwise -- there must be muls
        consuming two GEMM outputs."""
        g = tiny_milstm.graph
        found = False
        for node in g.compute_nodes():
            if node.op.name != "mul" or node.pass_tag != "backward":
                pass
            if node.op.name == "mul" and all(
                g.node(i).kind == "gemm" for i in node.input_ids
            ):
                found = True
        assert found


class TestNumericalSanity:
    @pytest.mark.parametrize("name", ["scrnn", "sublstm"])
    def test_loss_finite(self, name):
        model = MODEL_BUILDERS[name](TINY)
        bindings = random_bindings(model.graph, seed=0, int_high=TINY.vocab_size)
        values = Interpreter(model.graph).run(bindings)
        loss = values[model.loss.node.node_id]
        assert np.isfinite(loss).all()

    def test_loss_is_mean_scaled(self, tiny_scrnn):
        """Loss carries the 1/(batch*seq) normalization."""
        scale_nodes = [
            n for n in tiny_scrnn.graph.compute_nodes()
            if n.op.name == "scale" and n.scope.startswith("head/total")
        ]
        assert scale_nodes
