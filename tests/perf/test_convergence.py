"""Convergence equivalence: pruned exploration must pick the *same*
winning configuration and the *same* final epoch time as exhaustive
(``--no-prune``) exploration -- the acceptance invariant of the fast
path, pinned on both GPU generations: the FK pre-ranker on the two
bundled RNN models, and with ``features="all"`` (FK pre-ranker plus the
stream bound) on the whole registered zoo.  The budget lets the
exhaustive run finish every phase."""

import pytest

from repro.core.session import AstraSession
from repro.gpu import DEVICES
from repro.models import MODEL_BUILDERS, ModelConfig, build_model
from repro.perf import FastPath

CONFIG = ModelConfig(batch_size=4, seq_len=3, hidden_size=32, embed_size=32,
                     vocab_size=50)
#: the deep models at two layers, as in tests/conftest.py
LAYERED = {"stacked_lstm", "gnmt"}
CASES = [("FK", "milstm"), ("FK", "scrnn")] + [
    ("all", name) for name in sorted(MODEL_BUILDERS)
]


def _optimize(model, device, fast, features):
    return AstraSession(
        model, device=device, features=features, seed=0, fast=fast
    ).optimize(max_minibatches=3000)


@pytest.mark.parametrize("device_name", ["P100", "V100"])
@pytest.mark.parametrize(
    "features,model_name", CASES, ids=[f"{f}-{m}" for f, m in CASES]
)
def test_pruned_equals_exhaustive(model_name, device_name, features):
    config = CONFIG.scaled(num_layers=2) if model_name in LAYERED else CONFIG
    model = MODEL_BUILDERS[model_name](config)
    device = DEVICES[device_name]
    exhaustive = _optimize(
        model, device, FastPath(cache=True, prune=False), features
    )
    pruned = _optimize(
        model, device, FastPath(cache=True, prune=True), features
    )

    assert pruned.best_time_us == exhaustive.best_time_us, (
        f"{model_name}/{device_name}/{features}: final epoch time diverged"
    )
    assert pruned.astra.assignment == exhaustive.astra.assignment, (
        f"{model_name}/{device_name}/{features}: winning configuration diverged"
    )
    assert (
        pruned.astra.best_strategy.strategy_id
        == exhaustive.astra.best_strategy.strategy_id
    )
    # pruning must actually have engaged (otherwise this test is vacuous)
    assert pruned.astra.fast_path["choices_pruned"] > 0
    # and spent strictly fewer mini-batches discovering the same winner
    assert pruned.configs_explored <= exhaustive.configs_explored
    if features == "all":
        # the stream bound engaged, and the end-to-end compare of every
        # strategy measured exactly what the exhaustive run measured
        assert pruned.astra.fast_path["stream_prune"]["choices_pruned"] > 0
        assert pruned.astra.strategy_times == exhaustive.astra.strategy_times


def test_cache_alone_changes_nothing(tiny_scrnn):
    """The cache-only fast path (the library default) is behaviourally
    invisible: identical report, identical exploration trajectory."""
    plain = _optimize(tiny_scrnn, DEVICES["P100"],
                      FastPath(cache=False, prune=False), "all")
    cached = _optimize(tiny_scrnn, DEVICES["P100"],
                       FastPath(cache=True, prune=False), "all")
    assert cached.best_time_us == plain.best_time_us
    assert cached.astra.assignment == plain.astra.assignment
    assert cached.configs_explored == plain.configs_explored
    assert cached.astra.fast_path["cache"]["hit_rate"] > 0.0


def test_lockstep_super_epochs_match_exhaustive():
    """scrnn at batch 256 explores three super-epochs in lockstep, and
    their units interleave across the barriers, so one super-epoch's
    measurements depend on the others' concurrent choices.  The stream
    bound must keep every pairing: visiting one super-epoch's choices in
    bound order while the others still explore changes the winner here."""
    model = build_model("scrnn", 256, 5)
    device = DEVICES["P100"]
    exhaustive = _optimize(model, device, FastPath(cache=True, prune=False), "all")
    pruned = _optimize(model, device, FastPath(cache=True, prune=True), "all")
    assert pruned.best_time_us == exhaustive.best_time_us
    assert pruned.astra.assignment == exhaustive.astra.assignment
    assert pruned.astra.strategy_times == exhaustive.astra.strategy_times
