"""Model zoo: the five models of the paper's evaluation (section 6.1).

Long-tail cells (SC-RNN, MI-LSTM, subLSTM) exercise Astra where cuDNN has
no coverage; the stacked LSTM and GNMT provide the cuDNN comparison
points.  Each builder traces one training mini-batch (forward + loss +
backward) at fixed shapes.
"""

import importlib

from .cells import ModelBuilder, ModelConfig, TracedModel
from .datasets import (
    HUTTER_LENGTHS,
    PAPER_PTB_BUCKETS,
    PTB_LENGTHS,
    LengthDistribution,
    bucket_for,
    compute_buckets,
)
from .attn_lstm import build_attn_lstm
from .gnmt import build_gnmt
from .milstm import build_milstm
from .rhn import build_rhn
from .scrnn import build_scrnn
from .stacked_lstm import build_stacked_lstm
from .sublstm import build_sublstm
from .tcn import build_tcn

#: the five models of the paper's evaluation (section 6.1)
MODEL_BUILDERS = {
    "scrnn": build_scrnn,
    "milstm": build_milstm,
    "sublstm": build_sublstm,
    "stacked_lstm": build_stacked_lstm,
    "gnmt": build_gnmt,
}

#: additional long-tail cells named in the paper's introduction
EXTRA_BUILDERS = {
    "rhn": build_rhn,
    "attn_lstm": build_attn_lstm,
    "tcn": build_tcn,
}



def model_config(name: str, batch: int, seq_len: int, **overrides) -> ModelConfig:
    """Zoo model ``name``'s default configuration at ``batch`` x ``seq_len``."""
    if name not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {name!r}; have {sorted(MODEL_BUILDERS)}")
    module = importlib.import_module(f"{__name__}.{name}")
    return module.DEFAULT_CONFIG.scaled(
        batch_size=batch, seq_len=seq_len, **overrides
    )


def build_model(name: str, batch: int, seq_len: int, **overrides) -> TracedModel:
    """Trace zoo model ``name`` at ``batch`` x ``seq_len``; ``overrides``
    are further :class:`ModelConfig` fields (e.g. ``use_embedding``)."""
    config = model_config(name, batch, seq_len, **overrides)
    return MODEL_BUILDERS[name](config)


__all__ = [
    "ModelBuilder", "ModelConfig", "TracedModel",
    "HUTTER_LENGTHS", "PAPER_PTB_BUCKETS", "PTB_LENGTHS",
    "LengthDistribution", "bucket_for", "compute_buckets",
    "build_attn_lstm", "build_gnmt", "build_milstm", "build_rhn",
    "build_scrnn", "build_stacked_lstm", "build_sublstm",
    "build_tcn", "MODEL_BUILDERS", "EXTRA_BUILDERS",
    "build_model", "model_config",
]
