"""Small deterministic neural-network kit with hand-written gradients.

Everything runs on numpy float64 arrays shaped (batch, time, features) with
binary masks for variable-length sequences. No autodiff: each layer knows
its own backward pass, and `gradcheck` verifies them against central finite
differences.
"""

from .layers import (
    BLSTM,
    Dense,
    Dropout,
    LayerNorm,
    LogSoftmax,
    Network,
    ReLU,
    build_network,
    glorot,
    load_checkpoint,
    save_checkpoint,
)
from .losses import ce_loss, mse_loss
from .optim import Adam, adam_step
from .training import TrainConfig, pad_batch, train
from .gradcheck import max_relative_error, numerical_gradient, check_gradients

__all__ = [
    "Adam", "BLSTM", "Dense", "Dropout", "LayerNorm", "LogSoftmax",
    "Network", "ReLU", "TrainConfig", "adam_step", "build_network",
    "ce_loss", "check_gradients", "glorot", "load_checkpoint",
    "max_relative_error", "mse_loss", "numerical_gradient", "pad_batch",
    "save_checkpoint", "train",
]
