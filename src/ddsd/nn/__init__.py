"""Minimal reverse-mode neural network kernel: layers, loss, optimizer, training."""

from .graph import ModelGraph
from .layers import (
    Branches,
    Context,
    Dense,
    Dropout,
    GRU,
    LayerNorm,
    layer_from_descriptor,
    sigmoid,
)
from .losses import weighted_bce
from .optim import Adam, global_grad_norm
from .train import (
    EpochStats,
    TrainConfig,
    balanced_class_weights,
    fit,
    pad_batch,
    predict,
)

__all__ = [
    "Adam",
    "Branches",
    "Context",
    "Dense",
    "Dropout",
    "EpochStats",
    "GRU",
    "LayerNorm",
    "ModelGraph",
    "TrainConfig",
    "balanced_class_weights",
    "fit",
    "global_grad_norm",
    "layer_from_descriptor",
    "pad_batch",
    "predict",
    "sigmoid",
    "weighted_bce",
]
