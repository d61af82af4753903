"""Minimal dense-tensor engine: float64 arrays, reverse-mode tape, Adam."""

from ielab.tensorcore.engine import (
    NumericError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    parameter,
)
from ielab.tensorcore.ops import (
    add,
    concat_cols,
    conv2d,
    cross_entropy_masked,
    dropout,
    gelu,
    layer_norm,
    linear,
    softmax_rows,
)
from ielab.tensorcore.optim import AdamState, adam_step
from ielab.tensorcore.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamState", "NumericError", "ShapeError", "Tape", "TapeError", "Tensor",
    "adam_step", "add", "backward", "concat_cols", "conv2d",
    "cross_entropy_masked", "dropout", "gelu", "layer_norm", "linear",
    "load_checkpoint", "parameter", "save_checkpoint", "softmax_rows",
]
