"""Style-embedding fusion onto encoder output, plus the shared classifier.

Fusion happens strictly at encoder output: style rows are either element-wise
summed into the per-token hidden states (table dim = encoder hidden) or
concatenated after them (table dim free, head widened accordingly). The
feature order is fixed and serialized: bold, font, fontSize, inTable, color.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ielab.docstream import STYLE_FEATURES
from ielab.errors import ConfigError
from ielab.tensorcore import ops
from ielab.tensorcore.engine import Tensor


class FusionMode(Enum):
    BASELINE = "BASELINE"
    STYLE_SUM = "STYLE_SUM"
    STYLE_CONCAT = "STYLE_CONCAT"
    IMAGE = "IMAGE"


@dataclass
class StyleTables:
    """One embedding table per active style feature, all of width `dim`."""

    features: tuple[str, ...]
    tables: dict[str, Tensor]
    dim: int

    def __post_init__(self):
        unknown = set(self.features) - set(STYLE_FEATURES)
        if unknown:
            raise ConfigError(f"unknown style features {sorted(unknown)}")
        ordered = tuple(f for f in STYLE_FEATURES if f in self.features)
        if self.features != ordered:
            raise ConfigError(
                f"style features must follow canonical order {STYLE_FEATURES}")
        for f in self.features:
            if self.tables[f].data.shape[1] != self.dim:
                raise ConfigError(
                    f"style table {f!r} has width {self.tables[f].data.shape[1]}, "
                    f"expected {self.dim}")


def _feature_rows(style_ids: np.ndarray, feature: str) -> np.ndarray:
    return style_ids[STYLE_FEATURES.index(feature)]


def fuse_style_sum(L: Tensor, style_ids: np.ndarray, tables: StyleTables) -> Tensor:
    """e_i = L_i + sum of the active style rows; table dim must equal hidden."""
    hidden = L.data.shape[-1]
    if tables.dim != hidden:
        raise ConfigError(
            f"sum fusion needs style dim == hidden ({hidden}), got {tables.dim}")
    # one node: L gathered in row order, then the style rows added in
    # feature order, with the bits of the chain L + row_bold + row_font + ...
    return ops.embedding_sum(
        [L, *(tables.tables[f] for f in tables.features)],
        [np.arange(L.data.shape[0]),
         *(_feature_rows(style_ids, f) for f in tables.features)])


def fuse_style_concat(L: Tensor, style_ids: np.ndarray, tables: StyleTables) -> Tensor:
    """e_i = [L_i, row_bold, row_font, row_fontSize, row_inTable, row_color]
    restricted to the active features, in that fixed order."""
    parts = [L]
    for f in tables.features:
        parts.append(ops.embedding_sum([tables.tables[f]],
                                       [_feature_rows(style_ids, f)]))
    return ops.concat_cols(parts)


@dataclass
class ClassifierHead:
    """Dropout -> dense -> softmax token classifier."""

    weight: Tensor      # (D_in, label_count)
    bias: Tensor        # (label_count,)
    dropout_rate: float = 0.3


def head_logits(e: Tensor, head: ClassifierHead, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
    """Pre-softmax scores; the training loss consumes these directly."""
    d_in = head.weight.data.shape[0]
    if e.data.shape[-1] != d_in:
        raise ConfigError(
            f"classifier expects width {d_in}, got {e.data.shape[-1]} "
            "(fusion mode and head are wired inconsistently)")
    if training and head.dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("training-mode head_logits needs an rng for dropout")
        e = ops.dropout(e, head.dropout_rate, rng)
    return ops.linear(e, head.weight, head.bias)


def classify(e: Tensor, head: ClassifierHead) -> Tensor:
    """Per-token class probabilities (softmax rows) at inference, without
    dropout; training takes head_logits into the loss instead."""
    return ops.softmax_rows(head_logits(e, head))
