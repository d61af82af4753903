"""Style-embedding fusion onto encoder output, plus the shared classifier.

Fusion happens strictly at encoder output: style rows are either element-wise
summed into the per-token hidden states (table dim = encoder hidden) or
concatenated after them (table dim free, head widened accordingly). The
feature order is fixed and serialized: bold, font, fontSize, inTable, color.

Each function reads its tensors by name from the model's parameter dict (see
stylefuse.model.parameter_shapes): `style.<feature>` for each active feature,
and `head.weight`, `head.bias`. The spec fixes their shapes, so nothing here
checks widths; `ops` raises ShapeError on a mismatch.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ielab.docstream import STYLE_FEATURES
from ielab.tensorcore import ops
from ielab.tensorcore.engine import Tensor


class FusionMode(Enum):
    BASELINE = "BASELINE"
    STYLE_SUM = "STYLE_SUM"
    STYLE_CONCAT = "STYLE_CONCAT"
    IMAGE = "IMAGE"


def _feature_rows(style_ids: np.ndarray, feature: str) -> np.ndarray:
    return style_ids[STYLE_FEATURES.index(feature)]


def fuse_style_sum(L: Tensor, style_ids: np.ndarray, params: dict[str, Tensor],
                   features: tuple[str, ...]) -> Tensor:
    """e_i = L_i + sum of the active style rows; table dim must equal hidden."""
    # one node: L gathered in row order, then the style rows added in
    # feature order, with the bits of the chain L + row_bold + row_font + ...
    return ops.embedding_sum(
        [L, *(params[f"style.{f}"] for f in features)],
        [np.arange(L.data.shape[0]),
         *(_feature_rows(style_ids, f) for f in features)])


def fuse_style_concat(L: Tensor, style_ids: np.ndarray,
                      params: dict[str, Tensor],
                      features: tuple[str, ...]) -> Tensor:
    """e_i = [L_i, row_bold, row_font, row_fontSize, row_inTable, row_color]
    restricted to the active features, in that fixed order."""
    parts = [L]
    for f in features:
        parts.append(ops.embedding_sum([params[f"style.{f}"]],
                                       [_feature_rows(style_ids, f)]))
    return ops.concat_cols(parts)


def head_logits(e: Tensor, params: dict[str, Tensor], dropout_rate: float,
                rng: np.random.Generator | None = None) -> Tensor:
    """Pre-softmax scores; the training loss consumes these directly.
    Dropout applies only when an `rng` is given (training)."""
    if rng is not None and dropout_rate > 0.0:
        e = ops.dropout(e, dropout_rate, rng)
    return ops.linear(e, params["head.weight"], params["head.bias"])

