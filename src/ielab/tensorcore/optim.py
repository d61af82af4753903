"""Bias-corrected Adam over named parameter tensors.

The update is the textbook rule, applied in place with float64 numpy
expressions over each whole parameter array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ielab.tensorcore.engine import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Optimizer state; step counts completed updates."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """Apply one Adam update to `params` in place."""
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: gradient shape {g.shape} does not match "
                f"parameter '{name}' of shape {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"adam_step: stale state for parameter '{name}'")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
