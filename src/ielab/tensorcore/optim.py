"""Bias-corrected Adam over named parameter tensors.

The update is the textbook rule, applied in place with float64 numpy
expressions over each whole parameter array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ielab.tensorcore.engine import ShapeError, Tensor

@dataclass
class AdamState:
    """Optimizer state; step counts completed updates."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """Apply one Adam update in place; returns the same params and state."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state
