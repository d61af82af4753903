"""Training-time augmentation on encoded documents.

Token replacement swaps word ids for random non-special vocabulary entries;
geometry jitter applies one document-level shift and scale about the page
center, then re-quantizes. Labels and styles are never touched.
"""

from __future__ import annotations

import numpy as np

from ielab.docstream import ModelInput, PAD_ID, UNK_ID
from ielab.errors import ConfigError

_CENTER = 500  # quantized page center


def augment_tokens(inp: ModelInput, rate: float, rng: np.random.Generator,
                   vocab_size: int) -> ModelInput:
    """Independently replace each word id with probability `rate`."""
    if vocab_size <= 2:
        raise ConfigError("token replacement needs a vocabulary beyond PAD/UNK")
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"replacement rate must be in [0,1), got {rate}")
    out = inp.copy()
    if rate == 0.0:
        return out
    T = inp.length
    hit = rng.random(T) < rate
    draws = rng.integers(2, vocab_size, size=T)  # never PAD (0) or UNK (1)
    out.word_ids = np.where(hit, draws, out.word_ids)
    assert not np.any((out.word_ids == PAD_ID) & hit)
    assert not np.any((out.word_ids == UNK_ID) & hit)
    return out


def augment_bboxes(inp: ModelInput, cfg, rng: np.random.Generator) -> ModelInput:
    """One shift (dx, dy) and one scale for all boxes, about the page center."""
    s_lo, s_hi = cfg.bbox_scale_range
    dx, dy = rng.integers(-cfg.bbox_shift_max, cfg.bbox_shift_max + 1, size=2)
    s = rng.uniform(s_lo, s_hi)
    out = inp.copy()
    shift = np.array([dx, dy, dx, dy])[:, None]
    moved = np.rint(_CENTER + s * (inp.coord_ids[:4] - _CENTER) + shift)
    out.coord_ids[:4] = np.clip(moved, 0, 1000)
    out.coord_ids[4:] = out.coord_ids[2:4] - out.coord_ids[:2]
    return out
