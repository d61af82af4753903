"""Paired t-test over per-fold metrics."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtr

from ielab.errors import ConfigError


def paired_t_test(a, b) -> tuple[float, float]:
    """t statistic and two-sided p for paired samples (df = k - 1).

    Zero-variance differences degenerate cleanly: all-equal pairs give
    (0, 1); a constant nonzero difference gives (+/-inf, 0). p is
    2 * stdtr(k - 1, -|t|): the bits of the survival function 2 * t.sf(|t|,
    k - 1) from scipy's stats module, which is slow to import.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError(f"paired samples must match, got {a.shape} vs {b.shape}")
    k = a.size
    if k < 2:
        raise ConfigError("paired t-test needs at least 2 pairs")
    d = a - b
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(k))
    p = 2.0 * float(stdtr(k - 1, -abs(t)))
    return float(t), p
