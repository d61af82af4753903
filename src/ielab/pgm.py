"""Binary PGM (P5, maxval 255) read/write for page rasters."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from ielab.errors import DataValidationError


def write_pgm(path, grid: np.ndarray) -> None:
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise DataValidationError(f"PGM grids are 2-D, got shape {arr.shape}")
    arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# magic, width, height, maxval, then exactly one whitespace byte: the pixels
# follow it, and may themselves start with whitespace values
_HEADER = re.compile(rb"P5\s+(\S+)\s+(\S+)\s+(\S+)\s")


def read_pgm(path) -> np.ndarray:
    """The (height, width) uint8 pixels of a P5 PGM with maxval 255;
    DataValidationError for anything else."""
    blob = Path(path).read_bytes()
    header = _HEADER.match(blob)
    if header is None:
        raise DataValidationError(f"{path}: not a binary P5 PGM")
    try:
        w, h, maxval = (int(v) for v in header.groups())
    except ValueError:
        raise DataValidationError(
            f"{path}: PGM width, height and maxval must be integers, got "
            f"{b' '.join(header.groups())!r}") from None
    if min(w, h, maxval) < 1:
        raise DataValidationError(
            f"{path}: PGM width, height and maxval must be positive, got "
            f"{w} {h} {maxval}")
    if maxval != 255:
        raise DataValidationError(f"{path}: expected maxval 255, got {maxval}")
    data = blob[header.end():header.end() + w * h]
    if len(data) != w * h:
        raise DataValidationError(f"{path}: truncated pixel payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def raster_to_input(grid: np.ndarray) -> np.ndarray:
    """(H, W) uint8 page -> the (1, H, W) uint8 page the model reads.

    The pixels stay uint8, one byte each; stylefuse.image.backbone_forward
    forms their float64 ink intensity in [0, 1] as its first step.
    """
    return np.asarray(grid)[None, :, :]
