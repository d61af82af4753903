"""Single-file parameter container.

Layout (documented contract, stable across releases):

  * line 1: compact UTF-8 JSON followed by a single ``\\n``:
      {"format": "ielab-checkpoint", "format_version": 1,
       "config": <caller-supplied JSON object>,
       "manifest": [{"name": str, "shape": [int, ...], "offset": int}, ...]}
    The manifest is sorted by name; offsets are byte positions into the
    payload that starts immediately after the newline. A loaded manifest's
    entries must tile the payload exactly, in manifest order.
  * payload: each parameter's elements as little-endian float64, row-major,
    concatenated in manifest order. A loaded parameter must be finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ielab.errors import CheckpointMismatchError, DataValidationError
from ielab.jsonconfig import parse_json
from ielab.tensorcore.engine import Tensor

FORMAT_NAME = "ielab-checkpoint"
FORMAT_VERSION = 1


def save_checkpoint(path, config: dict, params: dict) -> None:
    names = sorted(params)
    manifest = []
    offset = 0
    payload = []
    for name in names:
        t = params[name]
        arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        payload.append(raw)
        offset += len(raw)
    header = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "config": config,
        "manifest": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for raw in payload:
            fh.write(raw)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointMismatchError(f"{path}: missing checkpoint header")
    try:
        header = parse_json(blob[:nl], f"{path}: unreadable header")
    except DataValidationError as exc:
        raise CheckpointMismatchError(str(exc)) from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CheckpointMismatchError(f"{path}: not an {FORMAT_NAME} file")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported format_version {header.get('format_version')}")
    manifest = header.get("manifest")
    if not isinstance(manifest, list) or not isinstance(header.get("config"), dict):
        raise CheckpointMismatchError(
            f"{path}: header needs a manifest list and a config object")
    payload = blob[nl + 1:]
    params, pos = {}, 0
    for entry in manifest:      # parameters lie back to back in manifest order
        fields = entry if isinstance(entry, dict) else {}
        name, shape, start = (fields.get(k) for k in ("name", "shape", "offset"))
        valid = isinstance(name, str) and name not in params \
            and type(start) is int and start == pos and isinstance(shape, list) \
            and all(type(d) is int and d >= 0 for d in shape) \
            and start + 8 * math.prod(shape) <= len(payload)
        if not valid:
            raise CheckpointMismatchError(
                f"{path}: manifest entry {entry!r} must name a new parameter, "
                f"give its shape as a list of non-negative ints and start at "
                f"payload offset {pos} within {len(payload)} payload bytes")
        pos = start + 8 * math.prod(shape)
        arr = np.frombuffer(payload[start:pos], dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointMismatchError(
                f"{path}: parameter {name!r} holds non-finite values")
        try:
            params[name] = arr.reshape(shape)
        except ValueError as exc:   # over 64 dimensions, or beyond numpy's sizes
            raise CheckpointMismatchError(
                f"{path}: parameter {name!r} has shape {shape}: {exc}") from exc
    if pos != len(payload):
        raise CheckpointMismatchError(
            f"{path}: {len(payload) - pos} payload bytes follow the last parameter")
    return header["config"], params
