"""Overlapping-window chunking for long documents and prediction stitching.

Windows are max_seq_len long with a fixed overlap (stride = len - overlap);
after per-chunk prediction every token takes its row from the chunk where it
sits farthest from a window edge, ties going to the earlier chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ielab.docstream import ModelInput, _INPUT_FIELDS
from ielab.errors import ContractError


@dataclass
class Chunk:
    doc_id: str
    start: int
    end: int              # half-open token range in the source document
    inputs: ModelInput    # slice with pos1d re-based to 0


def _slice_input(inp: ModelInput, start: int, end: int) -> ModelInput:
    fields = {}
    for name in _INPUT_FIELDS:
        arr = getattr(inp, name)
        fields[name] = arr[..., start:end].copy()
    fields["pos1d_ids"] = np.arange(end - start, dtype=np.int64)
    return ModelInput(**fields)


def chunk_document(inp: ModelInput, cfg, doc_id: str = "") -> list[Chunk]:
    """Windows start at 0, stride, 2*stride, ... until the document is covered."""
    T = inp.length
    window = cfg.max_seq_len
    stride = window - cfg.chunk_overlap
    starts = [0]
    while starts[-1] + window < T:
        starts.append(starts[-1] + stride)
    return [Chunk(doc_id=doc_id, start=s, end=min(s + window, T),
                  inputs=_slice_input(inp, s, min(s + window, T)))
            for s in starts]


def aggregate_chunk_predictions(chunks: list[Chunk],
                                probs: list[np.ndarray]) -> np.ndarray:
    """Stitch per-chunk probability rows back to one row per source token."""
    if not chunks:
        raise ContractError("no chunks to aggregate")
    T = max(c.end for c in chunks)
    C = probs[0].shape[1]
    out = np.zeros((T, C))
    best = np.full(T, -1, dtype=np.int64)
    for chunk, p in zip(chunks, probs):
        if p.shape[0] != chunk.end - chunk.start:
            raise ContractError(
                f"chunk [{chunk.start},{chunk.end}) got {p.shape[0]} rows")
        pos = np.arange(chunk.start, chunk.end)
        dist = np.minimum(pos - chunk.start, chunk.end - 1 - pos)
        take = dist > best[pos]        # strict: earlier chunk wins ties
        out[pos[take]] = p[take]
        best[pos[take]] = dist[take]
    if (best < 0).any():
        raise ContractError("chunk plan left tokens without predictions")
    return out


def predict_token_probs(model, inp: ModelInput, cfg, rasters=None,
                        doc_id: str = "") -> np.ndarray:
    """Chunked inference for one document; (T, label_count) probabilities.

    All chunks run as one packed forward, sharing the document's page
    rasters; their rows are then stitched back to one row per token.

    The forward is one inference call (TokenTagger.predict_probs). For a
    document of at least `threads.SPLIT_MIN_ROWS` tokens, numpy's OpenBLAS
    runs on one thread for all of it, and each encoder op runs as two
    halves, one on this thread and one on the process's worker thread
    (attention splits its heads). Its probabilities have the bytes of an
    unsplit forward with OpenBLAS on one thread, whatever the process's BLAS
    thread count and whether or not the split ran: it does not run when one
    CPU is usable, when OpenBLAS cannot be pinned, or when this is the worker
    thread. A shorter document runs whole on this thread at the process's
    BLAS thread count, as its small products run faster that way.
    """
    if inp.length <= cfg.max_seq_len:       # one chunk: the document itself
        return model.predict_probs(inp, rasters)
    chunks = chunk_document(inp, cfg, doc_id)
    probs = model.predict_probs([c.inputs for c in chunks],
                                [rasters] * len(chunks))
    ends = np.cumsum([c.end - c.start for c in chunks])[:-1]
    return aggregate_chunk_predictions(chunks, np.split(probs, ends))


def predict_tags(model, inp: ModelInput, cfg, label_names: list[str],
                 rasters=None) -> list[str]:
    probs = predict_token_probs(model, inp, cfg, rasters)
    return [label_names[i] for i in probs.argmax(axis=1)]
