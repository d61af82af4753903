"""Overlapping-window chunking for long documents, prediction stitching,
corpus scoring and permutation importance.

Windows are max_seq_len long with a fixed overlap (stride = len - overlap);
after per-chunk prediction every token takes its row from the chunk where it
sits farthest from a window edge, ties going to the earlier chunk.
`score_documents` is the one loop that tags a corpus and scores it.

Permutation importance (Breiman 2001; Fisher, Rudin and Dominici 2019)
shuffles one bucketed style feature across the whole evaluation corpus and
measures the F1 drop without retraining. One call scores the intact corpus
once, then each feature's shuffles in turn. A subset run needs no helper:
cross-validate a TaggerSpec whose style_features name the subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ielab.docstream import STYLE_FEATURES, ModelInput, _INPUT_FIELDS
from ielab.errors import ConfigError, ContractError
from ielab.evalsuite.scoring import ClassReport, entity_scores
from ielab.stylefuse.fusion import FusionMode


@dataclass
class Chunk:
    start: int
    end: int              # half-open token range in the source document
    inputs: ModelInput


def _slice_input(inp: ModelInput, start: int, end: int) -> ModelInput:
    return ModelInput(**{name: getattr(inp, name)[..., start:end].copy()
                         for name in _INPUT_FIELDS})


def chunk_document(inp: ModelInput, cfg) -> list[Chunk]:
    """Windows start at 0, stride, 2*stride, ... until the document is covered."""
    T = inp.length
    window = cfg.max_seq_len
    stride = window - cfg.chunk_overlap
    starts = [0]
    while starts[-1] + window < T:
        starts.append(starts[-1] + stride)
    return [Chunk(start=s, end=min(s + window, T),
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


def predict_token_probs(model, inp: ModelInput, cfg,
                        rasters=None) -> np.ndarray:
    """Chunked inference for one document; (T, label_count) probabilities.

    All chunks run as one packed forward, sharing the document's page
    rasters; their rows are then stitched back to one row per token.

    The forward is one inference call (TokenTagger.predict_probs); see
    tensorcore.threads for where it runs and why its bytes do not depend on
    that.
    """
    if inp.length <= cfg.max_seq_len:       # one chunk: the document itself
        return model.predict_probs([inp], [rasters])
    chunks = chunk_document(inp, cfg)
    probs = model.predict_probs([c.inputs for c in chunks],
                                [rasters] * len(chunks))
    ends = np.cumsum([c.end - c.start for c in chunks])[:-1]
    return aggregate_chunk_predictions(chunks, np.split(probs, ends))


def predict_tags(model, inp: ModelInput, cfg, label_names: list[str],
                 rasters=None) -> list[str]:
    probs = predict_token_probs(model, inp, cfg, rasters)
    return [label_names[i] for i in probs.argmax(axis=1)]


def score_documents(model, inputs: list[ModelInput], gold: list[list[str]],
                    cfg, label_names: list[str], rasters=None,
                    ) -> tuple[list[list[str]], ClassReport]:
    """Each document's tags and their entity scores against `gold`.

    `rasters` holds one page list per document, or is None for a model
    that reads no pages.
    """
    rasters = rasters or [None] * len(inputs)
    preds = [predict_tags(model, inp, cfg, label_names, r)
             for inp, r in zip(inputs, rasters)]
    return preds, entity_scores(preds, gold)


def permute_feature(encoded_docs: list[ModelInput], feature: str,
                    rng: np.random.Generator) -> list[ModelInput]:
    """Shuffle one feature's bucketed values across all tokens of the corpus."""
    if feature not in STYLE_FEATURES:
        raise ConfigError(f"unknown style feature {feature!r}; "
                          f"expected one of {STYLE_FEATURES}")
    m = STYLE_FEATURES.index(feature)
    values = np.concatenate([doc.style_ids[m] for doc in encoded_docs])
    perm = rng.permutation(values)
    out = []
    pos = 0
    for doc in encoded_docs:
        copy = doc.copy()
        copy.style_ids[m] = perm[pos:pos + doc.length]
        pos += doc.length
        out.append(copy)
    return out


def permutation_importance(model, encoded_docs: list[ModelInput],
                           gold_tags: list[list[str]], label_names: list[str],
                           features: list[str], train_cfg, repeats: int,
                           rng: np.random.Generator) -> list[dict]:
    """Per feature, F1(intact) minus mean F1 over `repeats` shuffles of it,
    the shuffles drawn from `rng` in feature order; no retraining."""
    if model.spec.fusion not in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        raise ContractError(
            f"{model.spec.fusion.value} models take no style input; "
            "permutation importance needs a style fusion mode")

    def f1(docs: list[ModelInput]) -> float:
        return score_documents(model, docs, gold_tags, train_cfg,
                               label_names)[1].weighted_f1

    intact = f1(encoded_docs)
    results = []
    for feature in features:
        permuted = [f1(permute_feature(encoded_docs, feature, rng))
                    for _ in range(repeats)]
        results.append({"feature": feature, "intact_f1": intact,
                        "permuted_f1": permuted,
                        "delta_mean": intact - float(np.mean(permuted)),
                        "delta_std": float(np.std(permuted))})
    return results
