"""Span tracing of ielab from outside the library.

A `Tracer` used as a context manager replaces each traced public function at
every name its callers look it up by (for example `ielab.tensorcore.ops.attention`
and `ielab.tensorcore.attention`) with a wrapper that records one span, and
puts the originals back on exit. Outside the `with` block nothing is wrapped,
so an untraced run executes the library unchanged.

A span is (name, start, end, parent span index, trace id). The trace id names
one train step (it advances each time `adam_step` returns and each time the
tracer is re-entered) or one `predict_tags` call (one eval or validation
document); spans before the first step carry trace id 0. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, function name). A function missing from its
# module is skipped, so a refactor that deletes one leaves its metrics at 0.
TARGETS = (
    ("synthdocs.generate_corpus", "ielab.synthdocs", "generate_corpus"),
    ("synthdocs.render_pages", "ielab.synthdocs", "render_pages"),
    ("docstream.build_vocabularies", "ielab.docstream", "build_vocabularies"),
    ("docstream.encode_document", "ielab.docstream", "encode_document"),
    ("layoutcore.embed_tokens", "ielab.layoutcore", "embed_tokens"),
    ("layoutcore.encoder_forward", "ielab.layoutcore", "encoder_forward"),
    ("layoutcore.block_attention_bias", "ielab.layoutcore",
     "block_attention_bias"),
    ("tensorcore.attention", "ielab.tensorcore.ops", "attention"),
    ("tensorcore.linear", "ielab.tensorcore.ops", "linear"),
    ("tensorcore.layer_norm", "ielab.tensorcore.ops", "layer_norm"),
    ("tensorcore.gelu", "ielab.tensorcore.ops", "gelu"),
    ("tensorcore.cross_entropy_masked", "ielab.tensorcore.ops",
     "cross_entropy_masked"),
    ("tensorcore.embedding_sum", "ielab.tensorcore.ops", "embedding_sum"),
    ("tensorcore.embedding_lookup", "ielab.tensorcore.ops", "embedding_lookup"),
    ("tensorcore.conv2d", "ielab.tensorcore.ops", "conv2d"),
    ("tensorcore.backward", "ielab.tensorcore.engine", "backward"),
    ("tensorcore.adam_step", "ielab.tensorcore.optim", "adam_step"),
    ("stylefuse.backbone_forward", "ielab.stylefuse.image", "backbone_forward"),
    ("stylefuse.roi_align_batch", "ielab.stylefuse.image", "roi_align_batch"),
    ("stylefuse.fuse", "ielab.stylefuse.fusion", "fuse_style_sum"),
    ("stylefuse.fuse", "ielab.stylefuse.fusion", "fuse_style_concat"),
    ("stylefuse.head_logits", "ielab.stylefuse.fusion", "head_logits"),
    ("trainloop.train_fold", "ielab.trainloop.training", "train_fold"),
    ("trainloop.augment", "ielab.trainloop.augment", "augment_tokens"),
    ("trainloop.augment", "ielab.trainloop.augment", "augment_bboxes"),
    ("trainloop.chunk_document", "ielab.trainloop.chunking", "chunk_document"),
    ("trainloop.predict_tags", "ielab.trainloop.chunking", "predict_tags"),
    ("trainloop.aggregate_chunk_predictions", "ielab.trainloop.chunking",
     "aggregate_chunk_predictions"),
    ("evalsuite.entity_scores", "ielab.evalsuite.scoring", "entity_scores"),
)

# metric name -> (span name, "total" span time or "self" time without children)
TIME_METRICS = {
    "tensorcore.attention.fwd_s": ("tensorcore.attention", "total"),
    "tensorcore.linear.fwd_s": ("tensorcore.linear", "total"),
    "tensorcore.layer_norm.fwd_s": ("tensorcore.layer_norm", "total"),
    "tensorcore.gelu.fwd_s": ("tensorcore.gelu", "total"),
    "tensorcore.cross_entropy_masked.fwd_s":
        ("tensorcore.cross_entropy_masked", "total"),
    "tensorcore.embedding_sum.fwd_s": ("tensorcore.embedding_sum", "total"),
    "tensorcore.embedding_lookup.fwd_s": ("tensorcore.embedding_lookup", "total"),
    "tensorcore.backward.s": ("tensorcore.backward", "total"),
    "tensorcore.adam_step.s": ("tensorcore.adam_step", "total"),
    "tensorcore.conv2d.fwd_s": ("tensorcore.conv2d", "total"),
    "stylefuse.backbone_forward.s": ("stylefuse.backbone_forward", "total"),
    "stylefuse.roi_align_batch.fwd_s": ("stylefuse.roi_align_batch", "total"),
    "stylefuse.fuse.s": ("stylefuse.fuse", "total"),
    "stylefuse.head_logits.s": ("stylefuse.head_logits", "total"),
    "layoutcore.embed_tokens.s": ("layoutcore.embed_tokens", "total"),
    "layoutcore.encoder_forward.self_s": ("layoutcore.encoder_forward", "self"),
    "layoutcore.block_attention_bias.s":
        ("layoutcore.block_attention_bias", "total"),
    "trainloop.train_fold.self_s": ("trainloop.train_fold", "self"),
    "trainloop.augment.s": ("trainloop.augment", "total"),
    "trainloop.chunk_document.s": ("trainloop.chunk_document", "total"),
    "trainloop.predict_tags.self_s": ("trainloop.predict_tags", "self"),
    "trainloop.aggregate_chunk_predictions.s":
        ("trainloop.aggregate_chunk_predictions", "total"),
    "evalsuite.entity_scores.s": ("evalsuite.entity_scores", "total"),
    "docstream.build_vocabularies.s": ("docstream.build_vocabularies", "total"),
    "docstream.encode_document.s": ("docstream.encode_document", "total"),
    "synthdocs.generate_corpus.s": ("synthdocs.generate_corpus", "total"),
    "synthdocs.render_pages.s": ("synthdocs.render_pages", "total"),
}

COUNT_METRICS = {   # metric name -> unit
    "tensorcore.attention.score_entries": "count",
    "tensorcore.attention.useful_score_ratio": "ratio",
    "tensorcore.backward.nodes": "count",
    "stylefuse.backbone_forward.calls": "count",
    "stylefuse.backbone_pages_per_call": "ratio",
    "trainloop.chunks_per_doc": "ratio",
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and layer counters while active (see module docstring)."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, trace id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._trace_id = 0
        self._next_id = 1
        self._pages: set = set()         # (trace id, page content key)
        self._patched: list = []         # (module, attribute, original)

    def __enter__(self) -> "Tracer":
        if self.spans:
            self._trace_id = self._new_trace_id()
        for span_name, module_name, attr in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("ielab"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def _wrap(self, span_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span_name, fn, args, kwargs)
        return wrapper

    def _new_trace_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _call(self, span_name, fn, args, kwargs):
        outer_trace = self._trace_id
        if span_name == "trainloop.predict_tags":
            self._trace_id = self._new_trace_id()
        index = len(self.spans)
        span = [span_name, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, self._trace_id]
        self.spans.append(span)
        self._before(span_name, args, kwargs)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._trace_id = outer_trace
        self._after(span_name, result)
        return result

    def _before(self, span_name, args, kwargs):
        c = self.counts
        if span_name == "tensorcore.attention":
            q, k = _arg(args, kwargs, 0, "q"), _arg(args, kwargs, 1, "k")
            qs, ks = q.data.shape, k.data.shape
            if len(qs) == 2:     # (T, h) operands with a separate head count
                c["score_entries"] += _arg(args, kwargs, 4, "heads", 1) \
                    * qs[0] * ks[0]
            else:                # heads already among the leading dimensions
                c["score_entries"] += int(np.prod(qs[:-1])) * ks[-2]
        elif span_name == "tensorcore.backward":
            tape = _arg(args, kwargs, 1, "tape")
            c["backward_nodes"] += len(getattr(tape, "nodes", ()))
        elif span_name == "stylefuse.backbone_forward":
            raster = _arg(args, kwargs, 0, "raster")
            pixels = np.ascontiguousarray(getattr(raster, "data", raster))
            c["backbone_calls"] += 1
            self._pages.add((self._trace_id, hash(pixels.tobytes())))

    def _after(self, span_name, result):
        c = self.counts
        if span_name == "tensorcore.adam_step":
            self._trace_id = self._new_trace_id()
        elif span_name == "trainloop.chunk_document":
            c["chunk_calls"] += 1
            c["chunks"] += len(result)
            c["chunk_tokens_sq"] += sum((ch.end - ch.start) ** 2 for ch in result)

    def _self_and_total(self) -> tuple[dict, dict]:
        """Per span name: summed span time, and summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def layer_metrics(self, layers: int, heads: int) -> dict[str, tuple]:
        """{metric: (value, unit)} for every TIME_METRICS and COUNT_METRICS name.

        Useful score entries are heads * T_i^2 for every encoded chunk i in
        every encoder layer; chunks are counted where `chunk_document` makes
        them, so the ratio does not depend on how attention batches them.
        """
        total, own = self._self_and_total()
        out = {}
        for metric, (span_name, kind) in TIME_METRICS.items():
            out[metric] = ((total if kind == "total" else own)[span_name], "s")
        c = self.counts
        useful = layers * heads * c["chunk_tokens_sq"]
        counted = {
            "tensorcore.attention.score_entries": c["score_entries"],
            "tensorcore.attention.useful_score_ratio":
                useful / c["score_entries"] if c["score_entries"] else 0.0,
            "tensorcore.backward.nodes": c["backward_nodes"],
            "stylefuse.backbone_forward.calls": c["backbone_calls"],
            "stylefuse.backbone_pages_per_call":
                len(self._pages) / c["backbone_calls"]
                if c["backbone_calls"] else 0.0,
            "trainloop.chunks_per_doc":
                c["chunks"] / c["chunk_calls"] if c["chunk_calls"] else 0.0,
        }
        for metric, unit in COUNT_METRICS.items():
            out[metric] = (float(counted[metric]), unit)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trace"],
                       "spans": self.spans}, fh, separators=(",", ":"))
