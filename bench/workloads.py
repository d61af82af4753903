"""Benchmark workloads and the calls into ielab's public entry points.

Every workload trains one fold of a TRADECONF corpus (hidden 64, 2 layers,
2 heads, 512-token chunks with overlap 100, default bucketing) for a fixed
number of epochs with `train_fold`, then tags a held-out test split one
document at a time with `predict_tags`. The benchmark makes the corpus from
its seed; ielab sees only the generated documents.

Library functions are looked up through their modules at call time, so a
`tracing.Tracer` that swaps them in is seen here too.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from ielab import docstream, pgm, synthdocs, trainloop
from ielab.docstream import BucketingConfig
from ielab.evalsuite import scoring
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import (
    FusionMode,
    ImagePathConfig,
    TaggerSpec,
    TokenTagger,
    with_resolved_sizes,
)

HIDDEN, LAYERS, HEADS = 64, 2, 2
MAX_SEQ_LEN, CHUNK_OVERLAP = 512, 100
PROB_SAMPLE_DOCS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    fusion: FusionMode
    tokens_per_doc: tuple[int, int]
    batch_size: int
    n_train: int
    n_val: int
    n_test: int
    epochs: int
    lr: float
    f1_floor: float          # test weighted F1 every seed reaches
    micro_tokens: int        # T for the op micro-benchmarks


WORKLOADS = {w.name: w for w in (
    # Many small steps: tape overhead, small backwards and the optimiser.
    # Op micro-benchmarks run at one batch's total length (8 docs x ~34).
    Workload("short-sum", FusionMode.STYLE_SUM, (24, 44), batch_size=8,
             n_train=96, n_val=16, n_test=200, epochs=3, lr=3e-2,
             f1_floor=0.03, micro_tokens=8 * 34),
    # Multi-chunk documents: attention over the batch and chunk stitching.
    Workload("long-concat", FusionMode.STYLE_CONCAT, (400, 900), batch_size=2,
             n_train=32, n_val=4, n_test=100, epochs=2, lr=3e-2,
             f1_floor=0.03, micro_tokens=MAX_SEQ_LEN),
    # The per-chunk image path: backbone reruns and RoIAlign scatters. Most
    # docs span two chunks, so the median latency sits inside one mode; the
    # IMAGE model tags no entity after two epochs, hence no F1 floor.
    Workload("image-pages", FusionMode.IMAGE, (450, 900), batch_size=2,
             n_train=20, n_val=4, n_test=100, epochs=2, lr=5e-3,
             f1_floor=0.0, micro_tokens=MAX_SEQ_LEN),
)}


class Gate:
    """Counts attempted operations and correctness checks, and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def operation(self) -> None:
        self.attempted += 1

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Prepared:
    """Set-up products: the corpus split, encoded test docs, a built model."""

    workload: Workload
    seed: int
    train: list
    val: list
    test: list
    rasters: dict | None
    vocabs: docstream.Vocabularies
    enc_test: list
    model: TokenTagger
    spec_template: TaggerSpec
    cfg: trainloop.TrainConfig
    bucket: BucketingConfig

    def test_rasters(self, i: int):
        return self.rasters[self.test[i].id] if self.rasters else None

    @property
    def train_tokens(self) -> int:
        return sum(len(d.tokens) for d in self.train)


def setup(w: Workload, seed: int) -> Prepared:
    """Corpus (+ page rasters), vocabularies, test encoding, model build."""
    gen = synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=w.n_train + w.n_val + w.n_test,
        tokens_per_doc=w.tokens_per_doc, seed=seed)
    docs = synthdocs.generate_corpus(gen)
    image = w.fusion is FusionMode.IMAGE
    rasters = {d.id: [pgm.raster_to_input(p.grid)
                      for p in synthdocs.render_pages(d)]
               for d in docs} if image else None
    train = docs[:w.n_train]
    val = docs[w.n_train:w.n_train + w.n_val]
    test = docs[w.n_train + w.n_val:]
    bucket = BucketingConfig()
    vocabs = docstream.build_vocabularies(train, bucket)
    enc_test = [docstream.encode_document(d, vocabs, bucket, strict_labels=False)
                for d in test]
    template = TaggerSpec(
        encoder=EncoderConfig(word_vocab=2, label_count=1, hidden=HIDDEN,
                              layers=LAYERS, heads=HEADS,
                              max_seq_len=MAX_SEQ_LEN),
        fusion=w.fusion, image=ImagePathConfig() if image else None)
    model = TokenTagger.build(with_resolved_sizes(
        template, vocabs.word.size, len(vocabs.labels),
        vocabs.style.size_list()))
    cfg = trainloop.TrainConfig(lr=w.lr, batch_size=w.batch_size,
                                epochs=w.epochs, max_seq_len=MAX_SEQ_LEN,
                                chunk_overlap=CHUNK_OVERLAP)
    return Prepared(w, seed, train, val, test, rasters, vocabs, enc_test,
                    model, template, cfg, bucket)


def warm_up(p: Prepared, gate: Gate) -> None:
    """One short epoch and a few predictions, so lazy set-up is not timed."""
    cfg = dataclasses.replace(p.cfg, epochs=1)
    gate.operation()
    trainloop.train_fold(p.train[:2 * p.cfg.batch_size], p.val[:1],
                         p.spec_template, cfg, p.bucket, fold_seed=p.seed,
                         rasters=p.rasters)
    labels = p.vocabs.label_names()
    for i in range(min(3, len(p.enc_test))):
        gate.operation()
        trainloop.predict_tags(p.model, p.enc_test[i], p.cfg, labels,
                               p.test_rasters(i))


def train_round(p: Prepared, gate: Gate):
    """One timed `train_fold`; returns (seconds, FoldResult) after checks."""
    gate.operation()
    t0 = time.perf_counter()
    res = trainloop.train_fold(p.train, p.val, p.spec_template, p.cfg,
                               p.bucket, fold_seed=p.seed, rasters=p.rasters)
    seconds = time.perf_counter() - t0
    losses = res.train_loss_trace
    gate.check("loss finite", all(math.isfinite(x) for x in losses),
               repr(losses))
    gate.check("loss decreased", len(losses) >= 2 and losses[-1] < losses[0],
               repr(losses))
    gate.check("vocabularies match set-up",
               res.vocabs.to_json() == p.vocabs.to_json())
    return seconds, res


def eval_pass(p: Prepared, model, gate: Gate):
    """Tag every test doc; returns (seconds, per-doc seconds, tags, test F1)."""
    labels = p.vocabs.label_names()
    preds, latencies = [], []
    t0 = time.perf_counter()
    for i, enc in enumerate(p.enc_test):
        gate.operation()
        s = time.perf_counter()
        preds.append(trainloop.predict_tags(model, enc, p.cfg, labels,
                                            p.test_rasters(i)))
        latencies.append(time.perf_counter() - s)
    seconds = time.perf_counter() - t0
    allowed = set(labels)
    for doc, tags in zip(p.test, preds):
        gate.check("one tag per token from the label vocabulary",
                   len(tags) == len(doc.tokens) and set(tags) <= allowed,
                   f"{doc.id}: {len(tags)} tags for {len(doc.tokens)} tokens")
    gold = [[t.label for t in d.tokens] for d in p.test]
    f1 = scoring.entity_scores(preds, gold).weighted_f1
    gate.check("test F1 floor", f1 >= p.workload.f1_floor,
               f"{f1:.4f} < {p.workload.f1_floor}")
    return seconds, latencies, preds, f1


def check_probabilities(p: Prepared, model, gate: Gate) -> None:
    """Probability rows of sampled test docs sum to 1 within 1e-9."""
    for i in range(min(PROB_SAMPLE_DOCS, len(p.test))):
        probs = trainloop.predict_token_probs(model, p.enc_test[i], p.cfg,
                                              p.test_rasters(i))
        rows_ok = probs.shape == (len(p.test[i].tokens), len(p.vocabs.labels))
        err = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if rows_ok \
            else math.inf
        gate.check("probability rows sum to 1", err <= 1e-9,
                   f"{p.test[i].id}: shape {probs.shape}, max error {err}")
