"""Fine-tuning protocol: epochs, augmentation, sharded steps, model
selection, k-fold CV.

Each optimizer step trains on one batch of documents. Augmentation and
chunking run on the calling thread, in document order. A batch whose chunks
hold more rows than one chunk (`max_seq_len`) and that has at least two
documents splits into two shards: contiguous groups of its documents, cut at
the document boundary that best balances their row counts (the earlier cut
on a tie). Every other batch is one shard. Each shard runs one packed
forward over its chunks (see TokenTagger.fused_output) on its own tape,
takes the mean cross-entropy over its tokens and runs its own backward. Its
loss and gradients are weighted by its share of the batch's tokens and
summed in shard order, so the step follows the mean loss over the whole
batch; Adam then applies one update at a constant learning rate.

Shard 0 runs on the calling thread and draws dropout from the fold's
dropout stream (fold_seed, 12), so a batch of one chunk's rows trains
exactly as an unsharded step. Shard 1 draws dropout from (fold_seed, 12,
epoch, batch start), so its bits do not depend on the thread that runs it,
and the partition depends only on the batch, never on the machine. A batch
of more than one chunk's rows trains with numpy's OpenBLAS pinned to one
thread, shard 1 beside shard 0; tensorcore.threads tells where each part of
a step and of validation runs.

Training stops with a ConfigError at the first batch whose loss is not
finite, naming the fold seed, epoch and batch start.

After every epoch the validation split is scored with entity-level weighted
F1 (score_documents: no augmentation, no dropout) and the best epoch's
parameters are kept, earlier epochs winning ties.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ielab.docstream import (
    BucketingConfig,
    DocumentRecord,
    Vocabularies,
    build_vocabularies,
    encode_document,
)
from ielab.errors import ConfigError
from ielab.evalsuite.accounting import count_parameters
from ielab.evalsuite.scoring import ClassReport, entity_scores
from ielab.jsonconfig import JsonConfig
from ielab.stylefuse.model import TaggerSpec, TokenTagger, with_resolved_sizes
from ielab.tensorcore import AdamState, Tape, adam_step, backward, ops, threads
from ielab.trainloop.augment import augment_bboxes, augment_tokens
from ielab.trainloop.chunking import chunk_document, score_documents


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    lr: float = 2e-5
    batch_size: int = 2
    epochs: int = 20
    token_replace_rate: float = 0.10
    bbox_shift_max: int = 10
    bbox_scale_range: tuple[float, float] = (0.95, 1.05)
    max_seq_len: int = 512
    chunk_overlap: int = 100
    val_fraction: float = 0.1
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 < self.chunk_overlap < self.max_seq_len:
            raise ConfigError(
                f"chunk_overlap must lie in (0, {self.max_seq_len}), "
                f"got {self.chunk_overlap}")
        for name in ("token_replace_rate", "val_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {v}")
        if self.batch_size < 1 or self.epochs < 1 or self.folds < 2:
            raise ConfigError("batch_size/epochs must be >= 1 and folds >= 2")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
        if not 0 <= self.bbox_shift_max <= 1000:
            raise ConfigError("bbox_shift_max must lie in the quantized grid "
                              f"[0, 1000], got {self.bbox_shift_max}")
        lo, hi = self.bbox_scale_range
        if not 0 < lo <= hi <= sys.float_info.max:
            raise ConfigError("bbox_scale_range must be finite with "
                              f"0 < lo <= hi, got {[lo, hi]}")


def make_fold_plan(doc_ids: list[str], k: int, val_fraction: float,
                   seed: int) -> list[dict]:
    """One dict of train/val/test id lists per fold."""
    if len(doc_ids) < k:
        raise ConfigError(f"{len(doc_ids)} documents cannot fill {k} folds")
    shuffled = list(np.random.default_rng([seed, 1]).permutation(doc_ids))
    test_folds = [list(part) for part in np.array_split(shuffled, k)]
    folds = []
    for f, test in enumerate(test_folds):
        in_test = set(test)
        pool = [i for i in shuffled if i not in in_test]
        n_val = max(1, int(round(val_fraction * len(pool))))
        pool_perm = list(np.random.default_rng([seed, 2, f]).permutation(pool))
        folds.append({"val": pool_perm[:n_val], "train": pool_perm[n_val:],
                      "test": test})
    return folds


@dataclass
class FoldResult:
    model: TokenTagger              # restored to the best epoch
    vocabs: Vocabularies
    best_epoch: int
    best_val_f1: float
    val_f1_trace: list[float]
    train_loss_trace: list[float]


def _doc_rasters(rasters, doc: DocumentRecord):
    return rasters.get(doc.id) if rasters else None


def _shards(batch: list, max_rows: int) -> list[list]:
    """The batch's (doc index, chunk inputs) entries as one shard, or as two
    contiguous shards cut where their row counts balance best."""
    rows = np.cumsum([sum(c.length for c in chunks) for _, chunks in batch])
    if len(batch) < 2 or rows[-1] <= max_rows:
        return [batch]
    cut = int(np.argmin(np.abs(2 * rows[:-1] - rows[-1]))) + 1
    return [batch[:cut], batch[cut:]]


def _shard_grads(model: TokenTagger, params: dict, inputs: list,
                 rasters: list, rng: np.random.Generator, weight: float):
    """One shard's loss and parameter gradients, both scaled by `weight`."""
    tape = Tape()
    with tape:
        tape.watch(*params.values())
        logits = model.forward_logits(inputs, rasters, rng=rng)
        labels = np.concatenate([i.label_ids for i in inputs])
        loss = ops.cross_entropy_masked(logits, labels,
                                        np.ones(len(labels), dtype=bool))
    grads = backward(loss, tape)
    out = {name: grads[t] for name, t in params.items()}
    if weight != 1.0:               # a batch's only shard keeps its bits
        for g in out.values():
            g *= weight
    return loss.item() * weight, out


def _batch_grads(model: TokenTagger, params: dict, batch: list, rasters: list,
                 drop_rng: np.random.Generator, second_seed: list,
                 max_rows: int):
    """Loss and parameter gradients of a batch of (doc index, chunk inputs).

    A batch with more rows than `max_rows` runs with OpenBLAS pinned to one
    thread. If it splits into two shards, the second draws dropout from
    `second_seed` and runs beside the first (see tensorcore.threads).
    """
    shards = _shards(batch, max_rows)
    inputs = [[c for _, chunks in sh for c in chunks] for sh in shards]
    rows = [sum(i.length for i in inp) for inp in inputs]
    rngs = [drop_rng] if len(shards) == 1 else \
        [drop_rng, np.random.default_rng(second_seed)]
    jobs = [(model, params, inp,
             [rasters[di] for di, chunks in sh for _ in chunks], rng,
             n / sum(rows))
            for sh, inp, rng, n in zip(shards, inputs, rngs, rows)]
    with threads.one_blas_thread(sum(rows) > max_rows):
        if len(jobs) == 1:
            return _shard_grads(*jobs[0])
        with threads.beside(_shard_grads, *jobs[1]) as second:
            (loss, grads), (loss1, grads1) = _shard_grads(*jobs[0]), second()
    for name, g in grads.items():
        g += grads1[name]
    return loss + loss1, grads


def train_fold(train_docs: list[DocumentRecord], val_docs: list[DocumentRecord],
               spec_template: TaggerSpec, cfg: TrainConfig,
               bucket_cfg: BucketingConfig, fold_seed: int,
               rasters: dict | None = None) -> FoldResult:
    if not train_docs or not val_docs:
        raise ConfigError("train and validation splits must both be nonempty")
    vocabs = build_vocabularies(train_docs, bucket_cfg)
    spec = with_resolved_sizes(spec_template, vocabs.word.size,
                               len(vocabs.labels), vocabs.style.size_list())
    spec = replace(spec, encoder=replace(spec.encoder, seed=fold_seed,
                                         max_seq_len=cfg.max_seq_len))
    model = TokenTagger.build(spec)
    params = model.parameters()
    label_names = vocabs.label_names()

    enc_train = [encode_document(d, vocabs, bucket_cfg) for d in train_docs]
    enc_val = [encode_document(d, vocabs, bucket_cfg, strict_labels=False)
               for d in val_docs]
    gold_val = [[t.label for t in d.tokens] for d in val_docs]
    train_rasters = [_doc_rasters(rasters, d) for d in train_docs]
    val_rasters = [_doc_rasters(rasters, d) for d in val_docs]

    shuffle_rng = np.random.default_rng([fold_seed, 10])
    aug_rng = np.random.default_rng([fold_seed, 11])
    drop_rng = np.random.default_rng([fold_seed, 12])
    state = AdamState(lr=cfg.lr)

    trace: list[float] = []
    loss_trace: list[float] = []
    best_f1, best_epoch, best_snapshot = -1.0, -1, None
    n = len(enc_train)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for bstart in range(0, n, cfg.batch_size):
            batch = []
            for di in order[bstart:bstart + cfg.batch_size]:
                x = augment_tokens(enc_train[di], cfg.token_replace_rate,
                                   aug_rng, vocabs.word.size)
                x = augment_bboxes(x, cfg, aug_rng)
                batch.append((di, [ch.inputs
                                   for ch in chunk_document(x, cfg)]))
            loss, grads = _batch_grads(
                model, params, batch, train_rasters, drop_rng,
                [fold_seed, 12, epoch, bstart], cfg.max_seq_len)
            if not math.isfinite(loss):
                raise ConfigError(
                    f"fold seed {fold_seed}, epoch {epoch}, batch start "
                    f"{bstart}: training loss is {loss}; lower the "
                    "learning rate")
            epoch_losses.append(loss)
            adam_step(params, grads, state)
        loss_trace.append(float(np.mean(epoch_losses)))
        f1 = score_documents(model, enc_val, gold_val, cfg, label_names,
                             val_rasters)[1].weighted_f1
        trace.append(f1)
        if f1 > best_f1:
            best_f1, best_epoch, best_snapshot = f1, epoch, model.snapshot()
    model.restore(best_snapshot)
    return FoldResult(model=model, vocabs=vocabs,
                      best_epoch=best_epoch, best_val_f1=best_f1,
                      val_f1_trace=trace,
                      train_loss_trace=loss_trace)


def fold_seed_for(seed: int, fold: int) -> int:
    """Distinct training seed for every (seed, fold) pair (Cantor pairing)."""
    return (seed + fold) * (seed + fold + 1) // 2 + fold


@dataclass
class CVResult:
    folds: list[dict]               # make_fold_plan's train/val/test ids
    fold_results: list[FoldResult]
    per_fold_f1: list[float]        # each fold's test-split weighted F1
    per_class: ClassReport          # pooled over every fold's test split
    params: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_fold_f1))

    @property
    def std(self) -> float:
        """Population std, Table-1 style "m +/- s"."""
        return float(np.std(self.per_fold_f1))

    def to_metrics_json(self) -> dict:
        folds = [{"fold": f, "f1": f1, "best_epoch": res.best_epoch,
                  "best_val_f1": res.best_val_f1,
                  "val_f1_trace": res.val_f1_trace, **plan}
                 for f, (plan, res, f1) in enumerate(
                     zip(self.folds, self.fold_results, self.per_fold_f1))]
        return {"per_fold": self.per_fold_f1, "mean": self.mean,
                "std": self.std, "per_class": self.per_class.to_json(),
                "params": self.params, "folds": folds}


def cross_validate(docs: list[DocumentRecord], spec_template: TaggerSpec,
                   cfg: TrainConfig, bucket_cfg: BucketingConfig,
                   rasters: dict | None = None) -> CVResult:
    """k-fold cross-validation with k = `cfg.folds`; make_fold_plan
    refuses a corpus too small to fill the folds."""
    by_id = {d.id: d for d in docs}
    folds = make_fold_plan([d.id for d in docs], cfg.folds, cfg.val_fraction,
                           cfg.seed)

    results, per_fold, pooled_preds, pooled_gold = [], [], [], []
    for f, fold in enumerate(folds):
        train, val, test = ([by_id[i] for i in fold[key]]
                            for key in ("train", "val", "test"))
        res = train_fold(train, val, spec_template, cfg, bucket_cfg,
                         fold_seed=fold_seed_for(cfg.seed, f),
                         rasters=rasters)
        enc_test = [encode_document(d, res.vocabs, bucket_cfg,
                                    strict_labels=False) for d in test]
        gold = [[t.label for t in d.tokens] for d in test]
        preds, report = score_documents(
            res.model, enc_test, gold, cfg, res.vocabs.label_names(),
            [_doc_rasters(rasters, d) for d in test])
        results.append(res)
        per_fold.append(report.weighted_f1)
        pooled_preds += preds
        pooled_gold += gold
    return CVResult(
        folds=folds, fold_results=results, per_fold_f1=per_fold,
        per_class=entity_scores(pooled_preds, pooled_gold),
        params=count_parameters(results[0].model.spec).total)
