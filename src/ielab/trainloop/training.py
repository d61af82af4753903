"""Fine-tuning protocol: epochs, augmentation, sharded steps, model
selection, k-fold CV.

Each optimizer step trains on one batch of documents. Augmentation and
chunking run on the calling thread, in document order. A batch whose chunks
hold more rows than one chunk (`max_seq_len`) and that has at least two
documents splits into two shards: contiguous groups of its documents, cut at
the document boundary that best balances their row counts (the earlier cut
on a tie). Every other batch is one shard. Each shard runs one packed
forward over its chunks (see TokenTagger.fused_output) on its own tape,
takes the cross-entropy over its unmasked tokens and runs its own backward.
Its loss and gradients are weighted by its share of the batch's unmasked
tokens and summed in shard order, so the step follows the mean loss over the
whole batch; Adam then applies one update at a constant learning rate.

Shard 0 runs on the calling thread and draws dropout from the fold's
dropout stream (fold_seed, 12), so a batch of one chunk's rows trains
exactly as an unsharded step. Shard 1 runs on the process's worker thread
(tensorcore.threads) and draws dropout from (fold_seed, 12, epoch, batch
start). While a batch of more than one chunk's rows trains, numpy's OpenBLAS
is pinned to one thread, and its old thread count is restored afterwards,
also on an exception. The two shards then use two CPUs without a BLAS pool
oversubscribing them, and their bits do not depend on the process's BLAS
thread count, which changes the low bits of large products. Where OpenBLAS
cannot be pinned, only one CPU is usable or the caller is the worker itself,
the shards run one after the other with the same bits. The partition depends
only on the batch, never on the machine. A batch of at most one chunk's rows
trains at the process's BLAS thread count, on the calling thread; every op
of a training step runs whole, never split by rows.

Validation runs inference calls (see TokenTagger.predict_probs): for a
document of at least `threads.SPLIT_MIN_ROWS` tokens, OpenBLAS on one thread
and the encoder's ops split over the calling thread and the worker.

Training stops with a ConfigError at the first batch whose loss is not
finite, naming the fold seed, epoch and batch start.

After every epoch the validation split is scored with entity-level weighted
F1 (no augmentation, no dropout) and the best epoch's parameters are kept,
earlier epochs winning ties.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import wait
from dataclasses import dataclass, field, replace

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
from ielab.trainloop.chunking import chunk_document, predict_tags


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


@dataclass
class FoldPlan:
    k: int
    seed: int
    folds: list[dict] = field(default_factory=list)  # train/val/test id lists


def make_fold_plan(doc_ids: list[str], k: int, val_fraction: float,
                   seed: int) -> FoldPlan:
    if len(doc_ids) < k:
        raise ConfigError(f"{len(doc_ids)} documents cannot fill {k} folds")
    shuffled = list(np.random.default_rng([seed, 1]).permutation(doc_ids))
    test_folds = [list(part) for part in np.array_split(shuffled, k)]
    plan = FoldPlan(k=k, seed=seed)
    for f in range(k):
        test = test_folds[f]
        pool = [i for i in shuffled if i not in set(test)]
        n_val = max(1, int(round(val_fraction * len(pool))))
        pool_perm = list(np.random.default_rng([seed, 2, f]).permutation(pool))
        plan.folds.append({"val": pool_perm[:n_val],
                           "train": pool_perm[n_val:],
                           "test": test})
    return plan


@dataclass
class FoldResult:
    model: TokenTagger              # restored to the best epoch
    vocabs: Vocabularies
    spec: TaggerSpec
    best_epoch: int
    best_val_f1: float
    val_f1_trace: list[float]
    val_doc_ids: list[str]
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
        logits = model.forward_logits(inputs, rasters, training=True, rng=rng)
        loss = ops.cross_entropy_masked(
            logits, np.concatenate([i.label_ids for i in inputs]),
            np.concatenate([i.mask for i in inputs]))
    grads = backward(loss, tape)
    out = {name: grads[tape.tracked_id(t)].data for name, t in params.items()}
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
    `second_seed` and runs on the worker thread while this thread runs the
    first, when OpenBLAS is pinned and a second CPU is at hand.
    """
    shards = _shards(batch, max_rows)
    inputs = [[c for _, chunks in sh for c in chunks] for sh in shards]
    tokens = [sum(int(i.mask.sum()) for i in inp) for inp in inputs]
    rngs = [drop_rng] if len(shards) == 1 else \
        [drop_rng, np.random.default_rng(second_seed)]
    jobs = [(model, params, inp,
             [rasters[di] for di, chunks in sh for _ in chunks], rng,
             t / sum(tokens))
            for sh, inp, rng, t in zip(shards, inputs, rngs, tokens)]
    rows = sum(i.length for inp in inputs for i in inp)
    with threads._one_blas_thread() if rows > max_rows \
            else contextlib.nullcontext(False) as pinned:
        if len(jobs) == 2 and threads.second_cpu(pinned):
            second = threads.worker().submit(_shard_grads, *jobs[1])
            try:
                first = _shard_grads(*jobs[0])
            finally:
                wait([second])      # shard 1 ends before BLAS is unpinned
            results = [first, second.result()]
        else:
            results = [_shard_grads(*job) for job in jobs]
    loss, grads = results[0]
    for shard_loss, shard_grads in results[1:]:
        loss += shard_loss
        for name, g in grads.items():
            g += shard_grads[name]
    return loss, grads


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
                batch.append((di, [ch.inputs for ch in chunk_document(
                    x, cfg, train_docs[di].id)]))
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
        preds = [predict_tags(model, enc, cfg, label_names, rast)
                 for enc, rast in zip(enc_val, val_rasters)]
        f1 = entity_scores(preds, gold_val).weighted_f1
        trace.append(f1)
        if f1 > best_f1:
            best_f1, best_epoch, best_snapshot = f1, epoch, model.snapshot()
    model.restore(best_snapshot)
    return FoldResult(model=model, vocabs=vocabs, spec=spec,
                      best_epoch=best_epoch, best_val_f1=best_f1,
                      val_f1_trace=trace,
                      val_doc_ids=[d.id for d in val_docs],
                      train_loss_trace=loss_trace)


def fold_seed_for(seed: int, fold: int) -> int:
    """Distinct training seed for every (seed, fold) pair (Cantor pairing)."""
    return (seed + fold) * (seed + fold + 1) // 2 + fold


@dataclass
class CVResult:
    per_fold_f1: list[float]
    mean: float
    std: float                      # population std, Table-1 style "m +/- s"
    per_class: ClassReport
    params: int
    fold_details: list[dict]
    plan: FoldPlan
    fold_results: list[FoldResult]

    def to_metrics_json(self) -> dict:
        return {"per_fold": self.per_fold_f1, "mean": self.mean,
                "std": self.std, "per_class": self.per_class.to_json(),
                "params": self.params,
                "folds": self.fold_details}


def cross_validate(docs: list[DocumentRecord], spec_template: TaggerSpec,
                   cfg: TrainConfig, bucket_cfg: BucketingConfig,
                   k: int = 5, rasters: dict | None = None) -> CVResult:
    if len(docs) < k:
        raise ConfigError(f"corpus of {len(docs)} documents is smaller than k={k}")
    by_id = {d.id: d for d in docs}
    plan = make_fold_plan([d.id for d in docs], k, cfg.val_fraction, cfg.seed)

    def run_fold(f: int) -> dict:
        fold = plan.folds[f]
        train = [by_id[i] for i in fold["train"]]
        val = [by_id[i] for i in fold["val"]]
        test = [by_id[i] for i in fold["test"]]
        res = train_fold(train, val, spec_template, cfg, bucket_cfg,
                         fold_seed=fold_seed_for(cfg.seed, f),
                         rasters=rasters)
        enc_test = [encode_document(d, res.vocabs, bucket_cfg,
                                    strict_labels=False) for d in test]
        preds = [predict_tags(res.model, e, cfg, res.vocabs.label_names(),
                              _doc_rasters(rasters, d))
                 for e, d in zip(enc_test, test)]
        gold = [[t.label for t in d.tokens] for d in test]
        return {"result": res, "preds": preds, "gold": gold,
                "f1": entity_scores(preds, gold).weighted_f1}

    outcomes = [run_fold(f) for f in range(k)]

    per_fold = [o["f1"] for o in outcomes]
    pooled_preds = [p for o in outcomes for p in o["preds"]]
    pooled_gold = [g for o in outcomes for g in o["gold"]]
    details = [{"fold": f,
                "f1": outcomes[f]["f1"],
                "best_epoch": outcomes[f]["result"].best_epoch,
                "best_val_f1": outcomes[f]["result"].best_val_f1,
                "val_f1_trace": outcomes[f]["result"].val_f1_trace,
                **{key: plan.folds[f][key] for key in ("train", "val", "test")}}
               for f in range(k)]
    return CVResult(
        per_fold_f1=per_fold,
        mean=float(np.mean(per_fold)),
        std=float(np.std(per_fold)),
        per_class=entity_scores(pooled_preds, pooled_gold),
        params=count_parameters(outcomes[0]["result"].spec).total,
        fold_details=details,
        plan=plan,
        fold_results=[o["result"] for o in outcomes])
