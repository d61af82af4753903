import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import t_two_sided_p_oracle

from ielab import layoutcore as lc
from ielab import pgm, synthdocs
from ielab.docstream import BucketingConfig, pack_inputs
from ielab.errors import ConfigError, ContractError
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec
from ielab.tensorcore import threads
from ielab.trainloop import (
    TrainConfig,
    aggregate_chunk_predictions,
    augment_bboxes,
    augment_tokens,
    chunk_document,
    cross_validate,
    make_fold_plan,
    paired_t_test,
    predict_token_probs,
    train_fold,
)
from ielab.trainloop import training
from ielab.trainloop.chunking import Chunk
from test_layoutcore import make_config, tiny_input

CFG = TrainConfig()


def test_chunk_single_window():
    assert [(c.start, c.end) for c in chunk_document(tiny_input(T=400), CFG)] \
        == [(0, 400)]
    assert [(c.start, c.end) for c in chunk_document(tiny_input(T=512), CFG)] \
        == [(0, 512)]
    assert [(c.start, c.end) for c in chunk_document(tiny_input(T=1), CFG)] \
        == [(0, 1)]


def test_chunk_stride_rule():
    chunks = chunk_document(tiny_input(T=900), CFG)
    assert [(c.start, c.end) for c in chunks] == [(0, 512), (412, 900)]


def test_positions_restart_at_zero_in_each_packed_chunk():
    a, b = (c.inputs for c in chunk_document(tiny_input(T=900), CFG))
    cfg = make_config(max_seq_len=CFG.max_seq_len)
    params = lc.init_parameters(cfg)
    packed = lc.embed_tokens(pack_inputs([a, b]), params, cfg,
                             [a.length, b.length])
    alone = [lc.embed_tokens(x, params, cfg, [x.length]).data
             for x in (a, b)]
    assert packed.data.tobytes() == np.concatenate(alone).tobytes()


def test_chunk_coverage_fuzz():
    rng = np.random.default_rng(0)
    for T in [1, 2, 411, 412, 413, 511, 512, 513, 1024, 3000] + \
            list(rng.integers(1, 3000, 30)):
        chunks = chunk_document(tiny_input(T=int(T)), CFG)
        covered = np.zeros(int(T), dtype=int)
        for c in chunks:
            assert c.end - c.start <= CFG.max_seq_len
            covered[c.start:c.end] += 1
        assert (covered >= 1).all()
        starts = [c.start for c in chunks]
        assert all(b - a == 412 for a, b in zip(starts, starts[1:]))


def test_aggregate_single_chunk_passthrough():
    inp = tiny_input(T=7)
    chunks = chunk_document(inp, CFG)
    probs = [np.random.default_rng(1).random((7, 3))]
    out = aggregate_chunk_predictions(chunks, probs)
    assert np.array_equal(out, probs[0])


def test_aggregate_edge_distance_rule():
    inp = tiny_input(T=900)
    chunks = chunk_document(inp, CFG)
    p0 = np.zeros((512, 2))
    p1 = np.ones((488, 2))
    out = aggregate_chunk_predictions(chunks, [p0, p1])
    # token 450: distances 61 (chunk 0) vs 38 (chunk 1) -> chunk 0
    assert out[450, 0] == 0.0
    # token 500: distances 11 vs 88 -> chunk 1
    assert out[500, 0] == 1.0
    # token 461: distances 50 vs 49 -> chunk 0
    assert out[461, 0] == 0.0
    # token 462: distances 49 vs 50 -> chunk 1
    assert out[462, 0] == 1.0


def test_aggregate_every_token_exactly_once():
    rng = np.random.default_rng(5)
    for T in rng.integers(1, 3000, 20):
        inp = tiny_input(T=int(T))
        chunks = chunk_document(inp, CFG)
        probs = [np.full((c.end - c.start, 2), i, dtype=float)
                 for i, c in enumerate(chunks)]
        out = aggregate_chunk_predictions(chunks, probs)
        assert out.shape == (T, 2)
        assert np.isfinite(out).all()


def test_aggregate_detects_coverage_gap():
    c = Chunk(2, 4, tiny_input(T=2))
    with pytest.raises(ContractError):
        aggregate_chunk_predictions([c], [np.zeros((2, 2))])


def test_augment_tokens_identity_and_bounds():
    inp = tiny_input(T=50)
    rng = np.random.default_rng(0)
    out = augment_tokens(inp, 0.0, rng, vocab_size=100)
    assert np.array_equal(out.word_ids, inp.word_ids)
    with pytest.raises(ConfigError):
        augment_tokens(inp, 0.1, rng, vocab_size=2)


def test_augment_tokens_replacement_fraction():
    inp = tiny_input(T=100_000)
    inp.word_ids = np.full(100_000, 7, dtype=np.int64)
    rng = np.random.default_rng(3)
    out = augment_tokens(inp, 0.10, rng, vocab_size=5000)
    changed = np.mean(out.word_ids != 7)
    assert abs(changed - 0.10) < 0.01
    assert 0 not in out.word_ids and 1 not in out.word_ids
    assert np.array_equal(out.label_ids, inp.label_ids)
    assert np.array_equal(out.style_ids, inp.style_ids)
    assert np.array_equal(out.coord_ids, inp.coord_ids)


def test_augment_bboxes_identity_config():
    cfg = TrainConfig(bbox_shift_max=0, bbox_scale_range=(1.0, 1.0))
    inp = tiny_input(T=30)
    out = augment_bboxes(inp, cfg, np.random.default_rng(0))
    assert np.array_equal(out.coord_ids, inp.coord_ids)


def test_augment_bboxes_bounds_and_order():
    inp = tiny_input(T=200, seed=8)
    for seed in range(5):
        out = augment_bboxes(inp, CFG, np.random.default_rng(seed))
        x1, y1, x2, y2, w, h = out.coord_ids
        assert out.coord_ids.min() >= 0 and out.coord_ids.max() <= 1000
        assert (x1 <= x2).all()
        assert (y1 <= y2).all()
        assert np.array_equal(w, x2 - x1)


def test_augment_bboxes_deterministic():
    inp = tiny_input(T=40, seed=2)
    a = augment_bboxes(inp, CFG, np.random.default_rng(9))
    b = augment_bboxes(inp, CFG, np.random.default_rng(9))
    assert np.array_equal(a.coord_ids, b.coord_ids)


def corpus(n=14, seed=5, template="TRADECONF"):
    return synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template=template, n_docs=n, tokens_per_doc=(14, 22), seed=seed))


def spec_template(fusion=FusionMode.STYLE_CONCAT, hidden=16):
    enc = EncoderConfig(word_vocab=2, label_count=1, hidden=hidden, layers=1,
                        heads=2, seed=0)
    image = ImagePathConfig(raster_size=32, backbone_channels=(4, 8),
                            roi_bins=2) if fusion is FusionMode.IMAGE else None
    return TaggerSpec(encoder=enc, fusion=fusion, style_dim=4, image=image)


def test_make_fold_plan_partitions():
    ids = [f"d{i}" for i in range(10)]
    folds = make_fold_plan(ids, 5, 0.1, seed=3)
    tests = [set(f["test"]) for f in folds]
    assert all(len(t) == 2 for t in tests)
    assert set().union(*tests) == set(ids)
    for f in folds:
        assert not set(f["val"]) & set(f["test"])
        assert not set(f["train"]) & set(f["test"])
        assert set(f["train"]) | set(f["val"]) | set(f["test"]) == set(ids)
        assert len(f["val"]) >= 1


def test_train_fold_smoke_and_loss_direction():
    docs = corpus(6)
    cfg = TrainConfig(lr=1e-3, epochs=3, seed=0)
    improved = 0
    for seed in range(5):
        res = train_fold(docs[:4], docs[4:], spec_template(), cfg,
                         BucketingConfig(), fold_seed=seed)
        losses = res.train_loss_trace
        assert len(losses) == 3
        if any(b <= a for a, b in zip(losses, losses[1:])):
            improved += 1
    assert improved >= 4  # loss moves down (or holds) for nearly every seed


def test_train_fold_deterministic_trace():
    docs = corpus(6)
    cfg = TrainConfig(lr=1e-3, epochs=2, seed=0)
    r1 = train_fold(docs[:4], docs[4:], spec_template(), cfg,
                    BucketingConfig(), fold_seed=3)
    r2 = train_fold(docs[:4], docs[4:], spec_template(), cfg,
                    BucketingConfig(), fold_seed=3)
    assert r1.val_f1_trace == r2.val_f1_trace
    assert r1.train_loss_trace == r2.train_loss_trace


def test_train_fold_best_epoch_rule():
    docs = corpus(6)
    cfg = TrainConfig(lr=1e-3, epochs=3, seed=0)
    res = train_fold(docs[:4], docs[4:], spec_template(), cfg,
                     BucketingConfig(), fold_seed=1)
    assert res.best_epoch == res.val_f1_trace.index(max(res.val_f1_trace))


def test_train_fold_rejects_empty_split():
    with pytest.raises(ConfigError):
        train_fold([], corpus(2), spec_template(), TrainConfig(),
                   BucketingConfig(), fold_seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_fold_stops_on_a_non_finite_loss():
    """An lr that overflows the parameters after one step makes the next
    batch's loss NaN; training stops there instead of recording it."""
    docs = corpus(6)
    cfg = TrainConfig(lr=1e100, epochs=3, seed=0)
    with pytest.raises(ConfigError, match=r"fold seed 5, epoch 0, batch "
                       r"start 2: training loss is nan"):
        train_fold(docs[:4], docs[4:], spec_template(), cfg,
                   BucketingConfig(), fold_seed=5)


def test_cross_validate_deterministic_and_partition():
    docs = corpus(10)
    cfg = TrainConfig(lr=1e-3, epochs=1, seed=4, folds=5)
    r1 = cross_validate(docs, spec_template(), cfg, BucketingConfig())
    r2 = cross_validate(docs, spec_template(), cfg, BucketingConfig())
    assert r1.per_fold_f1 == r2.per_fold_f1
    assert r1.mean == pytest.approx(float(np.mean(r1.per_fold_f1)))
    assert r1.std == pytest.approx(float(np.std(r1.per_fold_f1)))
    tests = [set(f["test"]) for f in r1.folds]
    assert set().union(*tests) == {d.id for d in docs}
    with pytest.raises(ConfigError):
        cross_validate(docs[:3], spec_template(), cfg, BucketingConfig())


def test_cross_validate_same_on_one_or_two_workers(monkeypatch):
    docs = corpus(8)
    # 24-row chunks: every two-document batch splits into two shards
    cfg = TrainConfig(lr=1e-3, epochs=1, seed=4, max_seq_len=24,
                      chunk_overlap=6, folds=4)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        runs.append(cross_validate(docs, spec_template(), cfg,
                                   BucketingConfig()))
    assert runs[0].per_fold_f1 == runs[1].per_fold_f1
    for a, b in zip(runs[0].fold_results, runs[1].fold_results):
        assert a.train_loss_trace == b.train_loss_trace
        assert_same_arrays(a.model.snapshot(), b.model.snapshot())


# Multi-chunk documents whose products are large enough for OpenBLAS to
# thread them: with an unpinned BLAS, 1 and 2 threads give different bits.
SHARD_CFG = TrainConfig(lr=1e-2, epochs=2, batch_size=2, max_seq_len=256,
                        chunk_overlap=64)


def sharded_run(fusion):
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=7, tokens_per_doc=(300, 600), seed=13))
    rasters = {d.id: [pgm.raster_to_input(p.grid)
                      for p in synthdocs.render_pages(d, size=32)]
               for d in docs} if fusion is FusionMode.IMAGE else None
    # batches of 2, 2 and 1 documents: two two-shard steps, one one-shard step
    res = train_fold(docs[:5], docs[5:], spec_template(fusion, hidden=64),
                     SHARD_CFG, BucketingConfig(), fold_seed=7, rasters=rasters)
    return res.train_loss_trace, res.val_f1_trace, res.model.snapshot()


def assert_same_arrays(a: dict, b: dict):
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def assert_same_runs(a, b):
    assert np.array(a[0]).tobytes() == np.array(b[0]).tobytes()
    assert a[1] == b[1]
    assert_same_arrays(a[2], b[2])


def blas_threads():
    fns = threads._openblas_threads()
    if fns is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    return fns


def test_shards_cut_at_the_balanced_document_boundary():
    def batch(*lengths):
        return [(i, [tiny_input(T=n)]) for i, n in enumerate(lengths)]

    def cut(shards):
        return [[i for i, _ in shard] for shard in shards]

    assert cut(training._shards(batch(300, 200), 512)) == [[0, 1]]
    assert cut(training._shards(batch(600), 512)) == [[0]]
    assert cut(training._shards(batch(400, 300), 512)) == [[0], [1]]
    assert cut(training._shards(batch(100, 200, 300), 512)) == [[0, 1], [2]]
    assert cut(training._shards(batch(300, 200, 100), 512)) == [[0], [1, 2]]
    assert cut(training._shards(batch(200, 200, 200, 200), 512)) \
        == [[0, 1], [2, 3]]
    assert cut(training._shards(batch(300, 300), 512)) == [[0], [1]]
    # 100 | 300 and 300 | 100 balance equally: the earlier cut wins
    assert cut(training._shards(batch(100, 200, 100), 300)) == [[0], [1, 2]]


def test_sharded_steps_follow_the_whole_batch_loss(monkeypatch):
    # no dropout and no augmentation: a step's two shards, weighted by their
    # tokens, give the whole batch's mean loss and gradient
    docs = corpus(8)
    cfg = TrainConfig(lr=1e-3, epochs=2, max_seq_len=24, chunk_overlap=6,
                      token_replace_rate=0.0, bbox_shift_max=0,
                      bbox_scale_range=(1.0, 1.0))
    spec = replace(spec_template(), dropout_rate=0.0)
    cut, shard_counts = training._shards, []

    def counted(batch, max_rows):
        shards = cut(batch, max_rows)
        shard_counts.append(len(shards))
        return shards

    runs = []
    for split in (counted, lambda batch, max_rows: [batch]):
        monkeypatch.setattr(training, "_shards", split)
        res = train_fold(docs[:6], docs[6:], spec, cfg, BucketingConfig(),
                         fold_seed=2)
        runs.append((res.train_loss_trace, res.model.snapshot()))
    (sharded_loss, sharded), (whole_loss, whole) = runs
    assert 2 in shard_counts
    assert np.allclose(sharded_loss, whole_loss, rtol=1e-12, atol=0)
    for name in whole:
        assert np.allclose(sharded[name], whole[name], rtol=0, atol=1e-10)


@pytest.mark.parametrize("fusion", [FusionMode.STYLE_CONCAT, FusionMode.IMAGE],
                         ids=lambda f: f.value)
def test_train_fold_same_on_one_or_two_workers(monkeypatch, fusion):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        runs.append(sharded_run(fusion))
    assert_same_runs(*runs)


@pytest.mark.parametrize("fusion", [FusionMode.STYLE_CONCAT, FusionMode.IMAGE],
                         ids=lambda f: f.value)
def test_train_fold_same_for_any_process_blas_threads(fusion):
    get, set_ = blas_threads()
    old = get()
    runs = []
    try:
        for n in (1, 2):
            set_(n)
            runs.append(sharded_run(fusion))
    finally:
        set_(old)
    assert_same_runs(*runs)


def test_train_fold_restores_blas_threads(monkeypatch):
    get, set_ = blas_threads()
    old = get()
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=5, tokens_per_doc=(40, 60), seed=13))
    # 32-row chunks: the first batch splits into two shards
    cfg = TrainConfig(lr=1e-3, epochs=1, max_seq_len=32, chunk_overlap=8)
    shard_grads, worker_saw = training._shard_grads, []
    begun = threading.Event()

    def failing_shard(*args):
        if threading.current_thread() is threading.main_thread():
            # fail once the worker has begun shard 1, so it is not taken back
            assert begun.wait(60)
            raise RuntimeError("shard failed")
        begun.set()
        time.sleep(0.2)             # still running after shard 0 failed
        worker_saw.append((threading.current_thread().name, get()))
        return shard_grads(*args)

    try:
        set_(2)
        train_fold(docs[:4], docs[4:], spec_template(), cfg,
                   BucketingConfig(), fold_seed=0)
        assert get() == 2
        monkeypatch.setattr(training, "_shard_grads", failing_shard)
        with pytest.raises(RuntimeError, match="shard failed"):
            train_fold(docs[:4], docs[4:], spec_template(), cfg,
                       BucketingConfig(), fold_seed=0)
        # shard 1 ran on the process's worker, pinned until it ended, ...
        assert worker_saw == [("ielab-worker_0", 1)]
        assert get() == 2           # ... then restored
    finally:
        set_(old)


def test_chunking_identity_through_model():
    from ielab.docstream import build_vocabularies, encode_document
    from ielab.stylefuse import TokenTagger
    from ielab.stylefuse.model import with_resolved_sizes

    docs = corpus(4)
    bucket = BucketingConfig()
    vocabs = build_vocabularies(docs, bucket)
    spec = with_resolved_sizes(spec_template(), vocabs.word.size,
                               len(vocabs.labels), vocabs.style.size_list())
    model = TokenTagger.build(spec)
    enc = encode_document(docs[0], vocabs, bucket)
    direct = model.predict_probs([enc])
    chunked = predict_token_probs(model, enc, CFG)
    assert np.array_equal(direct, chunked)


@pytest.mark.parametrize("T", [CFG.max_seq_len, CFG.max_seq_len + 1])
def test_predict_token_probs_at_the_chunk_boundary(T):
    """A document of max_seq_len tokens runs as itself; one more token
    makes two chunks, packed and stitched."""
    from ielab.stylefuse import TokenTagger
    from ielab.stylefuse.model import with_resolved_sizes

    model = TokenTagger.build(
        with_resolved_sizes(spec_template(), 8, 3, (2, 2, 2, 2, 2)))
    inp = tiny_input(T=T)
    if T <= CFG.max_seq_len:
        want = model.predict_probs([inp])
    else:
        chunks = chunk_document(inp, CFG)
        probs = model.predict_probs([c.inputs for c in chunks])
        want = aggregate_chunk_predictions(
            chunks, np.split(probs, [chunks[0].end - chunks[0].start]))
        assert len(chunks) == 2
    assert predict_token_probs(model, inp, CFG).tobytes() == want.tobytes()


def test_paired_t_test_exact_case():
    t, p = paired_t_test([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert t == pytest.approx(4.242640687, abs=1e-6)
    assert p == pytest.approx(0.013235, abs=1e-4)
    assert p == pytest.approx(t_two_sided_p_oracle(t, 4), abs=1e-8)


def test_paired_t_test_degenerate_rules():
    assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)
    t, p = paired_t_test([2.0, 3.0], [1.0, 2.0])
    assert math.isinf(t) and t > 0 and p == 0.0


def test_paired_t_test_antisymmetry():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=5), rng.normal(size=5)
    t1, p1 = paired_t_test(a, b)
    t2, p2 = paired_t_test(b, a)
    assert t1 == pytest.approx(-t2, abs=1e-12)
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_paired_t_test_matches_integration_oracle():
    rng = np.random.default_rng(11)
    for k in (3, 5, 10):
        for _ in range(17):
            a = rng.normal(size=k)
            b = rng.normal(size=k)
            t, p = paired_t_test(a, b)
            assert p == pytest.approx(t_two_sided_p_oracle(t, k - 1), abs=1e-6)


def test_paired_t_test_p_has_the_bits_of_scipy_stats():
    """p is 2 * scipy.stats.t.sf(|t|, k - 1) bit for bit, for df 1 to 29
    and |t| from near 0 to far in the tail."""
    from scipy import stats as sps

    rng = np.random.default_rng(12)
    for k in range(2, 31):
        for shift in (0.0, 0.05, 0.5, 2.0, 20.0):
            a = rng.normal(size=k) + shift
            b = rng.normal(size=k)
            t, p = paired_t_test(a, b)
            assert p == 2.0 * float(sps.t.sf(abs(t), k - 1)), (k, t)


def test_paired_t_test_length_mismatch():
    with pytest.raises(ConfigError):
        paired_t_test([1, 2, 3], [1, 2])


def test_fold_seeds_distinct_over_seed_fold_grid():
    from ielab.trainloop.training import fold_seed_for

    seeds = [fold_seed_for(s, f) for s in range(12) for f in range(10)]
    assert len(set(seeds)) == len(seeds)
    assert fold_seed_for(0, 1) != fold_seed_for(1, 0)
