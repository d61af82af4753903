"""Two-thread inference: every split op, and the IMAGE path's image rows
beside the encoder, give the bytes of one whole call with OpenBLAS on one
thread, and every fallback runs whole."""

import ast
import functools
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import run_on_core

from ielab import layoutcore, pgm, synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import (
    FusionMode,
    ImagePathConfig,
    TaggerSpec,
    TokenTagger,
    with_resolved_sizes,
)
from ielab.stylefuse import model as tagger
from ielab.tensorcore import ShapeError, Tensor, ops, threads
from ielab.trainloop import TrainConfig, predict_token_probs, training

# 256-token chunks: documents of 145, 176 and 202 tokens run as one chunk,
# one of 262 tokens as two, all at or above SPLIT_MIN_ROWS
CFG = TrainConfig(max_seq_len=256, chunk_overlap=64)


@functools.cache
def _corpus():
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=4, tokens_per_doc=(140, 420), seed=0))
    rasters = {d.id: [pgm.raster_to_input(p.grid)
                      for p in synthdocs.render_pages(d, size=32)]
               for d in docs}
    return docs, rasters


def _model(mode: FusionMode, docs) -> tuple[TokenTagger, list]:
    """A model with O(1) weights, so the low bits of every op show, and the
    encoded documents."""
    bucket = BucketingConfig()
    vocabs = build_vocabularies(docs, bucket)
    image = ImagePathConfig(raster_size=32, backbone_channels=(4, 8),
                            roi_bins=2) if mode is FusionMode.IMAGE else None
    spec = TaggerSpec(encoder=EncoderConfig(word_vocab=2, label_count=1,
                                            hidden=64, layers=1, heads=2,
                                            max_seq_len=CFG.max_seq_len),
                      fusion=mode, style_dim=8, image=image)
    model = TokenTagger.build(with_resolved_sizes(
        spec, vocabs.word.size, len(vocabs.labels), vocabs.style.size_list()))
    rng = np.random.default_rng(5)
    for t in model.parameters().values():
        t.data += rng.normal(0.0, 0.2, size=t.data.shape)
    return model, [encode_document(d, vocabs, bucket) for d in docs]


def _probs(mode: FusionMode) -> list[np.ndarray]:
    docs, rasters = _corpus()
    model, encs = _model(mode, docs)
    raster = rasters if mode is FusionMode.IMAGE else {}
    return [predict_token_probs(model, enc, CFG, raster.get(d.id))
            for d, enc in zip(docs, encs)]


def _digests() -> dict[str, str]:
    out = {}
    for mode in FusionMode:
        h = hashlib.sha256()
        for p in _probs(mode):
            h.update(p.tobytes())
        out[mode.value] = h.hexdigest()
    return out


def test_inference_bytes_do_not_depend_on_blas_threads():
    """Without the split and its pin, 2 OpenBLAS threads change the low bits
    of the encoder's products against 1 thread."""
    lengths = [len(d.tokens) for d in _corpus()[0]]
    assert min(lengths) >= threads.SPLIT_MIN_ROWS
    assert min(lengths) <= CFG.max_seq_len < max(lengths)
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    code = "import json, test_threads; print(json.dumps(test_threads._digests()))"
    outs = [json.loads(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tests}",
             "OPENBLAS_NUM_THREADS": n}).stdout)
        for n in ("1", "2")]
    assert set(outs[0]) == {m.value for m in FusionMode}
    assert outs[0] == outs[1]


class _CountingWorker:
    """The worker, counting what is handed to it."""

    def __init__(self, real):
        self.real, self.calls = real, 0

    def submit(self, *args):
        self.calls += 1
        return self.real.submit(*args)


@pytest.fixture
def pinnable():
    fns = threads._openblas_threads()
    if fns is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    return fns


@pytest.fixture
def two_cpus(monkeypatch, pinnable):
    """Two usable CPUs whatever the machine has; returns the worker counter."""
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 2)
    spy = _CountingWorker(threads.worker())
    monkeypatch.setattr(threads, "worker", lambda: spy)
    return spy


@functools.cache
def _unsplit_one_thread_probs(mode: FusionMode) -> list[bytes]:
    """Every op whole, OpenBLAS on one thread (one usable CPU)."""
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(threads, "_usable_cpus", lambda: 1)
        return [p.tobytes() for p in _probs(mode)]
    finally:
        mp.undo()


@pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
def test_split_inference_has_the_bytes_of_a_whole_one_thread_forward(
        two_cpus, mode):
    want = _unsplit_one_thread_probs(mode)
    assert [p.tobytes() for p in _probs(mode)] == want
    # per document: the layer's 6 linears, attention and gelu, and the head
    # linear; IMAGE also hands over its image rows, whose ops run whole on
    # the worker
    assert two_cpus.calls == 4 * (9 + (mode is FusionMode.IMAGE))


# the bit-identity cases of this module that an unaligned row cut fails on
# cores other than SkylakeX
_BIT_IDENTITY = ("split_inference_has_the_bytes or image_rows_run_on_the_worker"
                 " or busy_worker_leaves_the_image_rows or each_split_op"
                 " or head_linear")


def test_split_bytes_hold_on_the_haswell_core():
    """The bit-identity cases, rerun in a child process whose OpenBLAS runs
    its AVX2 (Haswell) kernels instead of the ones it picks for this CPU."""
    child = run_on_core("Haswell", __file__, _BIT_IDENTITY)
    assert child.returncode == 0, child.stdout[-3000:]
    assert " passed" in child.stdout and "skipped" not in child.stdout


class _Record(list):
    """Names of the threads that ran each image-rows task, appended as each
    ends; `started` is set as one begins."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()


@pytest.fixture
def image_rows_ran_on(monkeypatch):
    ran_on, real = _Record(), tagger.image_rows

    def spy(*args):
        ran_on.started.set()
        try:
            return real(*args)
        finally:
            time.sleep(0.01)    # an end that the caller could overtake
            ran_on.append(threading.current_thread().name)

    monkeypatch.setattr(tagger, "image_rows", spy)
    return ran_on


def _encoder_after_image_rows_start(monkeypatch, ran_on):
    """Hold each encoder call until an image-rows task has begun, so that
    the worker, not this thread, runs it."""
    real = layoutcore.encoder_forward
    ran_on.started.clear()

    def held(*args):
        assert ran_on.started.wait(60)
        ran_on.started.clear()
        return real(*args)

    monkeypatch.setattr(layoutcore, "encoder_forward", held)


def test_image_rows_run_on_the_worker_beside_the_encoder(
        two_cpus, image_rows_ran_on, monkeypatch):
    want = _unsplit_one_thread_probs(FusionMode.IMAGE)
    _encoder_after_image_rows_start(monkeypatch, image_rows_ran_on)
    assert [p.tobytes() for p in _probs(FusionMode.IMAGE)] == want
    assert len(image_rows_ran_on) == 4
    assert all(name.startswith("ielab-worker") for name in image_rows_ran_on)


def test_a_busy_worker_leaves_the_image_rows_to_the_caller(
        two_cpus, image_rows_ran_on):
    """The call takes its image rows and every op half back from a worker
    that stays blocked until the call has ended."""
    want = _unsplit_one_thread_probs(FusionMode.IMAGE)
    release = threading.Event()
    busy = two_cpus.real.submit(release.wait, 60)
    try:
        got = [p.tobytes() for p in _probs(FusionMode.IMAGE)]
        still_busy = not busy.done()
    finally:
        release.set()
    assert busy.result(timeout=60) is True
    assert still_busy and got == want
    assert image_rows_ran_on == [threading.current_thread().name] * 4
    # per document 9 encoder and head ops and the image rows, and the image
    # rows' projection; per page, 2 backbone GELUs (5 pages in all)
    assert two_cpus.calls == 4 * 11 + 5 * 2


def test_a_failing_image_task_fails_the_call_after_it_ends(
        two_cpus, image_rows_ran_on, monkeypatch):
    """A two-channel raster fails the worker's task; the call raises what
    the one-CPU path raises, once the task has ended, and the worker is idle
    again."""
    docs, rasters = _corpus()
    model, encs = _model(FusionMode.IMAGE, docs)
    bad = [np.concatenate([r, r]) for r in rasters[docs[0].id]]
    with monkeypatch.context() as mp:
        mp.setattr(threads, "_usable_cpus", lambda: 1)
        with pytest.raises(ShapeError) as one_cpu:
            predict_token_probs(model, encs[0], CFG, bad)
    assert "raster has 2 channels" in str(one_cpu.value)
    assert two_cpus.calls == 0
    image_rows_ran_on.clear()
    _encoder_after_image_rows_start(monkeypatch, image_rows_ran_on)
    with pytest.raises(ShapeError) as split:
        predict_token_probs(model, encs[0], CFG, bad)
    ended = list(image_rows_ran_on)
    assert str(split.value) == str(one_cpu.value)
    assert len(ended) == 1 and ended[0].startswith("ielab-worker")
    assert two_cpus.real.submit(int, 3).result(timeout=60) == 3


def test_a_one_shard_image_training_step_hands_nothing_over(two_cpus):
    """A batch of one two-chunk document: OpenBLAS pinned and a tape
    recording, so every op and the image rows stay on this thread."""
    docs, rasters = _corpus()
    model, encs = _model(FusionMode.IMAGE, docs)
    longest = max(range(len(docs)), key=lambda i: len(docs[i].tokens))
    chunks = [c.inputs for c in training.chunk_document(encs[longest], CFG)]
    assert len(chunks) == 2
    loss, grads = training._batch_grads(
        model, model.parameters(), [(0, chunks)], [rasters[docs[longest].id]],
        np.random.default_rng(0), [0, 12, 0, 0], CFG.max_seq_len)
    assert np.isfinite(loss) and np.any(grads["image.proj.weight"])
    assert two_cpus.calls == 0


def _two_shard_step():
    """Loss and gradient bytes of one training step over two documents of
    one chunk each, more rows together than one chunk: two shards."""
    docs, _ = _corpus()
    model, encs = _model(FusionMode.STYLE_CONCAT, docs)
    batch = [(i, [c.inputs for c in training.chunk_document(encs[i], CFG)])
             for i in range(2)]
    assert [len(chunks) for _, chunks in batch] == [1, 1]
    assert training._shards(batch, CFG.max_seq_len) == [batch[:1], batch[1:]]
    loss, grads = training._batch_grads(
        model, model.parameters(), batch, [None, None],
        np.random.default_rng(0), [0, 12, 0, 0], CFG.max_seq_len)
    return np.float64(loss).tobytes(), {k: g.tobytes() for k, g in grads.items()}


def test_a_busy_worker_leaves_both_training_shards_to_the_caller(
        two_cpus, monkeypatch):
    """The step takes shard 1 back from a worker that stays blocked until
    the step has ended, with the bytes of a one-CPU step."""
    with monkeypatch.context() as mp:
        mp.setattr(threads, "_usable_cpus", lambda: 1)
        want = _two_shard_step()
    assert two_cpus.calls == 0
    release = threading.Event()
    busy = two_cpus.real.submit(release.wait, 60)
    try:
        got = _two_shard_step()
        still_busy = not busy.done()
    finally:
        release.set()
    assert busy.result(timeout=60) is True
    assert still_busy and got == want
    assert two_cpus.calls == 1


def test_only_threads_hands_work_to_the_worker():
    """No src/ module but tensorcore/threads.py imports concurrent.futures
    or reaches `threads.worker`, so `beside` stays the one hand-off."""
    src = Path(__file__).resolve().parent.parent / "src" / "ielab"
    found = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "tensorcore" / "threads.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "worker" in names or any(n.split(".")[0] == "concurrent"
                                        for n in names):
                found.append(f"{path.relative_to(src)}:{node.lineno}")
    assert found == []


def test_one_usable_cpu_runs_whole(two_cpus, monkeypatch):
    want = _unsplit_one_thread_probs(FusionMode.STYLE_CONCAT)
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 1)
    assert [p.tobytes() for p in _probs(FusionMode.STYLE_CONCAT)] == want
    assert two_cpus.calls == 0


def test_unpinnable_blas_runs_whole(two_cpus, monkeypatch, pinnable):
    want = _unsplit_one_thread_probs(FusionMode.STYLE_CONCAT)
    get, set_ = pinnable
    monkeypatch.setattr(threads, "_openblas_threads", lambda: None)
    old = get()
    set_(1)                 # for the bytes of one thread, set from outside
    try:
        got = [p.tobytes() for p in _probs(FusionMode.STYLE_CONCAT)]
    finally:
        set_(old)
    assert got == want
    assert two_cpus.calls == 0


def test_inference_on_the_worker_runs_whole(two_cpus):
    want = _unsplit_one_thread_probs(FusionMode.STYLE_CONCAT)
    future = two_cpus.real.submit(_probs, FusionMode.STYLE_CONCAT)
    got = future.result(timeout=120)
    assert [p.tobytes() for p in got] == want
    assert two_cpus.calls == 0


def test_documents_below_the_cut_off_run_as_they_are(two_cpus, monkeypatch):
    """Whole, on this thread, at the process's BLAS thread count; IMAGE
    keeps its image rows on this thread too."""
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=3, tokens_per_doc=(20, 60), seed=2))
    assert max(len(d.tokens) for d in docs) < threads.SPLIT_MIN_ROWS
    pages = [[pgm.raster_to_input(p.grid)
              for p in synthdocs.render_pages(d, size=32)] for d in docs]
    asked = []
    monkeypatch.setattr(threads, "_openblas_threads",
                        lambda: asked.append(1))
    for mode in (FusionMode.BASELINE, FusionMode.IMAGE):
        model, encs = _model(mode, docs)
        for enc, rasters in zip(encs, pages):
            predict_token_probs(model, enc, CFG, rasters)
    assert two_cpus.calls == 0 and not asked


@pytest.mark.parametrize("T", [128, 129, 300, 777])
def test_each_split_op_has_the_bytes_of_one_call(two_cpus, monkeypatch, T):
    rng = np.random.default_rng(T)

    def t(*shape):
        return Tensor(rng.normal(0.0, 1.5, size=shape))

    x, x2, x3, g, b = t(T, 64), t(T, 64), t(T, 64), t(64), t(64)
    w64, w256, b256, w_back = t(64, 64), t(64, 256), t(256), t(256, 64)
    wide = t(T, 256)
    mask = np.where(rng.random(T) < 0.2, -1e9, 0.0)[None, :]
    cases = [
        lambda: ops.linear(x, w64, b),
        lambda: ops.linear(x, w256, b256),
        lambda: ops.linear(wide, w_back, b),
        lambda: ops.add(x, x2),
        lambda: ops.gelu(wide),
        lambda: ops.layer_norm(x, g, b),
        lambda: ops.attention(x, x2, x3, None, 2),
        lambda: ops.attention(x, x2, x3, mask, 2),
        lambda: ops.attention(x, x2, x3, None, 2, [(0, T // 3), (T // 3, T)]),
    ]
    with monkeypatch.context() as mp:
        mp.setattr(threads, "_usable_cpus", lambda: 1)
        with threads.one_blas_thread(True):
            whole = [fn().data.tobytes() for fn in cases]
    assert two_cpus.calls == 0
    with threads.one_blas_thread(True):
        assert [fn().data.tobytes() for fn in cases] == whole
    assert two_cpus.calls == len(cases) - 2     # add and layer_norm run whole


def test_the_head_linear_of_a_pinned_call_runs_as_two_halves(
        two_cpus, monkeypatch):
    """The pinned call alone decides: the classifier head's linear splits
    as the encoder's do, with the bytes of a one-CPU call."""
    docs, _ = _corpus()
    model, encs = _model(FusionMode.STYLE_CONCAT, docs)
    inp = min(encs, key=lambda e: e.length)
    assert threads.SPLIT_MIN_ROWS <= inp.length <= CFG.max_seq_len
    head, real, parts = model.fusion_params["head.weight"].data, \
        ops._linear_rows, []

    def spy(out, xd, wd, bd, part):
        if wd is head:
            parts.append(part)
        real(out, xd, wd, bd, part)

    monkeypatch.setattr(ops, "_linear_rows", spy)
    with monkeypatch.context() as mp:
        mp.setattr(threads, "_usable_cpus", lambda: 1)
        want = model.predict_probs([inp]).tobytes()
    assert parts == [...] and two_cpus.calls == 0
    parts.clear()
    assert model.predict_probs([inp]).tobytes() == want
    cut = inp.length // 16 * 8
    assert sorted(parts, key=lambda p: p.start) == \
        [slice(0, cut), slice(cut, inp.length)]


def test_a_failing_half_fails_the_op_after_both_halves_end(two_cpus):
    done = []

    def kernel(out, part):
        if part.start:
            raise RuntimeError("second half failed")
        out[part] = 1.0
        done.append(part)

    out = np.zeros(200)
    with threads.one_blas_thread(True):
        with pytest.raises(RuntimeError, match="second half failed"):
            threads.run_halves(kernel, 200, out)
    # the cut is 200 // 2 rounded down to a multiple of 8
    assert done == [slice(0, 96)] and out[:96].all() and not out[96:].any()


def test_a_busy_worker_leaves_both_halves_to_the_caller(two_cpus):
    release = threading.Event()
    busy = two_cpus.real.submit(release.wait, 60)
    ran_on = []

    def kernel(out, part):
        ran_on.append((threading.current_thread().name, part))
        out[part] = 1.0

    out = np.zeros(200)
    try:
        with threads.one_blas_thread(True):
            threads.run_halves(kernel, 200, out)
    finally:
        release.set()
    busy.result(timeout=60)
    me = threading.current_thread().name
    assert ran_on == [(me, slice(0, 96)), (me, slice(96, 200))]
    assert out.all()


def test_many_callers_share_the_worker(monkeypatch):
    """Eight threads split ops through the one worker at a short switch
    interval; every output row is its own caller's."""
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 2)
    # a pin that never touches the process's real OpenBLAS thread count,
    # which the callers would restore out of order
    monkeypatch.setattr(threads, "_openblas_threads",
                        lambda: (lambda: 1, lambda n: None))

    ran_on = set()

    def kernel(out, x, part):
        on_worker = threading.current_thread().name.startswith("ielab-worker")
        ran_on.add(on_worker)
        if not on_worker:
            time.sleep(1e-4)    # time for the worker to begin its half
        np.multiply(x[part], 2.0, out=out[part])
        out[part] += 1.0

    def caller(i):
        x = np.arange(300.0) + 1000 * i
        with threads.one_blas_thread(True):
            for _ in range(50):
                out = np.full(300, np.nan)
                threads.run_halves(kernel, 300, out, x)
                if not np.array_equal(out, 2.0 * x + 1.0):
                    return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(caller, i) for i in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8
    assert ran_on == {True, False}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    threads.worker().submit(int).result(timeout=60)     # started here
    pid = os.fork()
    if pid == 0:                # the child: the parent's worker is not here
        ok = False
        try:
            ok = threads.worker().submit(int, 7).result(timeout=20) == 7
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
