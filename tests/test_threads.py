"""Two-thread inference: every split op gives the bytes of one whole call
with OpenBLAS on one thread, and every fallback runs whole."""

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

from ielab import pgm, synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import (
    FusionMode,
    ImagePathConfig,
    TaggerSpec,
    TokenTagger,
    with_resolved_sizes,
)
from ielab.tensorcore import Tensor, ops, threads
from ielab.trainloop import TrainConfig, predict_token_probs

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
    # per document: embed layer norm, then per layer 6 linears, attention,
    # 2 adds, 2 layer norms and gelu
    assert two_cpus.calls == 4 * 13


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
    """Whole, on this thread, at the process's BLAS thread count."""
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=3, tokens_per_doc=(20, 60), seed=2))
    assert max(len(d.tokens) for d in docs) < threads.SPLIT_MIN_ROWS
    model, encs = _model(FusionMode.BASELINE, docs)
    asked = []
    monkeypatch.setattr(threads, "_openblas_threads",
                        lambda: asked.append(1))
    for enc in encs:
        predict_token_probs(model, enc, CFG)
    assert two_cpus.calls == 0 and not asked


def _whole_and_split(fn, rows):
    with threads.inference(rows):
        whole = fn().data.tobytes()
        with threads.split_rows():
            split = fn().data.tobytes()
    return whole, split


@pytest.mark.parametrize("T", [128, 129, 300, 777])
def test_each_split_op_has_the_bytes_of_one_call(two_cpus, T):
    rng = np.random.default_rng(T)

    def t(*shape):
        return Tensor(rng.normal(0.0, 1.5, size=shape))

    x, x2, x3, g, b = t(T, 64), t(T, 64), t(T, 64), t(64), t(64)
    w64, w256, b256, w_back = t(64, 64), t(64, 256), t(256), t(256, 64)
    wide = t(T, 256)
    cut = T // 3
    mask = np.where(rng.random(T - cut) < 0.2, -1e9, 0.0)[None, :]
    cases = [
        lambda: ops.linear(x, w64, b),
        lambda: ops.linear(x, w256, b256),
        lambda: ops.linear(wide, w_back, b),
        lambda: ops.add(x, x2),
        lambda: ops.gelu(wide),
        lambda: ops.layer_norm(x, g, b),
        lambda: ops.attention(x, x2, x3, None, 2),
        lambda: ops.attention(x, x2, x3, [None, mask], 2,
                              [(0, cut), (cut, T)]),
    ]
    for fn in cases:
        whole, split = _whole_and_split(fn, T)
        assert whole == split
    assert two_cpus.calls == len(cases)


def test_a_failing_half_fails_the_op_after_both_halves_end(two_cpus):
    done = []

    def kernel(out, part):
        if part.start:
            raise RuntimeError("second half failed")
        out[part] = 1.0
        done.append(part)

    out = np.zeros(200)
    with threads.inference(200), threads.split_rows():
        with pytest.raises(RuntimeError, match="second half failed"):
            threads.run_halves(kernel, 200, out)
    assert done == [slice(0, 100)] and out[:100].all() and not out[100:].any()


def test_a_busy_worker_leaves_both_halves_to_the_caller(two_cpus):
    release = threading.Event()
    busy = two_cpus.real.submit(release.wait, 60)
    ran_on = []

    def kernel(out, part):
        ran_on.append((threading.current_thread().name, part))
        out[part] = 1.0

    out = np.zeros(200)
    try:
        with threads.inference(200), threads.split_rows():
            threads.run_halves(kernel, 200, out)
    finally:
        release.set()
    busy.result(timeout=60)
    me = threading.current_thread().name
    assert ran_on == [(me, slice(0, 100)), (me, slice(100, 200))]
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
        with threads.inference(300), threads.split_rows():
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
