"""Byte-identity pins for training and inference in every fusion mode.

The SHA-256 digests below were taken from the forward path that added an
all-zero attention bias, took layer-norm means with `np.mean` and fused
STYLE_SUM as a chain of adds. Any rewrite of that path must reproduce the
loss trace, the final parameters and the predicted probabilities bit for
bit, multi-chunk documents and two-shard training steps included.

The digests hold for float64 numpy on an x86-64 OpenBLAS build; every
product here is small enough that OpenBLAS runs it on one thread.
"""

import hashlib

import numpy as np
import pytest
from conftest import mul, sum_all

from ielab import pgm, synthdocs
from ielab.docstream import BucketingConfig, encode_document
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec
from ielab.tensorcore import Tape, Tensor, backward, ops, parameter
from ielab.trainloop import TrainConfig, predict_token_probs, train_fold

# 32-token chunks with an overlap of 8: documents of 20-60 tokens give
# one-chunk and two-chunk documents, and two-document batches of more than
# 32 rows train as two shards
CFG = TrainConfig(lr=1e-2, epochs=2, batch_size=2, max_seq_len=32,
                  chunk_overlap=8, seed=0)

# mode -> (loss trace, final parameters, predicted probabilities)
DIGESTS = {
    "BASELINE": (
        "e0e5c28e386d56114a1322202fddc4308560acc79cde936dc821b66103abcb69",
        "1b9c561697ad3469f51798d67841138978a4cf1b91800e46efe248fccaf2bc0a",
        "44e39596f8e0204d9fa94033f9f052ee3943105d15f2249284f014c7f97596a5"),
    "STYLE_SUM": (
        "eddbf24d3fc3b096159cd0ef6418be26d9a442c5a4ce269d5d265e02bec68167",
        "619cf3ff8b1ff3ec038edc65ecfcb93b1ced955cb7d4fd9b34816d31594ee0a0",
        "7143e7d95dcbd62eba1133bc49ffb903e8ee5e9f58b4ab57e08340831828e3cc"),
    "STYLE_CONCAT": (
        "4380dd086a71e8bf0cba24c55fcf197500c7633c722d01afb50871fd2c8fd404",
        "ab0c11e6624747e66938bfe2b14ce206a14fc9a31fa537dde7889abf24eb4027",
        "7d104ad5405f5b28bf7747eecfac8aca71d1938acfca5f232208cf2af6781eda"),
    "IMAGE": (
        "bf026573a45f3fb3a25455aef1f28ffd7bfaeb8489837b1f6e6ce29709f53c0f",
        "d0e74a7908e2b7a1f9e7b861e1c35a826ad99c01676dce18af67d89384bc25ce",
        "b4ee9ff86cd360f71fe4f6ed9a7da171e0968560a38d95cc67d78a10600f801a"),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run(mode: FusionMode):
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=7, tokens_per_doc=(20, 60), seed=17))
    rasters = {d.id: [pgm.raster_to_input(p.grid)
                      for p in synthdocs.render_pages(d, size=32)]
               for d in docs} if mode is FusionMode.IMAGE else None
    # a width of 24 in two heads of 12: 1/h and 1/sqrt(dh) are inexact, so a
    # change of rounding in a mean or the score scale shows
    enc = EncoderConfig(word_vocab=2, label_count=1, hidden=24, layers=2,
                        heads=2, seed=0)
    image = ImagePathConfig(raster_size=32, backbone_channels=(4, 8),
                            roi_bins=2) if mode is FusionMode.IMAGE else None
    spec = TaggerSpec(encoder=enc, fusion=mode, style_dim=4, image=image)
    bucket = BucketingConfig()
    res = train_fold(docs[:5], docs[5:], spec, CFG, bucket, fold_seed=3,
                     rasters=rasters)
    snap = res.model.snapshot()
    probs = [predict_token_probs(
        res.model, encode_document(d, res.vocabs, bucket, strict_labels=False),
        CFG, rasters[d.id] if rasters else None) for d in docs]
    lengths = [len(d.tokens) for d in docs]
    return (_sha(res.train_loss_trace),
            _sha(*[np.frombuffer(n.encode(), np.uint8) for n in sorted(snap)],
                 *[snap[n] for n in sorted(snap)]),
            _sha(*probs)), lengths


@pytest.mark.parametrize("mode", list(FusionMode))
def test_training_and_inference_bits_are_pinned(mode):
    digests, lengths = _run(mode)
    assert max(lengths) > CFG.max_seq_len >= min(lengths)
    assert digests == DIGESTS[mode.value]


def _grads(make_out, leaves, w):
    """Output bytes and the gradients of sum(out * w) for each leaf."""
    tape = Tape()
    with tape:
        tape.watch(*leaves)
        out = make_out()
        loss = sum_all(mul(out, Tensor(w)))
    g = backward(loss, tape)
    return out.data, [g[t] for t in leaves]


def test_layer_norm_bits_match_the_mean_formula():
    rng = np.random.default_rng(31)
    x = parameter(rng.normal(1.0, 3.0, size=(9, 24)))
    gamma = parameter(rng.normal(1.0, 0.2, size=24))
    beta = parameter(rng.normal(0.0, 0.2, size=24))
    w = rng.normal(size=(9, 24))
    out, (dx, dgamma, dbeta) = _grads(
        lambda: ops.layer_norm(x, gamma, beta), [x, gamma, beta], w)
    xd, gd = x.data, gamma.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-12)
    xhat = xc * inv
    dxhat = w * gd
    want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert out.tobytes() == (xhat * gd + beta.data).tobytes()
    assert dx.tobytes() == want_dx.tobytes()
    assert dgamma.tobytes() == (w * xhat).sum(axis=0).tobytes()
    assert dbeta.tobytes() == w.sum(axis=0).tobytes()


def test_softmax_rows_bits_match_the_exp_formula():
    rng = np.random.default_rng(32)
    x = parameter(rng.normal(0.0, 4.0, size=(11, 7)))
    w = rng.normal(size=(11, 7))
    out, (dx,) = _grads(lambda: ops.softmax_rows(x), [x], w)
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    assert out.tobytes() == y.tobytes()
    assert dx.tobytes() == (y * (w - (w * y).sum(axis=-1, keepdims=True))
                            ).tobytes()
