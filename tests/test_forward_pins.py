"""Byte-identity pins for training and inference in every fusion mode.

The SHA-256 digests below were taken from the forward path that added an
all-zero attention bias, took layer-norm means with `np.mean` and fused
STYLE_SUM as a chain of adds. Any rewrite of that path must reproduce the
loss trace, the final parameters and the predicted probabilities bit for
bit, multi-chunk documents and two-shard training steps included.

The digests hold for float64 numpy on an x86-64 OpenBLAS build, one set
per OpenBLAS core: each core's GEMM kernels sum in their own order. Every
product here is small enough that OpenBLAS runs it on one thread.
"""

import hashlib

import numpy as np
import pytest
from conftest import mul, openblas_core, run_on_core, sum_all

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

# OpenBLAS core (as conftest.openblas_core names it) -> mode -> (loss trace,
# final parameters, predicted probabilities). SkylakeX is the core OpenBLAS
# picks on the AVX-512 machine where the pins were first taken. The other
# cores were simulated on that one machine, each forced in a child process
# with OPENBLAS_CORETYPE (there, Zen runs and reports the Haswell kernels
# and Prescott the Katmai ones); no other machine and no ARM build was tried.
DIGESTS = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "BASELINE": (
            "e0e5c28e386d56114a1322202fddc4308560acc79cde936dc821b66103abcb69",
            "39382c74e9cbb95b4e740c27ebf6619edaf47b199018467dc41051444dc0a77e",
            "c3070885f203180ef53e71834dc6ef21b31c8a7054ac63251aa5bd023b40a5dc"),
        "STYLE_SUM": (
            "eddbf24d3fc3b096159cd0ef6418be26d9a442c5a4ce269d5d265e02bec68167",
            "ab25993976b0e33c8c75db851bd775f6dd25a2933d4b897b0656f7cf2b7143f0",
            "0adf4faba241173309de7db5c6bfc17442429d90c5897e68a278996754e60ecc"),
        "STYLE_CONCAT": (
            "3758a227dcc1ffd75b00780e523b798b211ff39bf44a801454ba8acb49829372",
            "9671155c46032edddeffac4a6abb512b0fe6601701f16426ff3d5ccd9419c9bf",
            "ce140554cb7956034ddaf18e270400576b5df58a6b24d395e4532d66c79e718c"),
        "IMAGE": (
            "bf026573a45f3fb3a25455aef1f28ffd7bfaeb8489837b1f6e6ce29709f53c0f",
            "83b9fab30f9432b05648574e7afaa69ba6fe3b6ff23f98f47b7c825de7b4cd8f",
            "4ac0d1cf939f46d60eb8458221dde9b64cd858849d3f96e5244feb968bdcf284"),
    },
    "Sandybridge": {
        "BASELINE": (
            "e0e5c28e386d56114a1322202fddc4308560acc79cde936dc821b66103abcb69",
            "5556f7f665e27b60637573095ebe792a4e176a7c3aad1cd6c9dbb1bde75f5185",
            "eaa0774e1d0b74e89b06be21f35e948b6ce082cecff37e8364a263a61544c961"),
        "STYLE_SUM": (
            "1c3bb4dc40e4cf77b340ac696345dc81893834a20e91e9b8c0bb3127632ac0ce",
            "66f94811be4305dd1fd7a71cb05a6a510d9340db3dc4c19f2801a1d611b9738e",
            "772cbd407e690d3d7c25dc40c7dfab4af674a905d697d6cc4130a825f6a37e57"),
        "STYLE_CONCAT": (
            "3758a227dcc1ffd75b00780e523b798b211ff39bf44a801454ba8acb49829372",
            "d0ebebe3f51e52301c48b66783ef97f31d5c5c70966ab25706c8318e41f56e09",
            "0c66592aa223ad5315926674223513659d1f281428d6da6bd9c41d51db05a176"),
        "IMAGE": (
            "bf026573a45f3fb3a25455aef1f28ffd7bfaeb8489837b1f6e6ce29709f53c0f",
            "114f5de3ea399d6b23dd521df9d6ea248400ae580429ebc432c5b5027a7b55df",
            "819b9d4f33ea1cc4c1dfce8b668162cf6f9de8e8bad3f7a0a7e39ed0639aa54c"),
    },
    "Nehalem": {
        "BASELINE": (
            "e0e5c28e386d56114a1322202fddc4308560acc79cde936dc821b66103abcb69",
            "6dfc4e51fbd02538347cfa651f22a582129b07181a5f325b080c53536c30ec4a",
            "26b88330da9537aaa0724ada937562bde2910d888deac1ff2524cdc46cf56dc0"),
        "STYLE_SUM": (
            "eddbf24d3fc3b096159cd0ef6418be26d9a442c5a4ce269d5d265e02bec68167",
            "6f8b4410d1c4ae60020304a24ab590a43387f43d8d67b502bdc529bc133b3cd8",
            "9ddee9dc6198ca2033322b391e62367571ec122ec99991b7028ce1a52c4109aa"),
        "STYLE_CONCAT": (
            "4380dd086a71e8bf0cba24c55fcf197500c7633c722d01afb50871fd2c8fd404",
            "f0f4071b35e713aebe5ada9049b991205f068f68325e265925c5128c20e0dfe6",
            "32051f96b2272d2873c661c06b5010e31ea94a5f74eb16991c3a3bfcf22244d6"),
        "IMAGE": (
            "bf026573a45f3fb3a25455aef1f28ffd7bfaeb8489837b1f6e6ce29709f53c0f",
            "90c3acf1df6ba25553a58edcf02770828a67e792dac7976ef59be87652381025",
            "a249de53da1e121f4af4aa292fa3491a13975bc9f6360e92f23bc6c933ae1faf"),
    },
    "Katmai": {
        "BASELINE": (
            "e0e5c28e386d56114a1322202fddc4308560acc79cde936dc821b66103abcb69",
            "7cc106f9cc707b0ec57ca5636a0ea72ae17b19d9d39498d2c0bd6767387108bd",
            "60c223da4c8fa0b1c762712ec68f247e4f9a9333b268078db59c4ea32359549f"),
        "STYLE_SUM": (
            "eddbf24d3fc3b096159cd0ef6418be26d9a442c5a4ce269d5d265e02bec68167",
            "d96c6c283488d711d7c25d1b2d6e294b5db6080d1fad8d750b859a6d36cd5322",
            "47c861ce522bed83359ba75ed5ec283c9555638a2e1bee2cf18d93a6d0253833"),
        "STYLE_CONCAT": (
            "3758a227dcc1ffd75b00780e523b798b211ff39bf44a801454ba8acb49829372",
            "c241702b0ae8bb4cdff451d8410f3ff4826988456f9d1385a322ab91329bdb28",
            "090ba9bfd3a367d74cc836eea1c5525a32b7c3ec562a0f10b49b868d6afbd595"),
        "IMAGE": (
            "bf026573a45f3fb3a25455aef1f28ffd7bfaeb8489837b1f6e6ce29709f53c0f",
            "bb952ed32196bea5ad0749ae52e6caa661d9a90aa1bc7c605420bce0eca42991",
            "2a5640e409afa6bbd8c9a595c50edc655c94bcdbeb7c92c1dd488a43634dceec"),
    },
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
    """Against the digests of the core this process runs; a core with none
    fails with its name and what it computed."""
    digests, lengths = _run(mode)
    assert max(lengths) > CFG.max_seq_len >= min(lengths)
    core = openblas_core()
    assert core in DIGESTS, (f"no pins for OpenBLAS core {core!r}; it "
                             f"computed {mode.value}: {digests}")
    assert digests == DIGESTS[core][mode.value]


@pytest.mark.parametrize("core", list(DIGESTS))
def test_the_pins_hold_on_each_listed_core(core):
    """The pins, rerun in a child process whose OpenBLAS runs `core`'s
    kernels instead of the ones it picks for this CPU."""
    child = run_on_core(core, __file__, "bits_are_pinned")
    assert child.returncode == 0, child.stdout[-3000:]
    assert f"{len(FusionMode)} passed" in child.stdout


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
