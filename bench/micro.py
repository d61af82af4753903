"""Forward and backward timings of single ielab ops at the workloads' shapes.

Tracing from outside sees one `backward` span per step; these timings split
that sweep by op. Each op runs alone under a fresh `Tape`, and its output is
reduced to a scalar with `cross_entropy_masked` so `backward` can sweep it.
The sweep time of that reduction alone, on a leaf of the same shape, is
subtracted, so `bwd_ms` is the op's own share of the sweep. Every figure is
the median over repetitions.
"""

from __future__ import annotations

import time

import numpy as np

from ielab.stylefuse import ImagePathConfig, image
from ielab.tensorcore import AdamState, Tensor, engine, ops, optim

MIN_REPS = 12
MIN_SECONDS = 0.15
MICRO_OPS = ("attention", "linear", "layer_norm", "gelu", "embedding_sum",
             "cross_entropy_masked", "conv2d", "roi_align_batch")
MICRO_METRICS = tuple(f"micro.{op}.{part}_ms" for op in MICRO_OPS
                      for part in ("fwd", "bwd")) + ("micro.adam_step.step_ms",)


def _medians(rep) -> list[float]:
    """Call `rep` (which returns a tuple of seconds) until enough samples."""
    rep()                                         # warm-up
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        samples.append(rep())
    return [float(np.median(col)) for col in zip(*samples)]


def _reduce(out: Tensor) -> Tensor:
    x = out if out.data.ndim == 2 else \
        ops.reshape(out, (-1, out.data.shape[-1]))
    n = x.data.shape[0]
    return ops.cross_entropy_masked(x, np.zeros(n, dtype=np.int64),
                                    np.ones(n, dtype=bool))


def _op_rep(forward, leaves, reduce=True):
    def rep():
        tape = engine.Tape()
        with tape:
            tape.watch(*leaves)
            t0 = time.perf_counter()
            out = forward()
            t1 = time.perf_counter()
            loss = _reduce(out) if reduce else out
        t2 = time.perf_counter()
        engine.backward(loss, tape)
        return t1 - t0, time.perf_counter() - t2
    return rep


def _fwd_bwd(forward, leaves, out_shape, reduce=True) -> tuple[float, float]:
    fwd, bwd = _medians(_op_rep(forward, leaves, reduce))
    if reduce:
        leaf = engine.parameter(np.zeros(out_shape))
        _, reduce_bwd = _medians(_op_rep(lambda: leaf, [leaf]))
        bwd -= reduce_bwd
    return fwd, bwd


def micro_metrics(T: int, model, label_count: int, seed: int) -> dict:
    """{metric: (value, "ms")} for each op at T tokens and the model's widths.

    `model` is a built `TokenTagger`; its encoder tables feed `embedding_sum`
    and all its parameters feed `adam_step`.
    """
    rng = np.random.default_rng([seed, 77])
    enc = model.spec.encoder
    h, heads = enc.hidden, enc.heads

    def leaf(*shape):
        return engine.parameter(rng.normal(0.0, 1.0, size=shape))

    x, w, b = leaf(T, h), leaf(h, h), leaf(h)
    q, k, v = leaf(T, h), leaf(T, h), leaf(T, h)
    gamma, beta = leaf(h), leaf(h)
    inner = leaf(T, enc.ff)
    logits = leaf(T, label_count)
    targets = rng.integers(0, label_count, size=T)
    key_bias = np.zeros((1, T))                  # no masked keys
    tables = [model.encoder_params[n] for n in
              ("word_table", "pos1d", "pos2d.x1", "pos2d.y1", "pos2d.x2",
               "pos2d.y2", "pos2d.w", "pos2d.h")]
    ids = [rng.integers(0, t.data.shape[0], size=T) for t in tables]
    ids[1] = np.arange(T)

    cases = {
        "attention": (lambda: ops.attention(q, k, v, key_bias, heads),
                      [q, k, v], (T, h)),
        "linear": (lambda: ops.linear(x, w, b), [x, w, b], (T, h)),
        "layer_norm": (lambda: ops.layer_norm(x, gamma, beta),
                       [x, gamma, beta], (T, h)),
        "gelu": (lambda: ops.gelu(inner), [inner], (T, enc.ff)),
        "embedding_sum": (lambda: ops.embedding_sum(tables, ids), tables,
                          (T, h)),
    }
    out = {}
    for name, (forward, leaves, shape) in cases.items():
        out[name] = _fwd_bwd(forward, leaves, shape)
    out["cross_entropy_masked"] = _fwd_bwd(
        lambda: ops.cross_entropy_masked(logits, targets, np.ones(T, bool)),
        [logits], None, reduce=False)

    # one backbone's worth of strided convolutions, default image config
    icfg = ImagePathConfig()
    hw, c_in, pad = icfg.raster_size, icfg.raster_channels, icfg.kernel_size // 2
    conv = [0.0, 0.0]
    for stage, c_out in enumerate(icfg.backbone_channels):
        inp = Tensor(rng.uniform(size=(c_in, hw, hw))) if stage == 0 \
            else leaf(c_in, hw, hw)
        kern = leaf(c_out, c_in, icfg.kernel_size, icfg.kernel_size)
        hw = (hw + 2 * pad - icfg.kernel_size) // icfg.stride + 1
        f, bw = _fwd_bwd(
            lambda inp=inp, kern=kern: ops.conv2d(inp, kern, icfg.stride, pad),
            [inp, kern] if stage else [kern], (c_out, hw, hw))
        conv[0] += f
        conv[1] += bw
        c_in = c_out
    out["conv2d"] = tuple(conv)

    fmap = leaf(c_in, hw, hw)
    corner = rng.uniform(0, 900, size=(T, 2))
    boxes = np.concatenate([corner, corner + rng.uniform(2, 100, size=(T, 2))],
                           axis=1)
    out["roi_align_batch"] = _fwd_bwd(
        lambda: image.roi_align_batch(fmap, boxes, icfg.roi_bins), [fmap],
        (T, icfg.roi_width))

    metrics = {}
    for name, (f, bw) in out.items():
        metrics[f"micro.{name}.fwd_ms"] = (1e3 * f, "ms")
        metrics[f"micro.{name}.bwd_ms"] = (1e3 * bw, "ms")

    params = {n: engine.parameter(t.data.copy())
              for n, t in model.parameters().items()}
    grads = {n: rng.normal(0.0, 1e-3, size=t.data.shape)
             for n, t in params.items()}
    state = AdamState(lr=1e-3)

    def adam_rep():
        t0 = time.perf_counter()
        optim.adam_step(params, grads, state)
        return (time.perf_counter() - t0,)
    metrics["micro.adam_step.step_ms"] = (1e3 * _medians(adam_rep)[0], "ms")
    return metrics
