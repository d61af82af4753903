"""Differentiable operations over tensorcore Tensors.

Every op computes its forward value with numpy and hands it to
`engine.record` with its parents, a named backward function
`_<op>_bw(g, need, *saved)` and the `saved` values that function reads; the
backward maps the output gradient to one gradient per parent, None where
`need` says the parent is untracked. Broadcasting is supported only where
the model needs it (bias-style adds); everything else is shape-strict.

`linear`, `gelu` and `attention` compute their forward values with one
kernel each, over a part of the rows (or, for attention, of the heads)
written into a preallocated output, so that `threads.run_halves` can run it
whole or as two halves with the same bytes (see tensorcore.threads).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ielab.errors import ConfigError, ContractError
from ielab.tensorcore.engine import (
    GELU_TANH_COEFF,
    NumericError,
    ShapeError,
    Tensor,
    record,
)
from ielab.tensorcore.threads import run_halves

LAYER_NORM_EPS = 1e-12    # added to each slice's variance


def _scatter_add(shape, idx, g):
    """Rows of g summed into a zero table at rows idx: onehot(idx)^T @ g."""
    T = idx.size
    onehot_t = sparse.csc_array((np.ones(T), idx.ravel(), np.arange(T + 1)),
                                shape=(shape[0], T))
    return (onehot_t @ g.reshape(T, -1)).reshape(shape)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _rows(xd: np.ndarray) -> int:
    """Rows a row-wise kernel may split: the leading axis of a matrix."""
    return xd.shape[0] if xd.ndim > 1 else 0


def _linear_rows(out, xd, wd, bd, part):
    o = out[part]
    np.matmul(xd[part], wd, out=o)
    o += bd


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (..., d_in); the fused hot path of the model."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.shape[-1] != wd.shape[0] or wd.shape[1] != bd.shape[0]:
        raise ShapeError(
            f"linear shapes incompatible: x{xd.shape} w{wd.shape} b{bd.shape}")
    out_data = np.empty(xd.shape[:-1] + wd.shape[1:])
    run_halves(_linear_rows, _rows(xd), out_data, xd, wd, bd)
    return record(Tensor._wrap(out_data), (x, w, b), _linear_bw, xd, wd)


def _linear_bw(g, need, xd, wd):
    g2 = g.reshape(-1, g.shape[-1])
    x2 = xd.reshape(-1, xd.shape[-1])
    return ((g2 @ wd.T).reshape(*xd.shape[:-1], -1) if need[0] else None,
            x2.T @ g2 if need[1] else None,
            g2.sum(axis=0) if need[2] else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with bias-style broadcasting."""
    ad, bd = a.data, b.data
    try:
        out_data = np.asarray(ad + bd)   # 0-d operands sum to a scalar
    except ValueError as exc:
        raise ShapeError(f"add shapes {ad.shape} + {bd.shape}") from exc
    return record(Tensor._wrap(out_data), (a, b), _add_bw, ad.shape, bd.shape)


def _add_bw(g, need, sa, sb):
    return (_unbroadcast(g, sa).copy() if need[0] else None,
            _unbroadcast(g, sb).copy() if need[1] else None)


def _gelu_rows(out, t, xd, part):
    x, tp, o = xd[part], t[part], out[part]
    np.multiply(x, x, out=tp)       # in place, with the same rounding as
    tp *= x                         # c*(x + 0.044715*(x*x*x)) evaluated
    tp *= 0.044715                  # left to right
    tp += x
    tp *= GELU_TANH_COEFF
    np.tanh(tp, out=tp)
    np.multiply(x, 0.5, out=o)
    o *= tp + 1.0


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    t, out_data = np.empty_like(xd), np.empty_like(xd)
    run_halves(_gelu_rows, _rows(xd), out_data, t, xd)
    return record(Tensor._wrap(out_data), (x,), _gelu_bw, xd, t)


def _gelu_bw(g, need, xd, t):
    # g*(0.5*(1 + t) + ((0.5*x)*(1 - t*t))*du) with
    # du = c*(1 + 3*0.044715*(x*x)), in place, with the same rounding as
    # that expression
    du = xd * xd
    du *= 3 * 0.044715
    du += 1.0
    du *= GELU_TANH_COEFF
    d = 0.5 * xd
    tt = t * t
    np.subtract(1.0, tt, out=tt)
    d *= tt
    d *= du
    np.add(t, 1.0, out=tt)
    tt *= 0.5
    d += tt
    d *= g
    return (d,)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last dimension, stabilized by max subtraction."""
    xd = x.data
    if xd.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a last dimension >= 1")
    if not np.isfinite(xd).all():
        raise NumericError("softmax_rows input contains non-finite values")
    y = xd - xd.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return record(Tensor._wrap(y), (x,), _softmax_rows_bw, y)


def _softmax_rows_bw(g, need, y):
    return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each last-dimension slice to zero mean / unit variance, then
    apply the gamma/beta affine."""
    xd, gd = x.data, gamma.data
    h = xd.shape[-1]
    if gd.shape != (h,) or beta.data.shape != (h,):
        raise ShapeError(f"layer_norm affine must have shape ({h},)")
    xhat = xd - xd.sum(axis=-1, keepdims=True) / h     # np.mean's bits
    y = xhat * xhat
    inv = np.sqrt(y.sum(axis=-1, keepdims=True) / h + LAYER_NORM_EPS)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += beta.data
    return record(Tensor._wrap(y), (x, gamma, beta), _layer_norm_bw, xhat, inv,
                  gd)


def _layer_norm_bw(g, need, xhat, inv, gd):
    lead = tuple(range(g.ndim - 1))
    dx = None
    if need[0]:     # inv*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
        h = xhat.shape[-1]
        dx = g * gd
        p = dx * xhat
        mp = p.sum(axis=-1, keepdims=True) / h
        dx -= dx.sum(axis=-1, keepdims=True) / h
        np.multiply(xhat, mp, out=p)
        dx -= p
        dx *= inv
    return (dx,
            (g * xhat).sum(axis=lead) if need[1] else None,
            g.sum(axis=lead) if need[2] else None)


def embedding_sum(tables: list[Tensor], ids_list: list) -> Tensor:
    """Sum of row gathers over one or more same-width tables (one tape node).

    Gives the bits of table_0[ids_0] + table_1[ids_1] + ... added left to
    right; backward scatters the output gradient into each tracked table,
    summing the rows of duplicate ids. Ids must have at least one dimension,
    every id array the first one's shape and every table the first one's
    row width.
    """
    if len(tables) != len(ids_list) or not tables:
        raise ShapeError("embedding_sum needs one id sequence per table")
    idxs = []
    for table, ids in zip(tables, ids_list):
        idx = np.asarray(ids, dtype=np.intp)
        if idx.ndim == 0:   # a scalar id gathers a view, which acc += alters
            raise ShapeError("embedding ids must have at least one dimension")
        if idxs and idx.shape != idxs[0].shape:   # += would broadcast
            raise ShapeError(f"embedding ids of shape {idx.shape} differ from "
                             f"the first table's {idxs[0].shape}")
        if table.data.shape[1:] != tables[0].data.shape[1:]:   # += broadcasts
            raise ShapeError(f"embedding table rows of shape "
                             f"{table.data.shape[1:]} differ from the first "
                             f"table's {tables[0].data.shape[1:]}")
        V = table.data.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= V):
            bad = idx[(idx < 0) | (idx >= V)][0]
            raise IndexError(
                f"embedding id {int(bad)} out of range for table of {V} rows")
        idxs.append(idx)
    acc = tables[0].data[idxs[0]]
    for table, idx in zip(tables[1:], idxs[1:]):
        acc += table.data[idx]
    return record(Tensor._wrap(acc), tables, _embedding_sum_bw, tables, idxs)


def _embedding_sum_bw(g, need, tables, idxs):
    return tuple(_scatter_add(t.data.shape, idx, g) if n else None
                 for t, idx, n in zip(tables, idxs, need))


def _heads(x, heads):
    """(n, h) rows -> (heads, n, h // heads) view."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def _attention_heads(out, probs, qd, kd, vd, spans, bias, heads, part):
    inv = 1.0 / np.sqrt(qd.shape[1] // heads)
    for (lo, hi), a in zip(spans, probs):
        a = a[part]                                # (heads, n, n) scores
        kh = _heads(kd[lo:hi], heads)[part]
        np.matmul(_heads(qd[lo:hi], heads)[part], kh.transpose(0, 2, 1), out=a)
        a *= inv
        if bias is not None:
            a += bias
        a -= a.max(axis=2, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=2, keepdims=True)
        np.matmul(a, _heads(vd[lo:hi], heads)[part],
                  out=_heads(out[lo:hi], heads)[part])


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
              heads: int, spans: list[tuple[int, int]] | None = None) -> Tensor:
    """Fused multi-head scaled dot-product attention (one tape node).

    q, k, v are (T, h) with h divisible by `heads`; `bias` is a constant
    additive score matrix broadcastable to (T, T), such as a (1, T) key mask
    (0 to allow, large negative to mask), or None when every key is allowed,
    which gives the same bits as an all-zero bias without adding it. Each
    head's scores are one (T, dh) @ (dh, T) product; the heads may run in
    two halves (see tensorcore.threads).

    With `spans`, a list of (lo, hi) row ranges that tile [0, T) in order,
    the rows are chunks packed back to back: each span's queries see every
    key of that span and no other, no score between two spans is computed,
    and `bias` must be None. Every span gets the bits of a separate call on
    its own rows.
    """
    qd, kd, vd = q.data, k.data, v.data
    T, h = qd.shape
    if kd.shape != (T, h) or vd.shape != (T, h):
        raise ShapeError(f"attention needs equal (T,h) inputs, got "
                         f"{qd.shape}/{kd.shape}/{vd.shape}")
    if h % heads != 0:
        raise ShapeError(f"width {h} not divisible by {heads} heads")
    if spans is None:
        spans = [(0, T)]
    else:
        ends = [0] + [hi for _, hi in spans]
        if (not spans or ends[-1] != T or [lo for lo, _ in spans] != ends[:-1]
                or any(lo >= hi for lo, hi in spans)):
            raise ShapeError(f"attention spans {spans} do not tile [0, {T})")
        if bias is not None:
            raise ShapeError("attention over spans takes no bias")
    out_data = np.empty((T, h))
    probs = [np.empty((heads, hi - lo, hi - lo)) for lo, hi in spans]
    run_halves(_attention_heads, heads, out_data, probs, qd, kd, vd, spans,
               bias, heads)
    return record(Tensor._wrap(out_data), (q, k, v), _attention_bw, qd, kd, vd,
                  spans, probs, heads)


def _merge(x):
    """(heads, n, dh) -> (n, heads * dh) rows."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention_bw(g, need, qd, kd, vd, spans, probs, heads):
    inv = 1.0 / np.sqrt(qd.shape[1] // heads)
    grads = []
    for (lo, hi), a in zip(spans, probs):
        qh, kh, vh, gh = (_heads(x[lo:hi], heads) for x in (qd, kd, vd, g))
        dv = a.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)    # d(probabilities)
        ds -= np.einsum("hij,hij->hi", ds, a)[:, :, None]
        ds *= a                            # d(scores)
        ds *= inv
        dq = ds @ kh
        dk = ds.transpose(0, 2, 1) @ qh
        grads.append((_merge(dq), _merge(dk), _merge(dv)))
    if len(grads) == 1:
        return grads[0]
    return tuple(np.concatenate(parts) for parts in zip(*grads))


def cross_entropy_masked(logits: Tensor, targets, mask) -> Tensor:
    """Mean of -log softmax(logits)[target] over unmasked positions."""
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"cross_entropy_masked expects (T,C) logits, got {ld.shape}")
    T, C = ld.shape
    tgt = np.asarray(targets, dtype=np.intp)
    msk = np.asarray(mask, dtype=bool)
    if tgt.shape != (T,) or msk.shape != (T,):
        raise ShapeError("targets and mask must both have length T")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= C):
        raise IndexError(f"target id out of range for {C} classes")
    n = int(msk.sum())
    if n == 0:
        raise ContractError("cross_entropy_masked: all positions masked out")
    z = ld - ld.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsum
    loss = -logp[np.arange(T), tgt][msk].mean()
    return record(Tensor(loss), (logits,), _cross_entropy_masked_bw, logp, tgt,
                  msk, n)


def _cross_entropy_masked_bw(g, need, logp, tgt, msk, n):
    d = np.exp(logp)
    d[np.arange(d.shape[0]), tgt] -= 1.0
    d *= (msk / n)[:, None]
    d *= g
    return (d,)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Training-time dropout: zero elements with probability `rate` and
    rescale survivors by 1/(1 - rate). Inference skips the call."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    keep = rng.random(x.data.shape) >= rate
    factor = keep / (1.0 - rate)
    return record(Tensor(x.data * factor), (x,), _dropout_bw, factor)


def _dropout_bw(g, need, factor):
    return (g * factor,)


def _im2col(padded: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(C, Hp, Wp) -> (C*k*k, oh*ow) patch matrix."""
    C = padded.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]          # (C, oh, ow, k, k)
    return win.transpose(0, 3, 4, 1, 2).reshape(C * k * k, oh * ow)


def _col2im(cols: np.ndarray, C: int, k: int, stride: int,
            hp: int, wp: int, oh: int, ow: int) -> np.ndarray:
    """Scatter-add the inverse of _im2col back into a (C, hp, wp) buffer."""
    buf = np.zeros((C, hp, wp), dtype=np.float64)
    cols = cols.reshape(C, k, k, oh, ow)
    for i in range(k):
        for j in range(k):
            buf[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, i, j]
    return buf


def conv2d(input: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate (C_in,H,W) with (C_out,C_in,k,k) kernels."""
    xd, kd = input.data, kernels.data
    if xd.ndim != 3 or kd.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) and (C_out,C_in,k,k), "
                         f"got {xd.shape} and {kd.shape}")
    c_out, c_in, k, k2 = kd.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d kernels must be square with odd size, got {kd.shape}")
    if xd.shape[0] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input has {xd.shape[0]} "
                         f"channels, kernels expect {c_in}")
    H, W = xd.shape[1:]
    oh = (H + 2 * padding - k) // stride + 1
    ow = (W + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty for input {xd.shape}")
    padded = np.pad(xd, ((0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(padded, k, stride, oh, ow)
    kmat = kd.reshape(c_out, c_in * k * k)
    return record(Tensor((kmat @ cols).reshape(c_out, oh, ow)),
                  (input, kernels), _conv2d_bw, cols, kmat, kd.shape,
                  padded.shape, stride, padding)


def _conv2d_bw(g, need, cols, kmat, kshape, pshape, stride, padding):
    c_out, c_in, k, _ = kshape
    _, hp, wp = pshape
    _, oh, ow = g.shape
    g2 = g.reshape(c_out, oh * ow)
    dx = None
    if need[0]:
        full = _col2im(kmat.T @ g2, c_in, k, stride, hp, wp, oh, ow)
        dx = full[:, padding:hp - padding, padding:wp - padding] \
            if padding else full
        dx = np.ascontiguousarray(dx)
    return (dx, (g2 @ cols.T).reshape(kshape) if need[1] else None)


def concat_cols(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not tensors:
        raise ShapeError("concat_cols needs at least one tensor")
    return record(Tensor(np.concatenate([t.data for t in tensors], axis=-1)),
                  tensors, _concat_cols_bw, tensors)


def _concat_cols_bw(g, need, tensors):
    outs, pos = [], 0
    for t, n in zip(tensors, need):
        w = t.data.shape[-1]
        outs.append(np.ascontiguousarray(g[..., pos:pos + w]) if n else None)
        pos += w
    return tuple(outs)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    return record(Tensor(x.data.reshape(shape)), (x,), _reshape_bw,
                  x.data.shape)


def _reshape_bw(g, need, shape):
    return (g.reshape(shape),)
