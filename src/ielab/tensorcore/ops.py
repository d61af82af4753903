"""Differentiable operations over tensorcore Tensors.

Every op computes its forward value with numpy and, when a tape is active and
at least one input is tracked, pushes a closure that maps the output gradient
to per-parent gradients. Broadcasting is supported only where the model needs
it (bias-style adds); everything else is shape-strict.

The encoder's row-wise ops (`linear`, `add`, `gelu`, `layer_norm`) and
`attention` compute their forward values with one kernel each, over a part
of the rows (or, for attention, of the heads) written into a preallocated
output, so that `threads.run_halves` can run it whole or as two halves with
the same bytes (see tensorcore.threads).
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
    active_tape,
)
from ielab.tensorcore.threads import run_halves


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
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None:
        px, pw, pb = tape.tracked_id(x), tape.tracked_id(w), tape.tracked_id(b)
        if px >= 0 or pw >= 0 or pb >= 0:
            lead = xd.shape[:-1]
            def bw(g, xd=xd, wd=wd, lead=lead,
                   nx=px >= 0, nw=pw >= 0, nb=pb >= 0):
                g2 = g.reshape(-1, g.shape[-1])
                x2 = xd.reshape(-1, xd.shape[-1])
                return (
                    (g2 @ wd.T).reshape(*lead, wd.shape[0]) if nx else None,
                    x2.T @ g2 if nw else None,
                    g2.sum(axis=0) if nb else None,
                )
            tape.push(out, (px, pw, pb), bw)
    return out


def _add_rows(out, ad, bd, part):
    np.add(ad[part], bd[part], out=out[part])


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with bias-style broadcasting."""
    ad, bd = a.data, b.data
    try:
        out_data = np.empty(np.broadcast(ad, bd).shape)
    except ValueError as exc:
        raise ShapeError(f"add shapes {ad.shape} + {bd.shape}") from exc
    run_halves(_add_rows, _rows(ad) if ad.shape == bd.shape else 0,
               out_data, ad, bd)
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None:
        pa, pb = tape.tracked_id(a), tape.tracked_id(b)
        if pa >= 0 or pb >= 0:
            sa, sb = ad.shape, bd.shape
            def bw(g, sa=sa, sb=sb, na=pa >= 0, nb=pb >= 0):
                return (_unbroadcast(g, sa).copy() if na else None,
                        _unbroadcast(g, sb).copy() if nb else None)
            tape.push(out, (pa, pb), bw)
    return out


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
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            def bw(g, xd=xd, t=t):
                # g*(0.5*(1 + t) + ((0.5*x)*(1 - t*t))*du) with
                # du = c*(1 + 3*0.044715*(x*x)), in place, with the same
                # rounding as that expression
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
            tape.push(out, (px,), bw)
    return out


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
    out = Tensor._wrap(y)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            def bw(g, y=y):
                return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)
            tape.push(out, (px,), bw)
    return out


def _layer_norm_rows(out, xhat, inv, xd, gd, bd, eps, part):
    x, xh, iv, y = xd[part], xhat[part], inv[part], out[part]
    h = xd.shape[-1]
    np.subtract(x, x.sum(axis=-1, keepdims=True) / h, out=xh)  # np.mean's bits
    np.multiply(xh, xh, out=y)
    np.sqrt(y.sum(axis=-1, keepdims=True) / h + eps, out=iv)
    np.divide(1.0, iv, out=iv)
    xh *= iv
    np.multiply(xh, gd, out=y)
    y += bd


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each last-dimension slice to zero mean / unit variance, then
    apply the gamma/beta affine."""
    xd = x.data
    h = xd.shape[-1]
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ShapeError(f"layer_norm affine must have shape ({h},)")
    y, xhat = np.empty_like(xd), np.empty_like(xd)
    inv = np.empty(xd.shape[:-1] + (1,))
    run_halves(_layer_norm_rows, _rows(xd), y, xhat, inv, xd, gamma.data,
               beta.data, eps)
    out = Tensor._wrap(y)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        pg = tape.tracked_id(gamma)
        pb = tape.tracked_id(beta)
        if px >= 0 or pg >= 0 or pb >= 0:
            gd = gamma.data
            def bw(g, xhat=xhat, inv=inv, gd=gd, h=h,
                   nx=px >= 0, ng=pg >= 0, nb=pb >= 0):
                lead = tuple(range(g.ndim - 1))
                dx = None
                if nx:      # inv*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
                    dx = g * gd
                    p = dx * xhat
                    mp = p.sum(axis=-1, keepdims=True) / h
                    dx -= dx.sum(axis=-1, keepdims=True) / h
                    np.multiply(xhat, mp, out=p)
                    dx -= p
                    dx *= inv
                return (dx,
                        (g * xhat).sum(axis=lead) if ng else None,
                        g.sum(axis=lead) if nb else None)
            tape.push(out, (px, pg, pb), bw)
    return out


def embedding_sum(tables: list[Tensor], ids_list: list) -> Tensor:
    """Sum of row gathers over one or more same-width tables (one tape node).

    Gives the bits of table_0[ids_0] + table_1[ids_1] + ... added left to
    right; backward scatters the output gradient into each tracked table,
    summing the rows of duplicate ids. Ids must have at least one dimension.
    """
    if len(tables) != len(ids_list) or not tables:
        raise ShapeError("embedding_sum needs one id sequence per table")
    idxs = []
    for table, ids in zip(tables, ids_list):
        idx = np.asarray(ids, dtype=np.intp)
        if idx.ndim == 0:   # a scalar id gathers a view, which acc += alters
            raise ShapeError("embedding ids must have at least one dimension")
        V = table.data.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= V):
            bad = idx[(idx < 0) | (idx >= V)][0]
            raise IndexError(
                f"embedding id {int(bad)} out of range for table of {V} rows")
        idxs.append(idx)
    acc = tables[0].data[idxs[0]]
    for table, idx in zip(tables[1:], idxs[1:]):
        acc += table.data[idx]
    out = Tensor._wrap(acc)
    tape = active_tape()
    if tape is not None:
        pids = tuple(tape.tracked_id(t) for t in tables)
        if any(p >= 0 for p in pids):
            shapes = [t.data.shape for t in tables]
            def bw(g, idxs=idxs, shapes=shapes, pids=pids):
                return tuple(_scatter_add(shape, idx, g) if pid >= 0 else None
                             for idx, shape, pid in zip(idxs, shapes, pids))
            tape.push(out, pids, bw)
    return out


def _heads(x, heads):
    """(n, h) rows -> (heads, n, h // heads) view."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def _attention_heads(out, probs, qd, kd, vd, spans, bias, heads, part):
    inv = 1.0 / np.sqrt(qd.shape[1] // heads)
    for (lo, hi), b, a in zip(spans, bias, probs):
        a = a[part]                                # (heads, n, n) scores
        kh = _heads(kd[lo:hi], heads)[part]
        np.matmul(_heads(qd[lo:hi], heads)[part], kh.transpose(0, 2, 1), out=a)
        a *= inv
        if b is not None:
            a += b
        a -= a.max(axis=2, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=2, keepdims=True)
        np.matmul(a, _heads(vd[lo:hi], heads)[part],
                  out=_heads(out[lo:hi], heads)[part])


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | list | None,
              heads: int, spans: list[tuple[int, int]] | None = None) -> Tensor:
    """Fused multi-head scaled dot-product attention (one tape node).

    q, k, v are (T, h) with h divisible by `heads`; `bias` is a constant
    additive score matrix broadcastable to (T, T), such as a (1, T) key mask
    (0 to allow, large negative to mask), or None when every key is allowed,
    which gives the same bits as an all-zero bias without adding it. Each
    head's scores are one (T, dh) @ (dh, T) product; the heads may run in
    two halves (see tensorcore.threads).

    With `spans`, a list of (lo, hi) row ranges that tile [0, T) in order,
    the rows are chunks packed back to back: each span's queries see only
    that span's keys, no score between two spans is computed, and `bias`
    holds one entry per span, None or a constant broadcastable to that
    span's (hi - lo, hi - lo) scores. Every span gets the bits of a separate
    call on its own rows.
    """
    qd, kd, vd = q.data, k.data, v.data
    T, h = qd.shape
    if kd.shape != (T, h) or vd.shape != (T, h):
        raise ShapeError(f"attention needs equal (T,h) inputs, got "
                         f"{qd.shape}/{kd.shape}/{vd.shape}")
    if h % heads != 0:
        raise ShapeError(f"width {h} not divisible by {heads} heads")
    if spans is None:
        spans, bias = [(0, T)], [bias]
    else:
        ends = [0] + [hi for _, hi in spans]
        if (not spans or ends[-1] != T or [lo for lo, _ in spans] != ends[:-1]
                or any(lo >= hi for lo, hi in spans)):
            raise ShapeError(f"attention spans {spans} do not tile [0, {T})")
        if len(bias) != len(spans):
            raise ShapeError(f"attention needs one bias per span, got "
                             f"{len(bias)} for {len(spans)} spans")
    out_data = np.empty((T, h))
    probs = [np.empty((heads, hi - lo, hi - lo)) for lo, hi in spans]
    run_halves(_attention_heads, heads, out_data, probs, qd, kd, vd, spans,
               bias, heads)
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None:
        pq, pk, pv = (tape.tracked_id(t) for t in (q, k, v))
        if pq >= 0 or pk >= 0 or pv >= 0:
            inv = 1.0 / np.sqrt(h // heads)

            def merge(x):                          # (heads, n, dh) -> (n, h)
                return x.transpose(1, 0, 2).reshape(x.shape[1], h)

            def bw(g, spans=spans, probs=probs):
                grads = []
                for (lo, hi), a in zip(spans, probs):
                    qh, kh, vh, gh = (_heads(x[lo:hi], heads)
                                      for x in (qd, kd, vd, g))
                    dv = a.transpose(0, 2, 1) @ gh
                    ds = gh @ vh.transpose(0, 2, 1)    # d(probabilities)
                    ds -= np.einsum("hij,hij->hi", ds, a)[:, :, None]
                    ds *= a                            # d(scores)
                    ds *= inv
                    dq = ds @ kh
                    dk = ds.transpose(0, 2, 1) @ qh
                    grads.append((merge(dq), merge(dk), merge(dv)))
                if len(grads) == 1:
                    return grads[0]
                return tuple(np.concatenate(parts) for parts in zip(*grads))
            tape.push(out, (pq, pk, pv), bw)
    return out


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
    out = Tensor(loss)
    tape = active_tape()
    if tape is not None:
        pl = tape.tracked_id(logits)
        if pl >= 0:
            def bw(g, logp=logp, tgt=tgt, msk=msk, n=n, T=T):
                d = np.exp(logp)
                d[np.arange(T), tgt] -= 1.0
                d *= (msk / n)[:, None]
                d *= g
                return (d,)
            tape.push(out, (pl,), bw)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Training-time dropout: zero elements with probability `rate` and
    rescale survivors by 1/(1 - rate). Inference skips the call."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    keep = rng.random(x.data.shape) >= rate
    factor = keep / (1.0 - rate)
    out = Tensor(x.data * factor)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            tape.push(out, (px,), lambda g, factor=factor: (g * factor,))
    return out


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
    out = Tensor((kmat @ cols).reshape(c_out, oh, ow))
    tape = active_tape()
    if tape is not None:
        px, pk = tape.tracked_id(input), tape.tracked_id(kernels)
        if px >= 0 or pk >= 0:
            hp, wp = padded.shape[1:]
            def bw(g, cols=cols, kmat=kmat, nx=px >= 0, nk=pk >= 0):
                g2 = g.reshape(c_out, oh * ow)
                dk = (g2 @ cols.T).reshape(c_out, c_in, k, k) if nk else None
                dx = None
                if nx:
                    dcols = kmat.T @ g2
                    full = _col2im(dcols, c_in, k, stride, hp, wp, oh, ow)
                    dx = full[:, padding:hp - padding, padding:wp - padding] \
                        if padding else full
                    dx = np.ascontiguousarray(dx)
                return (dx, dk)
            tape.push(out, (px, pk), bw)
    return out


def concat_cols(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not tensors:
        raise ShapeError("concat_cols needs at least one tensor")
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=-1))
    tape = active_tape()
    if tape is not None:
        pids = tuple(tape.tracked_id(t) for t in tensors)
        if any(p >= 0 for p in pids):
            widths = [d.shape[-1] for d in datas]
            def bw(g, widths=widths, pids=pids):
                outs, pos = [], 0
                for w, pid in zip(widths, pids):
                    outs.append(np.ascontiguousarray(g[..., pos:pos + w])
                                if pid >= 0 else None)
                    pos += w
                return tuple(outs)
            tape.push(out, pids, bw)
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            orig = x.data.shape
            tape.push(out, (px,), lambda g, orig=orig: (g.reshape(orig),))
    return out
