"""Differentiable operations over tensorcore Tensors.

Every op computes its forward value with numpy and, when a tape is active and
at least one input is tracked, pushes a closure that maps the output gradient
to per-parent gradients. Broadcasting is supported only where the model needs
it (bias-style adds); everything else is shape-strict.
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


def _scatter_add(shape, idx, g):
    """Rows of g summed into a zero table at rows idx: onehot(idx)^T @ g."""
    T = idx.size
    onehot = sparse.csr_array((np.ones(T), idx.ravel(), np.arange(T + 1)),
                              shape=(T, shape[0]))
    return (onehot.T @ g.reshape(T, -1)).reshape(shape)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul requires (m,k)x(k,n), got {ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd)
    tape = active_tape()
    if tape is not None:
        pa, pb = tape.tracked_id(a), tape.tracked_id(b)
        if pa >= 0 or pb >= 0:
            def bw(g, ad=ad, bd=bd, na=pa >= 0, nb=pb >= 0):
                return (g @ bd.T if na else None, ad.T @ g if nb else None)
            tape.push(out, (pa, pb), bw)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (..., d_in); the fused hot path of the model."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.shape[-1] != wd.shape[0] or wd.shape[1] != bd.shape[0]:
        raise ShapeError(
            f"linear shapes incompatible: x{xd.shape} w{wd.shape} b{bd.shape}")
    out = Tensor._wrap(xd @ wd + bd)
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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with bias-style broadcasting."""
    ad, bd = a.data, b.data
    try:
        out_data = ad + bd
    except ValueError as exc:
        raise ShapeError(f"add shapes {ad.shape} + {bd.shape}") from exc
    out = Tensor(out_data)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        out_data = ad * bd
    except ValueError as exc:
        raise ShapeError(f"mul shapes {ad.shape} * {bd.shape}") from exc
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        pa, pb = tape.tracked_id(a), tape.tracked_id(b)
        if pa >= 0 or pb >= 0:
            def bw(g, ad=ad, bd=bd, na=pa >= 0, nb=pb >= 0):
                return (_unbroadcast(g * bd, ad.shape) if na else None,
                        _unbroadcast(g * ad, bd.shape) if nb else None)
            tape.push(out, (pa, pb), bw)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            tape.push(out, (px,), lambda g, c=c: (g * c,))
    return out


def add_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Add a non-differentiable constant (attention mask bias)."""
    out = Tensor(x.data + const)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            tape.push(out, (px,), lambda g: (g,))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            shape = x.data.shape
            tape.push(out, (px,), lambda g, shape=shape:
                      (np.full(shape, g, dtype=np.float64),))
    return out


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    t = xd * xd                     # in place, with the same rounding as
    t *= xd                         # c*(x + 0.044715*(x*x*x)) evaluated
    t *= 0.044715                   # left to right
    t += xd
    t *= GELU_TANH_COEFF
    np.tanh(t, out=t)
    out = Tensor._wrap((0.5 * xd) * (t + 1.0))
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            def bw(g, xd=xd, t=t):
                du = GELU_TANH_COEFF * (1.0 + 3 * 0.044715 * (xd * xd))
                return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)
            tape.push(out, (px,), bw)
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last dimension, stabilized by max subtraction."""
    xd = x.data
    if xd.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a last dimension >= 1")
    if not np.isfinite(xd).all():
        raise NumericError("softmax_rows input contains non-finite values")
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            def bw(g, y=y):
                return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)
            tape.push(out, (px,), bw)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each last-dimension slice to zero mean / unit variance, then
    apply the gamma/beta affine."""
    xd = x.data
    h = xd.shape[-1]
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ShapeError(f"layer_norm affine must have shape ({h},)")
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        pg = tape.tracked_id(gamma)
        pb = tape.tracked_id(beta)
        if px >= 0 or pg >= 0 or pb >= 0:
            gd = gamma.data
            def bw(g, xhat=xhat, inv=inv, gd=gd,
                   nx=px >= 0, ng=pg >= 0, nb=pb >= 0):
                lead = tuple(range(g.ndim - 1))
                dx = None
                if nx:
                    dxhat = g * gd
                    dx = inv * (dxhat
                                - dxhat.mean(axis=-1, keepdims=True)
                                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
                return (dx,
                        (g * xhat).sum(axis=lead) if ng else None,
                        g.sum(axis=lead) if nb else None)
            tape.push(out, (px, pg, pb), bw)
    return out


def embedding_sum(tables: list[Tensor], ids_list: list) -> Tensor:
    """Sum of row gathers over several same-width tables (one tape node).

    Equivalent to adding up embedding_lookup(t, ids) for each pair; the fused
    form keeps additive multi-table embeddings cheap.
    """
    if len(tables) != len(ids_list) or not tables:
        raise ShapeError("embedding_sum needs one id sequence per table")
    idxs = []
    for table, ids in zip(tables, ids_list):
        idx = np.asarray(ids, dtype=np.intp)
        V = table.data.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= V):
            bad = idx[(idx < 0) | (idx >= V)][0]
            raise IndexError(
                f"embedding id {int(bad)} out of range for table of {V} rows")
        idxs.append(idx)
    acc = tables[0].data[idxs[0]].copy()
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


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray,
              heads: int) -> Tensor:
    """Fused multi-head scaled dot-product attention (one tape node).

    q, k, v are (T, h) with h divisible by `heads`; `bias` is a constant
    additive score matrix broadcastable to (T, T), such as a (1, T) key mask
    (0 to allow, large negative to mask). All heads run as one batched
    (heads, T, dh) matmul.
    """
    qd, kd, vd = q.data, k.data, v.data
    T, h = qd.shape
    if kd.shape != (T, h) or vd.shape != (T, h):
        raise ShapeError(f"attention needs equal (T,h) inputs, got "
                         f"{qd.shape}/{kd.shape}/{vd.shape}")
    if h % heads != 0:
        raise ShapeError(f"width {h} not divisible by {heads} heads")
    dh = h // heads
    inv = 1.0 / np.sqrt(dh)

    def split(x):                                  # (T, h) -> (heads, T, dh)
        return x.reshape(T, heads, dh).transpose(1, 0, 2)

    qh, kh, vh = split(qd), split(kd), split(vd)
    a = qh @ kh.transpose(0, 2, 1)                 # (heads, T, T) scores
    a *= inv
    a += bias
    a -= a.max(axis=2, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=2, keepdims=True)
    out = Tensor._wrap((a @ vh).transpose(1, 0, 2).reshape(T, h))
    tape = active_tape()
    if tape is not None:
        pq, pk, pv = (tape.tracked_id(t) for t in (q, k, v))
        if pq >= 0 or pk >= 0 or pv >= 0:
            def bw(g, qh=qh, kh=kh, vh=vh, a=a):
                gh = split(g)
                dv = a.transpose(0, 2, 1) @ gh
                ds = gh @ vh.transpose(0, 2, 1)    # d(probabilities)
                ds -= np.einsum("hij,hij->hi", ds, a)[:, :, None]
                ds *= a                            # d(scores)
                ds *= inv
                dq = ds @ kh
                dk = ds.transpose(0, 2, 1) @ qh
                return tuple(x.transpose(1, 0, 2).reshape(T, h)
                             for x in (dq, dk, dv))
            tape.push(out, (pq, pk, pv), bw)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows `ids` from `table`; backward accumulates duplicate ids."""
    idx = np.asarray(ids, dtype=np.intp)
    V = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= V):
        bad = idx[(idx < 0) | (idx >= V)][0]
        raise IndexError(f"embedding id {int(bad)} out of range for table of {V} rows")
    out = Tensor(table.data[idx])
    tape = active_tape()
    if tape is not None:
        pt = tape.tracked_id(table)
        if pt >= 0:
            shape = table.data.shape
            def bw(g, idx=idx, shape=shape):
                return (_scatter_add(shape, idx, g),)
            tape.push(out, (pt,), bw)
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


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Zero elements with probability `rate` and rescale survivors while
    training; identity in inference mode."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        out = Tensor(x.data)
        tape = active_tape()
        if tape is not None:
            px = tape.tracked_id(x)
            if px >= 0:
                tape.push(out, (px,), lambda g: (g,))
        return out
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


def concat_rows(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the first axis."""
    if not tensors:
        raise ShapeError("concat_rows needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=0))
    tape = active_tape()
    if tape is not None:
        pids = tuple(tape.tracked_id(t) for t in tensors)
        if any(p >= 0 for p in pids):
            counts = [t.data.shape[0] for t in tensors]
            def bw(g, counts=counts, pids=pids):
                outs, pos = [], 0
                for n, pid in zip(counts, pids):
                    outs.append(np.ascontiguousarray(g[pos:pos + n])
                                if pid >= 0 else None)
                    pos += n
                return tuple(outs)
            tape.push(out, pids, bw)
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of x (first axis)."""
    out = Tensor(x.data[start:stop])
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            shape = x.data.shape
            def bw(g, shape=shape, start=start, stop=stop):
                dx = np.zeros(shape, dtype=np.float64)
                dx[start:stop] = g
                return (dx,)
            tape.push(out, (px,), bw)
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[..., start:stop])
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            shape = x.data.shape
            def bw(g, shape=shape, start=start, stop=stop):
                dx = np.zeros(shape, dtype=np.float64)
                dx[..., start:stop] = g
                return (dx,)
            tape.push(out, (px,), bw)
    return out


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d expects a matrix, got {x.data.shape}")
    out = Tensor(x.data.T)
    tape = active_tape()
    if tape is not None:
        px = tape.tracked_id(x)
        if px >= 0:
            tape.push(out, (px,), lambda g: (np.ascontiguousarray(g.T),))
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
