import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import gradcheck, mul, sum_all
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import tensorcore as tc
from ielab.errors import ConfigError, ContractError
from ielab.tensorcore.ops import embedding_sum


def test_linear_shape_error_names_all_shapes():
    with pytest.raises(tc.ShapeError, match=r"\(2, 3\).*\(2, 2\).*\(2,\)"):
        tc.linear(tc.Tensor(np.ones((2, 3))), tc.Tensor(np.ones((2, 2))),
                  tc.Tensor(np.zeros(2)))


def test_softmax_uniform_and_shift_invariance():
    out = tc.softmax_rows(tc.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)
    x = np.array([0.3, -1.2, 2.0, 0.0])
    shifted = tc.softmax_rows(tc.Tensor(x + 17.5)).data
    base = tc.softmax_rows(tc.Tensor(x)).data
    assert np.allclose(shifted, base, atol=1e-12)


def test_softmax_matches_direct_evaluation():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.allclose(tc.softmax_rows(tc.Tensor(x)).data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = tc.Tensor(rng.normal(scale=30.0, size=(5, 7)))
        y = tc.softmax_rows(x).data
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(tc.NumericError):
        tc.softmax_rows(tc.Tensor([1.0, np.nan]))


def test_layer_norm_constant_slice():
    gamma = tc.Tensor(np.ones(4))
    beta = tc.Tensor(np.zeros(4))
    out = tc.layer_norm(tc.Tensor(np.full((2, 4), 3.5)), gamma, beta)
    assert np.allclose(out.data, 0.0, atol=1e-6)
    beta_b = tc.Tensor(np.full(4, -2.25))
    out = tc.layer_norm(tc.Tensor(np.full((2, 4), 3.5)), gamma, beta_b)
    assert np.allclose(out.data, -2.25, atol=1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(11)
    x = tc.parameter(rng.normal(size=(3, 6)))
    gamma = tc.parameter(rng.normal(size=6) + 1.0)
    beta = tc.parameter(rng.normal(size=6))
    gradcheck(lambda: sum_all(mul(tc.layer_norm(x, gamma, beta),
                                  tc.layer_norm(x, gamma, beta))),
              {"x": x, "gamma": gamma, "beta": beta}, tol=1e-5)


def test_embedding_lookup_row_verbatim():
    table = tc.Tensor(np.arange(12.0).reshape(4, 3))
    out = embedding_sum([table], [[2]])
    assert np.array_equal(out.data[0], table.data[2])


def test_embedding_lookup_duplicate_ids_accumulate():
    table = tc.parameter(np.zeros((3, 2)))
    tape = tc.Tape()
    with tape:
        out = embedding_sum([table], [[0, 0]])
        loss = sum_all(mul(out, tc.Tensor([[1.0, 2.0], [3.0, 4.0]])))
    g = tc.backward(loss, tape)[table]
    assert np.array_equal(g[0], [4.0, 6.0])  # both occurrences summed
    assert np.array_equal(g[1], [0.0, 0.0])


def test_embedding_lookup_gradient():
    rng = np.random.default_rng(5)
    table = tc.parameter(rng.normal(size=(6, 4)))
    w = tc.Tensor(rng.normal(size=(5, 4)))
    gradcheck(lambda: sum_all(mul(embedding_sum([table], [[1, 3, 1, 0, 5]]),
                                  w)),
              {"table": table}, tol=1e-6)


def test_embedding_sum_matches_per_table_lookups():
    """Against plain numpy, for three tables and for one: the forward is the
    gathers table[ids] added left to right, bit for bit (one table gives its
    rows verbatim), and each table's gradient is np.add.at of the output
    gradient into zeros, so duplicate ids sum and unused rows get zero."""
    rng = np.random.default_rng(13)
    for sizes, ids in (
            ((5, 2, 7), [[4, 0, 4, 4, 1, 0], [1, 1, 0, 1, 1, 1],
                         [6, 2, 2, 0, 6, 3]]),
            ((4,), [[2, 0, 0, 3, 2, 0]])):
        tables = [tc.parameter(rng.normal(size=(v, 3))) for v in sizes]
        w = rng.normal(size=(6, 3))
        tape = tc.Tape()
        with tape:
            out = embedding_sum(tables, ids)
            loss = sum_all(mul(out, tc.Tensor(w)))
        grads = tc.backward(loss, tape)
        want = tables[0].data[ids[0]]
        for table, idx in zip(tables[1:], ids[1:]):
            want = want + table.data[idx]
        assert np.array_equal(out.data, want)
        for table, idx in zip(tables, ids):
            oracle = np.zeros_like(table.data)
            np.add.at(oracle, idx, w)
            assert np.allclose(grads[table], oracle,
                               rtol=0, atol=1e-12)


def test_embedding_sum_gradient():
    rng = np.random.default_rng(14)
    tables = {f"t{i}": tc.parameter(rng.normal(size=(v, 4)))
              for i, v in enumerate((6, 3))}
    ids = [[5, 1, 5, 0], [2, 2, 0, 2]]
    w = tc.Tensor(rng.normal(size=(4, 4)))
    gradcheck(lambda: sum_all(mul(
        embedding_sum(list(tables.values()), ids), w)), tables, tol=1e-6)


def test_embedding_sum_out_of_range():
    table = tc.Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError, match="7.*4"):
        embedding_sum([table], [[0, 7]])
    with pytest.raises(IndexError, match="-1.*4"):
        embedding_sum([table, table], [[0, 1], [-1, 2]])


def test_embedding_sum_scalar_id_leaves_the_table_unchanged():
    """A 0-d id would gather a view of the table, which the in-place sum of
    a second table would then write through; such ids are refused."""
    table = tc.Tensor(np.arange(8.0).reshape(4, 2))
    before = table.data.copy()
    for tables, ids in (([table, table], [np.intp(1), np.intp(2)]),
                        ([table], [3])):
        with pytest.raises(tc.ShapeError, match="at least one dimension"):
            embedding_sum(tables, ids)
    assert np.array_equal(table.data, before)


def test_embedding_sum_ids_of_another_length_are_refused():
    """A length-1 id array would broadcast its row onto every output row."""
    a = tc.Tensor(np.zeros((5, 2)))
    b = tc.Tensor(np.ones((5, 2)))
    for ids in ([np.arange(4), np.array([1])],
                [np.arange(4), np.arange(3)],
                [np.arange(4), np.arange(4).reshape(2, 2)]):
        with pytest.raises(tc.ShapeError, match="differ"):
            embedding_sum([a, b], ids)


def test_embedding_sum_tables_of_another_width_are_refused():
    """A width-1 table would broadcast its row over every column."""
    a = tc.Tensor(np.zeros((5, 4)))
    for b in (np.arange(5.0).reshape(5, 1), np.ones((5, 8))):
        with pytest.raises(tc.ShapeError, match="rows of shape"):
            embedding_sum([a, tc.Tensor(b)], [np.arange(5), np.arange(5)])


def test_cross_entropy_certain_prediction_is_zero():
    logits = tc.Tensor([[500.0, 0.0, 0.0]])
    loss = tc.cross_entropy_masked(logits, [0], [True])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_log_c():
    logits = tc.Tensor(np.zeros((2, 5)))
    loss = tc.cross_entropy_masked(logits, [1, 4], [True, True])
    assert loss.item() == pytest.approx(math.log(5), abs=1e-12)


def test_cross_entropy_matches_direct_computation():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(4, 3))
    targets = [2, 0, 1, 1]
    mask = [True, True, False, True]
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean([math.log(p[i, targets[i]]) for i in range(4) if mask[i]])
    got = tc.cross_entropy_masked(tc.Tensor(logits), targets, mask).item()
    assert got == pytest.approx(expected, abs=1e-10)


def test_cross_entropy_all_masked_errors():
    with pytest.raises(ContractError):
        tc.cross_entropy_masked(tc.Tensor(np.zeros((2, 2))), [0, 1], [False, False])


def test_dropout_identity_cases():
    rng = np.random.default_rng(0)
    x = tc.Tensor(np.arange(6.0))
    assert np.array_equal(tc.dropout(x, 0.0, rng).data, x.data)
    with pytest.raises(ConfigError):
        tc.dropout(x, 1.0, rng)


def test_dropout_zero_fraction():
    rng = np.random.default_rng(42)
    x = tc.Tensor(np.ones(100_000))
    out = tc.dropout(x, 0.3, rng).data
    frac = np.mean(out == 0.0)
    assert abs(frac - 0.3) < 0.01
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 1.0 / 0.7)


def test_conv2d_one_by_one_identity():
    x = tc.Tensor(np.arange(16.0).reshape(1, 4, 4))
    k = tc.Tensor(np.ones((1, 1, 1, 1)))
    out = tc.conv2d(x, k, stride=1, padding=0)
    assert np.array_equal(out.data, x.data)


def test_conv2d_ones_kernel_on_one_hot():
    x = np.zeros((1, 5, 5))
    x[0, 2, 2] = 1.0
    out = tc.conv2d(tc.Tensor(x), tc.Tensor(np.ones((1, 1, 3, 3))), 1, 1).data
    expected = np.zeros((1, 5, 5))
    expected[0, 1:4, 1:4] = 1.0
    assert np.array_equal(out, expected)


def test_conv2d_channel_mismatch():
    with pytest.raises(tc.ShapeError, match="channel"):
        tc.conv2d(tc.Tensor(np.zeros((2, 4, 4))), tc.Tensor(np.zeros((3, 1, 3, 3))))


def test_conv2d_gradients():
    rng = np.random.default_rng(23)
    x = tc.parameter(rng.normal(size=(2, 6, 5)))
    k = tc.parameter(rng.normal(size=(3, 2, 3, 3)))
    gradcheck(lambda: sum_all(mul(tc.conv2d(x, k, 2, 1),
                                  tc.conv2d(x, k, 2, 1))),
              {"x": x, "k": k}, tol=1e-5)


def test_backward_square_sum():
    x = tc.parameter(np.array([1.0, -2.0, 0.5]))
    tape = tc.Tape()
    with tape:
        loss = sum_all(mul(x, x))
    g = tc.backward(loss, tape)[x]
    assert np.allclose(g, 2 * x.data, atol=1e-12)


def test_backward_unused_parameter_gets_zero():
    x = tc.parameter(np.ones(3))
    unused = tc.parameter(np.ones((2, 2)))
    tape = tc.Tape()
    with tape:
        tape.watch(unused)
        loss = sum_all(x)
    g = tc.backward(loss, tape)
    assert set(g) == {x, unused}                  # keyed by the leaf itself
    assert type(g[unused]) is np.ndarray
    assert np.array_equal(g[unused], np.zeros((2, 2)))


def test_backward_three_op_composite():
    rng = np.random.default_rng(31)
    a = tc.parameter(rng.normal(size=(4, 3)))
    b = tc.parameter(rng.normal(size=(3, 5)))
    zero = tc.Tensor(np.zeros(5))
    gamma = tc.parameter(np.ones(5))
    beta = tc.parameter(np.zeros(5))

    def loss():
        h = tc.linear(a, b, zero)
        h = tc.layer_norm(h, gamma, beta)
        return tc.cross_entropy_masked(h, [0, 3, 2, 1], [True, True, True, False])

    gradcheck(loss, {"a": a, "b": b, "gamma": gamma, "beta": beta}, tol=1e-4)


def test_backward_rejects_non_scalar_and_double_run():
    x = tc.parameter(np.ones(2))
    tape = tc.Tape()
    with tape:
        y = mul(x, x)
        loss = sum_all(y)
    with pytest.raises(tc.TapeError):
        tc.backward(y, tape)
    tc.backward(loss, tape)
    with pytest.raises(tc.TapeError):
        tc.backward(loss, tape)


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(99)
        x = tc.parameter(rng.normal(size=(4, 4)))
        tape = tc.Tape()
        with tape:
            h = tc.gelu(tc.linear(x, x, tc.Tensor(np.zeros(4))))
            h = tc.dropout(h, 0.5, np.random.default_rng(1))
            loss = sum_all(h)
        return loss.item(), tc.backward(loss, tape)[x].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_tapes_on_two_threads_share_parameters():
    """Two threads recording on the same leaves get their serial gradients."""
    import sys
    import threading

    rng = np.random.default_rng(41)
    params = [tc.parameter(rng.normal(0.0, 0.1, size=shape))
              for _ in range(30) for shape in ((64, 64), (64,))]
    inputs = [tc.Tensor(rng.normal(size=(128, 64))) for _ in range(2)]

    def record(x):
        tape = tc.Tape()
        with tape:
            h = x
            for w, b in zip(params[::2], params[1::2]):
                h = tc.gelu(tc.linear(h, w, b))
            loss = sum_all(mul(h, h))
        grads = tc.backward(loss, tape)
        return len(tape.leaves), [grads[p] for p in params]

    serial = [record(x) for x in inputs]
    assert serial[0][0] == len(params)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often, mid-recording
    try:
        for _ in range(20):
            start = threading.Barrier(2, timeout=10)
            out: list = [None, None]

            def run(i):
                start.wait()
                out[i] = record(inputs[i])

            threads = [threading.Thread(target=run, args=(i,), daemon=True)
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for (n, grads), (n_ref, ref) in zip(out, serial):
                assert n == n_ref
                assert all(np.array_equal(g, r) for g, r in zip(grads, ref))
    finally:
        sys.setswitchinterval(interval)


def test_plumbing_op_gradients():
    rng = np.random.default_rng(17)
    x = tc.parameter(rng.normal(size=(3, 4)))
    w = tc.parameter(rng.normal(size=(4, 2)))
    b = tc.parameter(rng.normal(size=2))

    gradcheck(lambda: sum_all(tc.gelu(tc.linear(x, w, b))),
              {"x": x, "w": w, "b": b}, tol=1e-5)
    y = tc.parameter(rng.normal(size=(3, 2)))
    gradcheck(lambda: sum_all(mul(tc.concat_cols([x, y]),
                                  tc.concat_cols([x, y]))),
              {"x": x, "y": y}, tol=1e-5)


def test_gelu_bits_match_the_tanh_formula():
    """The in-place forward keeps the bits of 0.5*x*(1 + tanh(c*(x +
    0.044715*x^3))), and so does the gradient built on its saved tanh, also
    where x^3 overflows."""
    rng = np.random.default_rng(23)
    xd = np.concatenate([rng.normal(scale=3.0, size=500), [
        0.0, -0.0, 1e-300, -1e-300, 5.0, -5.0, 30.0, -30.0, 1e3, -1e3,
        1e8, -1e8, 1e120, -1e120, 1e300, -1e300]]).reshape(-1, 4)
    upstream = rng.normal(size=xd.shape)
    c = math.sqrt(2.0 / math.pi)
    x = tc.parameter(xd.copy())
    tape = tc.Tape()
    with np.errstate(over="ignore", invalid="ignore"), tape:
        t = np.tanh(c * (xd + 0.044715 * (xd * xd * xd)))
        want_out = 0.5 * xd * (1.0 + t)
        du = c * (1.0 + 3 * 0.044715 * (xd * xd))
        want_grad = upstream * (0.5 * (1.0 + t)
                                + 0.5 * xd * (1.0 - t * t) * du)
        tape.watch(x)
        out = tc.gelu(x)
        loss = sum_all(mul(out, tc.Tensor(upstream)))
        grads = tc.backward(loss, tape)
    assert out.data.tobytes() == want_out.tobytes()
    assert grads[x].tobytes() == want_grad.tobytes()


def test_adam_first_step_analytic():
    p = {"w": tc.parameter(np.array([1.0]))}
    st = tc.AdamState(lr=0.01)
    tc.adam_step(p, {"w": np.array([3.0])}, st)
    # first step: mhat=g, vhat=g^2, so the move is lr*g/(|g|+eps)
    assert p["w"].data[0] == pytest.approx(1.0 - 0.01 * 3.0 / (3.0 + 1e-8), abs=1e-12)


def test_adam_zero_gradient_keeps_parameter():
    p = {"w": tc.parameter(np.array([2.0, -1.0]))}
    st = tc.AdamState(lr=0.5)
    tc.adam_step(p, {"w": np.zeros(2)}, st)
    assert np.array_equal(p["w"].data, [2.0, -1.0])
    assert st.step == 1


def test_adam_trajectory_matches_reference():
    # independently coded dense update on a quadratic loss 0.5*w^2 (grad = w)
    w_ref = np.array([1.0, -3.0, 0.25])
    m = np.zeros(3)
    v = np.zeros(3)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    traj_ref = []
    for t in range(1, 6):
        g = w_ref.copy()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref = w_ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        traj_ref.append(w_ref.copy())

    p = {"w": tc.parameter(np.array([1.0, -3.0, 0.25]))}
    st = tc.AdamState(lr=lr)
    for t in range(5):
        tc.adam_step(p, {"w": p["w"].data.copy()}, st)
        assert np.allclose(p["w"].data, traj_ref[t], atol=1e-12)


def test_adam_shape_mismatch():
    p = {"w": tc.parameter(np.ones(3))}
    with pytest.raises(tc.ShapeError):
        tc.adam_step(p, {"w": np.ones(4)}, tc.AdamState(lr=0.1))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    params = {"layer.0.w": tc.Tensor(rng.normal(size=(3, 4))),
              "bias": tc.Tensor(rng.normal(size=5))}
    cfg = {"hidden": 4, "note": "unit"}
    path = tmp_path / "model.ckpt"
    tc.save_checkpoint(path, cfg, params)
    cfg2, loaded = tc.load_checkpoint(path)
    assert cfg2 == cfg
    for name, t in params.items():
        assert np.array_equal(loaded[name], t.data)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b'{"format": "something-else"}\n')
    from ielab.errors import CheckpointMismatchError
    with pytest.raises(CheckpointMismatchError):
        tc.load_checkpoint(path)


def _corrupt_manifest(header, payload):
    del header["manifest"]
    return header, payload


def _negative_offset(header, payload):
    header["manifest"][0]["offset"] = -8
    return header, payload


def _overlapping_offsets(header, payload):
    header["manifest"][1]["offset"] = 8      # inside the first parameter
    return header, payload


def _trailing_bytes(header, payload):
    return header, payload + bytes(8)


def _float_offset(header, payload):
    header["manifest"][0]["offset"] = 0.0
    return header, payload


def _float_dimension(header, payload):
    header["manifest"][1]["shape"] = [3.0]
    return header, payload


def _oversized_empty_shape(header, payload):
    header["manifest"][1]["shape"] = [0, 2 ** 70]
    return header, payload[:32]


def _nan_payload(header, payload):
    return header, payload[:32] + np.full(3, np.nan).tobytes()


@pytest.mark.parametrize("corrupt", [_corrupt_manifest, _negative_offset,
                                     _overlapping_offsets, _trailing_bytes,
                                     _float_offset, _float_dimension,
                                     _oversized_empty_shape, _nan_payload],
                         ids=["no-manifest", "negative-offset",
                              "overlapping-offsets", "trailing-bytes",
                              "float-offset", "float-dimension",
                              "oversized-empty-shape", "nan-payload"])
def test_checkpoint_rejects_bad_manifest(tmp_path, corrupt):
    from ielab.errors import CheckpointMismatchError
    rng = np.random.default_rng(4)
    path = tmp_path / "model.ckpt"
    tc.save_checkpoint(path, {"hidden": 2},
                       {"a": tc.Tensor(rng.normal(size=(2, 2))),
                        "b": tc.Tensor(rng.normal(size=3))})
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    header, payload = corrupt(json.loads(blob[:nl]), blob[nl + 1:])
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointMismatchError):
        tc.load_checkpoint(path)


def _checkpoint_loads_or_rejects(directory, blob):
    """Load a (possibly damaged) checkpoint: it gives finite float64 arrays
    that match its manifest, or a CheckpointMismatchError."""
    from ielab.errors import CheckpointMismatchError
    path = directory / f"{len(list(directory.iterdir()))}.ckpt"
    path.write_bytes(blob)      # a new file: some filesystems truncate slowly
    try:
        config, params = tc.load_checkpoint(path)
    except CheckpointMismatchError:
        return
    assert isinstance(config, dict)
    manifest = json.loads(blob[:blob.index(b"\n")])["manifest"]
    assert list(params) == [e["name"] for e in manifest]
    for entry in manifest:
        arr = params[entry["name"]]
        assert arr.dtype == np.float64 and list(arr.shape) == entry["shape"]
        assert np.isfinite(arr).all()


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    rng = np.random.default_rng(5)
    tc.save_checkpoint(path, {"hidden": 2},
                       {"a": tc.Tensor(rng.normal(size=(2, 2))),
                        "b": tc.Tensor(rng.normal(size=3)),
                        "c": tc.Tensor(rng.normal(size=()))})
    return path.parent, path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(pos=st.integers(0, 10_000), chunk=st.binary(min_size=1, max_size=3),
       how=st.sampled_from(["replace", "insert", "delete"]))
def test_byte_mutated_checkpoint_loads_or_rejects(checkpoint_blob, pos, chunk,
                                                  how):
    directory, blob = checkpoint_blob
    pos %= len(blob)
    if how == "replace":
        blob = blob[:pos] + chunk + blob[pos + len(chunk):]
    elif how == "insert":
        blob = blob[:pos] + chunk + blob[pos:]
    else:
        blob = blob[:pos] + blob[pos + len(chunk):]
    _checkpoint_loads_or_rejects(directory, blob)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_truncated_checkpoint_loads_or_rejects(checkpoint_blob, cut):
    directory, blob = checkpoint_blob
    _checkpoint_loads_or_rejects(directory, blob[:cut % len(blob)])


def _attention_oracle(q, k, v, bias, heads):
    """Per-head loop: softmax(q_j k_j^T / sqrt(dh) + bias) v_j."""
    T, h = q.shape
    dh = h // heads
    out = np.empty((T, h))
    for j in range(heads):
        cols = slice(j * dh, (j + 1) * dh)
        s = q[:, cols] @ k[:, cols].T / math.sqrt(dh) + bias
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        out[:, cols] = p @ v[:, cols]
    return out


def _attention_biases(rng, T):
    key_mask = np.where(np.arange(T) < T - 2, 0.0, -1e9)[None, :]  # (1, T)
    return {"key mask": key_mask,
            "full": rng.normal(size=(T, T)) + key_mask}            # (T, T)


def test_attention_matches_per_head_loop_oracle():
    rng = np.random.default_rng(31)
    for T, h, heads in ((5, 6, 3), (7, 8, 2), (4, 4, 1)):
        q, k, v = (tc.Tensor(rng.normal(size=(T, h))) for _ in range(3))
        for name, bias in _attention_biases(rng, T).items():
            out = tc.ops.attention(q, k, v, bias, heads).data
            expected = _attention_oracle(q.data, k.data, v.data, bias, heads)
            assert np.allclose(out, expected, rtol=0, atol=1e-12), (T, name)


def test_attention_gradient():
    rng = np.random.default_rng(32)
    T, h, heads = 5, 6, 3
    q, k, v = (tc.parameter(rng.normal(size=(T, h))) for _ in range(3))
    w = rng.normal(size=(T, h))
    for bias in _attention_biases(rng, T).values():
        gradcheck(lambda: sum_all(mul(
                      tc.ops.attention(q, k, v, bias, heads), tc.Tensor(w))),
                  {"q": q, "k": k, "v": v}, tol=1e-6)


def test_attention_without_a_bias_is_a_zero_bias_bit_for_bit():
    rng = np.random.default_rng(34)
    T, h, heads = 9, 8, 2
    q, k, v = (tc.parameter(rng.normal(size=(T, h))) for _ in range(3))
    w = tc.Tensor(rng.normal(size=(T, h)))
    runs = []
    for bias in (None, np.zeros((1, T))):
        tape = tc.Tape()
        with tape:
            out = tc.ops.attention(q, k, v, bias, heads)
            loss = sum_all(mul(out, w))
        grads = tc.backward(loss, tape)
        runs.append([out.data.tobytes()] + [
            grads[t].tobytes() for t in (q, k, v)])
    assert runs[0] == runs[1]


def test_attention_spans_match_separate_calls_bit_for_bit():
    rng = np.random.default_rng(35)
    h, heads = 8, 2
    spans = [(0, 5), (5, 6), (6, 13)]          # unequal, one a single token
    T = spans[-1][1]
    q, k, v = (tc.parameter(rng.normal(size=(T, h))) for _ in range(3))
    w = rng.normal(size=(T, h))

    def run(q, k, v, w, *spans):
        tape = tc.Tape()
        with tape:
            out = tc.ops.attention(q, k, v, None, heads, *spans)
            loss = sum_all(mul(out, tc.Tensor(w)))
        grads = tc.backward(loss, tape)
        return [out.data] + [grads[t] for t in (q, k, v)]

    packed = run(q, k, v, w, spans)
    for lo, hi in spans:
        rows = [tc.parameter(t.data[lo:hi].copy()) for t in (q, k, v)]
        alone = run(*rows, w[lo:hi])
        for got, want in zip(packed, alone):
            assert got[lo:hi].tobytes() == want.tobytes(), (lo, hi)


def test_attention_spans_gradient():
    rng = np.random.default_rng(36)
    T, h, heads = 7, 6, 3
    q, k, v = (tc.parameter(rng.normal(size=(T, h))) for _ in range(3))
    w = tc.Tensor(rng.normal(size=(T, h)))
    gradcheck(lambda: sum_all(mul(
                  tc.ops.attention(q, k, v, None, heads, [(0, 4), (4, 7)]),
                  w)),
              {"q": q, "k": k, "v": v}, tol=1e-6)


@pytest.mark.parametrize("spans", [
    [(0, 3), (4, 6)], [(0, 4), (3, 6)], [(0, 3), (3, 5)], [(1, 6)],
    [(0, 3), (3, 3), (3, 6)], []],
    ids=["gap", "overlap", "short-of-T", "late-start", "empty-span", "none"])
def test_attention_spans_must_tile_the_rows(spans):
    x = tc.Tensor(np.ones((6, 4)))
    with pytest.raises(tc.ShapeError, match="tile"):
        tc.ops.attention(x, x, x, None, 2, spans)


@pytest.mark.parametrize("bias", [np.zeros((1, 6)), [None, None]],
                         ids=["key-bias", "bias-list"])
def test_attention_spans_take_no_bias(bias):
    x = tc.Tensor(np.ones((6, 4)))
    with pytest.raises(tc.ShapeError, match="spans takes no bias"):
        tc.ops.attention(x, x, x, bias, 2, [(0, 2), (2, 6)])


# Public src/ functions and methods kept although only tests, demos or
# fuzzers call them, each with its reason.
_KEPT_FOR_TESTS_AND_DEMOS = {
    "paired_t_test": "the paper's significance test; demo 05 runs it",
}


def test_every_public_op_is_used_by_the_library():
    """No src/ code that only tests reach: every public top-level function
    and every public method of a top-level class in src/ is referred to by
    some src/ file, its own included, other than the package __init__.py
    re-exports. A reference is a Name, an Attribute or an ImportFrom alias
    with the same name, so the check matches by name only: a method named
    like an attribute that src/ reads elsewhere (`items`, `copy`, a numpy
    attribute) passes even when nothing calls it."""
    src = Path(__file__).resolve().parent.parent / "src" / "ielab"
    defined, used = [], set()           # (name, qualified name), names
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(f.name, f"{node.name}.{f.name}")
                            for f in node.body
                            if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name))
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(qual for name, qual in defined
                    if not name.startswith("_") and name not in used)
    assert unused == sorted(_KEPT_FOR_TESTS_AND_DEMOS)


def test_only_the_engine_records_on_a_tape():
    """Ops hand their outputs to `engine.record`: no src/ module but
    tensorcore/engine.py calls a `.push(`, and only engine and threads name
    `active_tape`."""
    src = Path(__file__).resolve().parent.parent / "src" / "ielab"
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "push" and rel != "tensorcore/engine.py":
                found.append(f"{rel}:{node.lineno} push")
            names = [node.id] if isinstance(node, ast.Name) else \
                [node.attr] if isinstance(node, ast.Attribute) else \
                [a.name for a in node.names] \
                if isinstance(node, ast.ImportFrom) else []
            if "active_tape" in names and rel not in (
                    "tensorcore/engine.py", "tensorcore/threads.py"):
                found.append(f"{rel}:{node.lineno} active_tape")
    assert found == []


def test_only_the_engine_names_node_ids():
    """Gradients come back keyed by leaf: no src/ module but
    tensorcore/engine.py names `node_id` or `tracked_id`."""
    src = Path(__file__).resolve().parent.parent / "src" / "ielab"
    paths = sorted(src.rglob("*.py"))
    assert paths, f"no sources under {src}"
    found = []
    for path in paths:
        rel = path.relative_to(src).as_posix()
        if rel == "tensorcore/engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.value if isinstance(node, ast.Constant) else None
            if name in ("node_id", "tracked_id"):
                found.append(f"{rel}:{node.lineno} {name}")
    assert found == []
