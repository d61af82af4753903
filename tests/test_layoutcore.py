import numpy as np
import pytest
from conftest import gradcheck

from ielab import layoutcore as lc
from ielab.docstream import ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.tensorcore import (
    ShapeError,
    Tape,
    Tensor,
    backward,
    cross_entropy_masked,
    ops,
)


def tiny_input(T=4, seed=0, max_coord=1000):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, max_coord - 10, T)
    y1 = rng.integers(0, max_coord - 10, T)
    w = rng.integers(0, 10, T)
    h = rng.integers(0, 10, T)
    return ModelInput(
        word_ids=rng.integers(2, 8, T),
        coord_ids=np.stack([x1, y1, x1 + w, y1 + h, w, h]),
        style_ids=rng.integers(0, 2, (5, T)),
        label_ids=rng.integers(0, 3, T),
        page_ids=np.zeros(T, dtype=np.int64))


def make_config(**over):
    base = dict(word_vocab=8, label_count=3, hidden=8, layers=2, heads=2,
                max_seq_len=16, seed=5)
    base.update(over)
    return lc.EncoderConfig(**base)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        make_config(hidden=6, heads=4)


def test_init_deterministic_and_std():
    cfg = make_config()
    a = lc.init_parameters(cfg)
    b = lc.init_parameters(cfg)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name
    big = lc.init_parameters(lc.EncoderConfig(word_vocab=2000, label_count=3,
                                              hidden=64, layers=1, heads=2,
                                              seed=1))
    draws = big["word_table"].data.ravel()
    assert draws.size >= 100_000
    assert abs(draws.std() - 0.02) < 0.001


def test_init_std_zero_gives_zero_weights():
    params = lc.init_parameters(make_config(init_std=0.0))
    assert not params["word_table"].data.any()
    assert not params["layer.0.attn.q"].data.any()
    assert np.array_equal(params["embed_ln.gain"].data, np.ones(8))


def test_embed_all_zero_tables_gives_zero():
    cfg = make_config(init_std=0.0)
    inp = tiny_input()
    out = lc.embed_tokens(inp, lc.init_parameters(cfg), cfg, [inp.length])
    assert not out.data.any()


def test_embed_differs_only_by_word_embedding():
    cfg = make_config()
    params = lc.init_parameters(cfg)
    inp = tiny_input(T=2)
    inp.word_ids = np.array([3, 4])
    # same bbox for both tokens, and each is position 0 of its own chunk
    inp.coord_ids[:, 1] = inp.coord_ids[:, 0]
    out = lc.embed_tokens(inp, params, cfg, [1, 1]).data
    wt = params["word_table"].data
    assert np.allclose(out[0] - out[1], wt[3] - wt[4], atol=1e-12)


def test_embed_matches_direct_sum_oracle():
    cfg = make_config()
    params = lc.init_parameters(cfg)
    inp = tiny_input(T=5, seed=3)
    out = lc.embed_tokens(inp, params, cfg, [5]).data
    for i in range(5):
        x1, y1, x2, y2, w, h = inp.coord_ids[:, i]
        expected = (params["word_table"].data[inp.word_ids[i]]
                    + params["pos1d"].data[i]
                    + params["pos2d.x1"].data[x1]
                    + params["pos2d.y1"].data[y1]
                    + params["pos2d.x2"].data[x2]
                    + params["pos2d.y2"].data[y2]
                    + params["pos2d.w"].data[w]
                    + params["pos2d.h"].data[h])
        assert np.allclose(out[i], expected, atol=1e-12)


def test_embed_additivity_in_each_table():
    cfg = make_config()
    params = lc.init_parameters(cfg)
    inp = tiny_input(T=3, seed=9)
    base = lc.embed_tokens(inp, params, cfg, [3]).data.copy()
    contrib = params["pos2d.w"].data[inp.coord_ids[4]].copy()
    params["pos2d.w"].data *= 2.0
    scaled = lc.embed_tokens(inp, params, cfg, [3]).data
    assert np.allclose(scaled - base, contrib, atol=1e-12)


def test_embed_rejects_overlong_sequence():
    cfg = make_config(max_seq_len=3)
    params = lc.init_parameters(cfg)
    with pytest.raises(ContractError, match="chunk"):
        lc.embed_tokens(tiny_input(T=4), params, cfg, [4])


def test_embed_rejects_lengths_that_miss_tokens():
    """Chunk lengths that do not cover the input would put every token at
    one position; they are refused, not broadcast."""
    cfg = make_config()
    with pytest.raises(ShapeError, match="differ"):
        lc.embed_tokens(tiny_input(T=5), lc.init_parameters(cfg), cfg, [1])


def test_forward_shape_preserved():
    cfg = make_config()
    params = lc.init_parameters(cfg)
    for T in (1, 4, 16):
        x = Tensor(np.random.default_rng(T).normal(size=(T, 8)))
        out = lc.encoder_forward(x, params, cfg, [T])
        assert out.data.shape == (T, 8)


def test_attention_rows_sum_to_one_over_unmasked():
    """Read first-layer attention weights through ops.attention itself: with
    v all ones each output is a row sum, and with v one on the masked keys
    and zero elsewhere each output is the weight on masked keys."""
    cfg = make_config()
    params = lc.init_parameters(cfg)
    x = Tensor(np.random.default_rng(0).normal(size=(6, 8)))
    mask = np.array([True, True, True, True, False, False])
    key_bias = np.where(mask, 0.0, -1e9)[None, :]
    h = ops.layer_norm(x, params["embed_ln.gain"], params["embed_ln.bias"])
    q = ops.linear(h, params["layer.0.attn.q"], params["layer.0.attn.q_bias"])
    k = ops.linear(h, params["layer.0.attn.k"], params["layer.0.attn.k_bias"])

    def weights_on(keys):
        v = Tensor(np.repeat(keys.astype(float)[:, None], cfg.hidden, axis=1))
        return ops.attention(q, k, v, key_bias, cfg.heads).data

    assert np.allclose(weights_on(np.ones(6, bool)), 1.0, atol=1e-12)
    assert np.allclose(weights_on(~mask), 0.0)  # masked keys get zero weight


def test_full_encoder_differentiable():
    cfg = make_config(layers=1)
    params = lc.init_parameters(cfg)
    inp = tiny_input(T=4, seed=2)
    first_three = (Tensor(np.eye(cfg.hidden, 3)), Tensor(np.zeros(3)))

    def loss():
        e = lc.embed_tokens(inp, params, cfg, [4])
        L = lc.encoder_forward(e, params, cfg, [4])
        return cross_entropy_masked(ops.linear(L, *first_three),
                                    inp.label_ids, np.ones(4, bool))

    named = dict(sorted(params.items()))
    gradcheck(loss, named, tol=1e-4, max_samples=6)
