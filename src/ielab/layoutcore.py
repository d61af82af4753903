"""Layout-position transformer encoder.

Per-token input embeddings are the sum of eight learned tables: word identity,
1D position, and six quantized-geometry tables (x1, y1, x2, y2, width,
height). A single layer norm follows the sum, then a stack of post-norm
transformer encoder layers with GELU feed-forwards produces the per-token
hidden states the fusion heads consume.

Several chunks can run as one packed sequence: their rows sit back to back,
every per-token op (embedding, layer norm, linear, GELU, residual add) runs
once over all rows, and each layer's single attention node is told the chunk
spans, so no score between two chunks is ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ielab.docstream import COORD_VOCAB, ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.jsonconfig import JsonConfig
from ielab.tensorcore import engine, ops, threads
from ielab.tensorcore.engine import ShapeError, Tensor

COORD_TABLES = ("x1", "y1", "x2", "y2", "w", "h")


@dataclass(frozen=True)
class EncoderConfig(JsonConfig):
    word_vocab: int
    label_count: int
    hidden: int = 64
    layers: int = 2
    heads: int = 2
    ff_dim: int | None = None        # defaults to 4*hidden
    max_seq_len: int = 512
    init_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden", "heads", "layers"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.ff_dim is not None and self.ff_dim < 1:
            raise ConfigError(f"ff_dim must be >= 1 or null, got {self.ff_dim}")
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be >= 1")
        if self.word_vocab < 2 or self.label_count < 1:
            raise ConfigError("word_vocab needs PAD/UNK and label_count >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.init_std < float("inf"):
            raise ConfigError(
                f"init_std must be finite and >= 0, got {self.init_std}")

    @property
    def ff(self) -> int:
        return self.ff_dim if self.ff_dim is not None else 4 * self.hidden


class EncoderParameters:
    """Named encoder tensors, looked up by name."""

    def __init__(self, config: EncoderConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def init_parameters(config: EncoderConfig) -> EncoderParameters:
    """Seeded N(0, init_std^2) weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng([config.seed, 0])
    h, ff = config.hidden, config.ff

    def weight(*shape):
        return engine.parameter(rng.normal(0.0, config.init_std, size=shape))

    def zeros(*shape):
        return engine.parameter(np.zeros(shape))

    def ones(*shape):
        return engine.parameter(np.ones(shape))

    t: dict[str, Tensor] = {}
    t["word_table"] = weight(config.word_vocab, h)
    t["pos1d"] = weight(config.max_seq_len, h)
    for name in COORD_TABLES:
        t[f"pos2d.{name}"] = weight(COORD_VOCAB, h)
    t["embed_ln.gain"] = ones(h)
    t["embed_ln.bias"] = zeros(h)
    for i in range(config.layers):
        pre = f"layer.{i}."
        for part in ("q", "k", "v", "o"):
            t[pre + f"attn.{part}"] = weight(h, h)
            t[pre + f"attn.{part}_bias"] = zeros(h)
        t[pre + "ln1.gain"] = ones(h)
        t[pre + "ln1.bias"] = zeros(h)
        t[pre + "ff.w1"] = weight(h, ff)
        t[pre + "ff.b1"] = zeros(ff)
        t[pre + "ff.w2"] = weight(ff, h)
        t[pre + "ff.b2"] = zeros(h)
        t[pre + "ln2.gain"] = ones(h)
        t[pre + "ln2.bias"] = zeros(h)
    return EncoderParameters(config, t)


def embed_tokens(inp: ModelInput, params: EncoderParameters,
                 lengths: list[int] | None = None) -> Tensor:
    """Eight-table additive embedding; chunking must happen before this.

    `lengths` gives the token counts of the chunks packed back to back in
    `inp` (default: one chunk); each chunk must fit max_seq_len.
    """
    cfg = params.config
    longest = inp.length if lengths is None else max(lengths)
    if longest > cfg.max_seq_len:
        raise ContractError(
            f"sequence of {longest} tokens exceeds max_seq_len "
            f"{cfg.max_seq_len}; chunk the document first")
    tables = [params["word_table"], params["pos1d"]]
    ids = [inp.word_ids, inp.pos1d_ids]
    coord_ids = (inp.x1_ids, inp.y1_ids, inp.x2_ids, inp.y2_ids,
                 inp.w_ids, inp.h_ids)
    for name, cid in zip(COORD_TABLES, coord_ids):
        tables.append(params[f"pos2d.{name}"])
        ids.append(cid)
    return ops.embedding_sum(tables, ids)


_MASK_BIAS = -1e9  # drives masked keys' attention weight to exact zero


@threads.split_rows()
def encoder_forward(hidden_in: Tensor, mask, params: EncoderParameters,
                    lengths: list[int] | None = None) -> Tensor:
    """Post-norm transformer stack over the summed embeddings.

    `hidden_in` holds the rows of the chunks whose token counts `lengths`
    lists, packed back to back (default: one chunk of all rows). Each layer
    runs one attention node over the chunk spans, where each query sees only
    its own chunk's keys with `mask` True; every other op runs once over all
    rows. A chunk with a masked key adds a -1e9 bias to that key's scores; a
    chunk with none (every chunk that `encode_document` and packing produce)
    adds no bias. In an inference call every op but the embedding gather runs
    its rows (attention: its heads) as two halves on two threads; see
    tensorcore.threads.
    """
    cfg = params.config
    T = hidden_in.data.shape[0]
    msk = np.asarray(mask, dtype=bool)
    if msk.shape != (T,):
        raise ShapeError(f"mask length {msk.shape} does not match T={T}")
    bounds = [0, T] if lengths is None else np.cumsum([0, *lengths]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    biases = [None if msk[lo:hi].all()
              else np.where(msk[lo:hi], 0.0, _MASK_BIAS)[None, :]
              for lo, hi in spans]

    h = ops.layer_norm(hidden_in, params["embed_ln.gain"], params["embed_ln.bias"])
    for i in range(cfg.layers):
        pre = f"layer.{i}."
        q = ops.linear(h, params[pre + "attn.q"], params[pre + "attn.q_bias"])
        k = ops.linear(h, params[pre + "attn.k"], params[pre + "attn.k_bias"])
        v = ops.linear(h, params[pre + "attn.v"], params[pre + "attn.v_bias"])
        attn_out = ops.linear(ops.attention(q, k, v, biases, cfg.heads, spans),
                              params[pre + "attn.o"], params[pre + "attn.o_bias"])
        h = ops.layer_norm(ops.add(h, attn_out),
                           params[pre + "ln1.gain"], params[pre + "ln1.bias"])
        inner = ops.gelu(ops.linear(h, params[pre + "ff.w1"], params[pre + "ff.b1"]))
        ff_out = ops.linear(inner, params[pre + "ff.w2"], params[pre + "ff.b2"])
        h = ops.layer_norm(ops.add(h, ff_out),
                           params[pre + "ln2.gain"], params[pre + "ln2.bias"])
    return h
