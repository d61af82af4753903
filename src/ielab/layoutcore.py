"""Layout-position transformer encoder.

Per-token input embeddings are the sum of eight learned tables: word identity,
1D position, and six quantized-geometry tables (x1, y1, x2, y2, width,
height). A single layer norm follows the sum, then a stack of post-norm
transformer encoder layers with GELU feed-forwards produces the per-token
hidden states the fusion heads consume.

The parameters are a plain name -> Tensor dict, named as `parameter_shapes`
lists them. Chunks always run as one packed sequence, `inp` holding their
rows back to back and `lengths` their token counts: `params =
init_parameters(cfg)`, then `encoder_forward(embed_tokens(inp, params, cfg,
lengths), params, cfg, lengths)`, with `lengths = [inp.length]` for one
chunk. Every per-token op (embedding, layer norm, linear, GELU, residual add)
runs once over all rows, and each layer's single attention node is told the
chunk spans, so no score between two chunks is ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ielab.docstream import COORD_VOCAB, ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.jsonconfig import JsonConfig
from ielab.tensorcore import engine, ops
from ielab.tensorcore.engine import Tensor

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


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder tensor, in init_parameters' order."""
    h, ff = config.hidden, config.ff
    shapes = {"word_table": (config.word_vocab, h),
              "pos1d": (config.max_seq_len, h)}
    for name in COORD_TABLES:
        shapes[f"pos2d.{name}"] = (COORD_VOCAB, h)
    shapes["embed_ln.gain"] = shapes["embed_ln.bias"] = (h,)
    for i in range(config.layers):
        pre = f"layer.{i}."
        for part in ("q", "k", "v", "o"):
            shapes[pre + f"attn.{part}"] = (h, h)
            shapes[pre + f"attn.{part}_bias"] = (h,)
        shapes[pre + "ln1.gain"] = shapes[pre + "ln1.bias"] = (h,)
        shapes[pre + "ff.w1"], shapes[pre + "ff.b1"] = (h, ff), (ff,)
        shapes[pre + "ff.w2"], shapes[pre + "ff.b2"] = (ff, h), (h,)
        shapes[pre + "ln2.gain"] = shapes[pre + "ln2.bias"] = (h,)
    return shapes


def initial_value(name: str, shape: tuple, rng: np.random.Generator,
                  std: float) -> Tensor:
    """Unit layer-norm gains, zero biases, N(0, std^2) weights and tables;
    only weights and tables draw from `rng`."""
    if name.endswith(".gain"):
        return engine.parameter(np.ones(shape))
    if name.endswith(("bias", ".b1", ".b2")):
        return engine.parameter(np.zeros(shape))
    return engine.parameter(rng.normal(0.0, std, size=shape))


def init_parameters(config: EncoderConfig) -> dict[str, Tensor]:
    """Name -> tensor, drawn from stream (seed, 0): N(0, init_std^2)
    weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng([config.seed, 0])
    return {name: initial_value(name, shape, rng, config.init_std)
            for name, shape in parameter_shapes(config).items()}


def embed_tokens(inp: ModelInput, params: dict[str, Tensor],
                 cfg: EncoderConfig, lengths: list[int]) -> Tensor:
    """Eight-table additive embedding; chunking must happen before this.

    `lengths` gives the token counts of the chunks packed back to back in
    `inp`; each chunk must fit max_seq_len. A token's 1-D position is its
    index in its chunk, so positions restart at 0 with every chunk; the six
    coordinate tables read the rows of `inp.coord_ids`.
    """
    if max(lengths) > cfg.max_seq_len:
        raise ContractError(
            f"sequence of {max(lengths)} tokens exceeds max_seq_len "
            f"{cfg.max_seq_len}; chunk the document first")
    positions = np.concatenate([np.arange(n) for n in lengths])
    tables = [params["word_table"], params["pos1d"],
              *(params[f"pos2d.{name}"] for name in COORD_TABLES)]
    return ops.embedding_sum(tables, [inp.word_ids, positions, *inp.coord_ids])


def encoder_forward(hidden_in: Tensor, params: dict[str, Tensor],
                    cfg: EncoderConfig, lengths: list[int]) -> Tensor:
    """Post-norm transformer stack over the summed embeddings.

    `hidden_in` holds the rows of the chunks whose token counts `lengths`
    lists, packed back to back. Every row is a real token. Each layer runs
    one attention node over the chunk spans, where each query sees every key
    of its own chunk and none of any other; every other op runs once over
    all rows. The ops of a pinned inference call may run as two halves on
    two threads, as that call's other ops do (see tensorcore.threads).
    """
    bounds = np.cumsum([0, *lengths]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))

    h = ops.layer_norm(hidden_in, params["embed_ln.gain"], params["embed_ln.bias"])
    for i in range(cfg.layers):
        pre = f"layer.{i}."
        q = ops.linear(h, params[pre + "attn.q"], params[pre + "attn.q_bias"])
        k = ops.linear(h, params[pre + "attn.k"], params[pre + "attn.k_bias"])
        v = ops.linear(h, params[pre + "attn.v"], params[pre + "attn.v_bias"])
        attn_out = ops.linear(ops.attention(q, k, v, None, cfg.heads, spans),
                              params[pre + "attn.o"], params[pre + "attn.o_bias"])
        h = ops.layer_norm(ops.add(h, attn_out),
                           params[pre + "ln1.gain"], params[pre + "ln1.bias"])
        inner = ops.gelu(ops.linear(h, params[pre + "ff.w1"], params[pre + "ff.b1"]))
        ff_out = ops.linear(inner, params[pre + "ff.w2"], params[pre + "ff.b2"])
        h = ops.layer_norm(ops.add(h, ff_out),
                           params[pre + "ln2.gain"], params[pre + "ln2.bias"])
    return h
