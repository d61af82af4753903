"""Token tagger assembly: encoder + one fusion mode + classifier head.

A model is its spec plus two name -> Tensor dicts whose names and shapes
`parameter_shapes(spec)` lists: `encoder_params` (layoutcore) and
`fusion_params` (the `style.*`, `image.*` and `head.*` tensors).
Construction is seed-structured so that models differing only in fusion mode
share bitwise-identical encoder initializations: the encoder draws from
stream (seed, 0), style tables from (seed, 1), the image path from (seed, 2),
and the head from (seed, 3).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ielab import layoutcore
from ielab.docstream import STYLE_FEATURES, ModelInput, pack_inputs
from ielab.errors import CheckpointMismatchError, ConfigError, DataValidationError
from ielab.jsonconfig import JsonConfig
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse.fusion import (
    FusionMode,
    fuse_style_concat,
    fuse_style_sum,
    head_logits,
)
from ielab.stylefuse.image import ImagePathConfig, image_rows
from ielab.tensorcore import checkpoint as ckpt
from ielab.tensorcore import engine, ops, threads
from ielab.tensorcore.engine import Tensor


@dataclass(frozen=True)
class TaggerSpec(JsonConfig):
    """Everything needed to construct a model, JSON-serializable."""

    encoder: EncoderConfig
    fusion: FusionMode
    style_vocab_sizes: tuple[int, ...] = ()   # V_m per STYLE_FEATURES entry
    style_dim: int = 64                       # table width for STYLE_CONCAT
    style_features: tuple[str, ...] = STYLE_FEATURES
    image: ImagePathConfig | None = None
    dropout_rate: float = 0.3

    def __post_init__(self):
        # corpus-dependent sizes may still be unresolved here; build() checks
        if self.fusion in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT) \
                and not self.style_features:
            raise ConfigError("style modes need at least one active feature; "
                              "run the BASELINE fusion mode instead")
        if self.fusion is FusionMode.IMAGE and self.image is None:
            raise ConfigError("IMAGE fusion needs an ImagePathConfig")
        if self.style_dim < 1:
            raise ConfigError(f"style_dim must be >= 1, got {self.style_dim}")
        unknown = sorted(set(self.style_features) - set(STYLE_FEATURES))
        if unknown:
            raise ConfigError(f"unknown style features {unknown}")
        if tuple(self.style_features) != tuple(
                f for f in STYLE_FEATURES if f in self.style_features):
            raise ConfigError("style features must be distinct and follow "
                              f"canonical order {STYLE_FEATURES}")


@dataclass
class TokenTagger:
    spec: TaggerSpec
    encoder_params: dict[str, Tensor]
    fusion_params: dict[str, Tensor]

    @classmethod
    def build(cls, spec: TaggerSpec) -> "TokenTagger":
        check_fits_in_memory(spec)
        rngs = {group: np.random.default_rng([spec.encoder.seed, stream])
                for group, stream in _STREAMS.items()}
        fusion_params = {}
        for name, shape in parameter_shapes(spec).items():
            rng = rngs.get(name.split(".")[0])
            if rng is not None:                   # not an encoder tensor
                fusion_params[name] = layoutcore.initial_value(
                    name, shape, rng, spec.encoder.init_std)
        return cls(spec, layoutcore.init_parameters(spec.encoder),
                   fusion_params)

    def parameters(self) -> dict[str, Tensor]:
        return {**self.encoder_params, **self.fusion_params}

    def fused_output(self, inputs: list[ModelInput], rasters=None) -> Tensor:
        """Encoder output enriched per the fusion mode (pre-head).

        `inputs` is a list of chunk inputs and, for IMAGE, `rasters` holds
        one page list per input. The list runs as one packed sequence (see
        layoutcore): the output holds every input's rows back to back, equal
        to per-input forwards.

        IMAGE embeds the tokens first, then computes the image rows
        (`image_rows`: page numbering, backbones, RoIAlign, projection)
        `beside` the encoder (see tensorcore.threads) and adds them to the
        encoder output last.
        """
        inp = pack_inputs(inputs)
        lengths = [i.length for i in inputs]
        spec, enc, fus = self.spec, self.encoder_params, self.fusion_params
        e = layoutcore.embed_tokens(inp, enc, spec.encoder, lengths)
        if spec.fusion is FusionMode.IMAGE:
            with threads.beside(image_rows, inputs, rasters, fus,
                                spec.image) as v:
                L = layoutcore.encoder_forward(e, enc, spec.encoder, lengths)
                return ops.add(L, v())
        L = layoutcore.encoder_forward(e, enc, spec.encoder, lengths)
        if spec.fusion is FusionMode.BASELINE:
            return L
        fuse = fuse_style_sum if spec.fusion is FusionMode.STYLE_SUM \
            else fuse_style_concat
        return fuse(L, inp.style_ids, fus, spec.style_features)

    def forward_logits(self, inputs: list[ModelInput], rasters=None,
                       rng: np.random.Generator | None = None) -> Tensor:
        """Pre-softmax scores, one row per token; inputs as in fused_output.
        Training passes `rng`, which draws the head's dropout."""
        return head_logits(self.fused_output(inputs, rasters),
                           self.fusion_params, self.spec.dropout_rate, rng)

    def predict_probs(self, inputs: list[ModelInput],
                      rasters=None) -> np.ndarray:
        """Inference-mode class probabilities, (total tokens, label_count);
        inputs as in fused_output. One inference call, pinned from
        `threads.SPLIT_MIN_ROWS` rows up (see tensorcore.threads)."""
        rows = sum(i.length for i in inputs)
        with threads.one_blas_thread(rows >= threads.SPLIT_MIN_ROWS):
            return ops.softmax_rows(self.forward_logits(inputs, rasters)).data

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        _check_shapes(arrays, {n: t.data.shape for n, t in params.items()})
        for name, arr in arrays.items():
            params[name].data[...] = arr

    def save(self, path, extra_config: dict | None = None) -> None:
        config = {"spec": self.spec.to_json()}
        if extra_config:
            config.update(extra_config)
        ckpt.save_checkpoint(path, config, self.parameters())

    @classmethod
    def load(cls, path) -> tuple["TokenTagger", dict]:
        config, arrays = ckpt.load_checkpoint(path)
        if "spec" not in config:
            raise CheckpointMismatchError(
                f"{path}: checkpoint config lacks the checkpoint spec")
        try:
            spec = TaggerSpec.from_json(config["spec"])
        except (ConfigError, DataValidationError) as exc:
            raise CheckpointMismatchError(
                f"{path}: unreadable checkpoint spec: {exc}") from None
        check_fits_in_memory(spec)      # before listing every layer
        shapes = parameter_shapes(spec)
        _check_shapes(arrays, shapes)   # before any array becomes a tensor
        enc = {n: engine.parameter(arrays[n]) for n in shapes}
        fus = {n: enc.pop(n) for n in shapes if n.split(".")[0] in _STREAMS}
        return cls(spec, enc, fus), config


# the random stream of each parameter group beside the encoder's stream 0
_STREAMS = {"style": 1, "image": 2, "head": 3}


def parameter_shapes(spec: TaggerSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of the spec's model, in the order
    each group draws them; allocates nothing."""
    shapes = layoutcore.parameter_shapes(spec.encoder)
    if spec.fusion in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        if len(spec.style_vocab_sizes) != len(STYLE_FEATURES):
            raise ConfigError(
                "style modes need a vocab size per style feature; "
                "resolve the spec against a corpus first")
        width = spec.encoder.hidden if spec.fusion is FusionMode.STYLE_SUM \
            else spec.style_dim
        for f in spec.style_features:
            v = spec.style_vocab_sizes[STYLE_FEATURES.index(f)]
            shapes[f"style.{f}"] = (v, width)
    if spec.fusion is FusionMode.IMAGE:
        icfg = spec.image
        c_in, k = icfg.raster_channels, icfg.kernel_size
        for i, c_out in enumerate(icfg.backbone_channels):
            shapes[f"image.backbone.{i}.kernel"] = (c_out, c_in, k, k)
            shapes[f"image.backbone.{i}.bias"] = (c_out,)
            c_in = c_out
        shapes["image.proj.weight"] = (icfg.roi_width, spec.encoder.hidden)
        shapes["image.proj.bias"] = (spec.encoder.hidden,)
    head_in = spec.encoder.hidden
    if spec.fusion is FusionMode.STYLE_CONCAT:
        head_in += len(spec.style_features) * spec.style_dim
    labels = spec.encoder.label_count
    shapes["head.weight"] = (head_in, labels)
    shapes["head.bias"] = (labels,)
    return shapes


def parameter_counts(spec: TaggerSpec) -> dict[str, int]:
    """Name -> element count, in parameter_shapes order, where each
    `layer.0.*` entry counts its tensor in every encoder layer. Every layer
    has the same shapes, so only one is listed: a spec may ask for more
    layers than a table can list."""
    layers = spec.encoder.layers
    one_layer = replace(spec, encoder=replace(spec.encoder, layers=1))
    return {n: math.prod(shape) * (layers if n.startswith("layer.") else 1)
            for n, shape in parameter_shapes(one_layer).items()}


def check_fits_in_memory(spec: TaggerSpec) -> None:
    """ConfigError when the spec's parameters, at 8 bytes each, exceed
    this machine's physical memory; lists one layer and allocates nothing.

    A lower bound: it catches only models whose parameters alone do not
    fit. Training also keeps gradients, Adam's two moments and a best-model
    snapshot (about five times the parameters) plus activations, and a
    process's cgroup memory limit is not read, so a model that passes can
    still fail to allocate. An IMAGE model's pages must fit too
    (check_page_fits_in_memory)."""
    _check_fits(8 * sum(parameter_counts(spec).values()),
                "the model's parameters need", "shrink the model")
    if spec.fusion is FusionMode.IMAGE:
        check_page_fits_in_memory(spec.image.raster_size)


def check_page_fits_in_memory(raster_size: int) -> None:
    """ConfigError when the float64 ink map of one raster_size-square page,
    which backbone_forward builds, exceeds this machine's physical memory."""
    _check_fits(8 * raster_size ** 2, f"the ink map of a {raster_size}-pixel"
                " page needs", "shrink image.raster_size")


def _check_fits(need: int, what: str, remedy: str) -> None:
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"{what} {need / 2**30:.3g} GiB but this machine "
                          f"has {have / 2**30:.3g} GiB of memory; {remedy}")


def _check_shapes(arrays: dict[str, np.ndarray], shapes: dict) -> None:
    """CheckpointMismatchError unless `arrays` has exactly these names and
    shapes."""
    if set(arrays) != set(shapes):
        raise CheckpointMismatchError(
            "parameter names do not match the model: "
            f"{sorted(set(shapes) ^ set(arrays))}")
    for name, arr in arrays.items():
        if arr.shape != shapes[name]:
            raise CheckpointMismatchError(
                f"parameter {name!r}: shape {arr.shape} does not match the "
                f"model's {shapes[name]}")


def with_resolved_sizes(spec: TaggerSpec, word_vocab: int, label_count: int,
                        style_vocab_sizes) -> TaggerSpec:
    """Fill corpus-dependent sizes into a spec template."""
    return replace(spec,
                   encoder=replace(spec.encoder, word_vocab=word_vocab,
                                   label_count=label_count),
                   style_vocab_sizes=tuple(style_vocab_sizes))
