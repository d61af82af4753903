"""Token tagger assembly: encoder + one fusion mode + classifier head.

Construction is seed-structured so that models differing only in fusion mode
share bitwise-identical encoder initializations: the encoder draws from
stream (seed, 0), style tables from (seed, 1), the image path from (seed, 2),
and the head from (seed, 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ielab import layoutcore
from ielab.docstream import STYLE_FEATURES, ModelInput, pack_inputs
from ielab.errors import CheckpointMismatchError, ConfigError
from ielab.jsonconfig import JsonConfig
from ielab.layoutcore import EncoderConfig, EncoderParameters
from ielab.stylefuse.fusion import (
    ClassifierHead,
    FusionMode,
    StyleTables,
    classify,
    fuse_style_concat,
    fuse_style_sum,
    head_logits,
)
from ielab.stylefuse.image import ImagePathConfig, image_embed_and_fuse
from ielab.tensorcore import checkpoint as ckpt
from ielab.tensorcore import engine, threads
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

    @property
    def style_width(self) -> int:
        return self.encoder.hidden if self.fusion is FusionMode.STYLE_SUM \
            else self.style_dim

    @property
    def head_in_dim(self) -> int:
        if self.fusion is FusionMode.STYLE_CONCAT:
            return self.encoder.hidden + len(self.style_features) * self.style_dim
        return self.encoder.hidden


@dataclass
class TokenTagger:
    spec: TaggerSpec
    encoder_params: EncoderParameters
    style: StyleTables | None = None
    image_params: dict = field(default_factory=dict)
    head: ClassifierHead | None = None

    @classmethod
    def build(cls, spec: TaggerSpec) -> "TokenTagger":
        seed = spec.encoder.seed
        std = spec.encoder.init_std
        enc = layoutcore.init_parameters(spec.encoder)

        style = None
        if spec.fusion in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
            if len(spec.style_vocab_sizes) != len(STYLE_FEATURES):
                raise ConfigError(
                    "style modes need a vocab size per style feature; "
                    "resolve the spec against a corpus first")
            rng = np.random.default_rng([seed, 1])
            tables = {}
            for f in spec.style_features:
                v = spec.style_vocab_sizes[STYLE_FEATURES.index(f)]
                tables[f] = engine.parameter(
                    rng.normal(0.0, std, size=(v, spec.style_width)))
            style = StyleTables(features=spec.style_features, tables=tables,
                                dim=spec.style_width)

        image_params: dict = {}
        if spec.fusion is FusionMode.IMAGE:
            rng = np.random.default_rng([seed, 2])
            icfg = spec.image
            c_in = icfg.raster_channels
            k = icfg.kernel_size
            for i, c_out in enumerate(icfg.backbone_channels):
                image_params[f"image.backbone.{i}.kernel"] = engine.parameter(
                    rng.normal(0.0, std, size=(c_out, c_in, k, k)))
                image_params[f"image.backbone.{i}.bias"] = engine.parameter(
                    np.zeros(c_out))
                c_in = c_out
            image_params["image.proj.weight"] = engine.parameter(
                rng.normal(0.0, std, size=(icfg.roi_width, spec.encoder.hidden)))
            image_params["image.proj.bias"] = engine.parameter(
                np.zeros(spec.encoder.hidden))

        rng = np.random.default_rng([seed, 3])
        head = ClassifierHead(
            weight=engine.parameter(rng.normal(
                0.0, std, size=(spec.head_in_dim, spec.encoder.label_count))),
            bias=engine.parameter(np.zeros(spec.encoder.label_count)),
            dropout_rate=spec.dropout_rate)
        return cls(spec=spec, encoder_params=enc, style=style,
                   image_params=image_params, head=head)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.encoder_params.tensors)
        if self.style is not None:
            for f in self.style.features:
                out[f"style.{f}"] = self.style.tables[f]
        out.update(self.image_params)
        out["head.weight"] = self.head.weight
        out["head.bias"] = self.head.bias
        return out

    def fused_output(self, inputs, rasters=None) -> Tensor:
        """Encoder output enriched per the fusion mode (pre-head).

        `inputs` is one ModelInput with `rasters` its page list, or a list of
        chunk inputs with `rasters` one page list per input. A list runs as
        one packed sequence (see layoutcore): the output holds every input's
        rows back to back, equal to per-input forwards. For IMAGE, each
        distinct page list is numbered once, so a page's feature map is
        computed once per call however many chunks show it.
        """
        if isinstance(inputs, ModelInput):
            inputs, rasters = [inputs], [rasters]
        elif rasters is None:
            rasters = [None] * len(inputs)
        single = len(inputs) == 1
        inp = inputs[0] if single else pack_inputs(inputs)
        lengths = None if single else [i.length for i in inputs]
        e = layoutcore.embed_tokens(inp, self.encoder_params, lengths)
        L = layoutcore.encoder_forward(e, inp.mask, self.encoder_params, lengths)
        mode = self.spec.fusion
        if mode is FusionMode.BASELINE:
            return L
        if mode is FusionMode.STYLE_SUM:
            return fuse_style_sum(L, inp.style_ids, self.style)
        if mode is FusionMode.STYLE_CONCAT:
            return fuse_style_concat(L, inp.style_ids, self.style)
        page_ids, pages = _number_pages(inputs, rasters)
        boxes = np.stack([inp.x1_ids, inp.y1_ids, inp.x2_ids, inp.y2_ids],
                         axis=1).astype(np.float64)
        return image_embed_and_fuse(L, boxes, page_ids, pages,
                                    self.image_params, self.spec.image)

    def forward_logits(self, inputs, rasters=None, training: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        """Pre-softmax scores, one row per token; inputs as in fused_output."""
        return head_logits(self.fused_output(inputs, rasters), self.head,
                           training, rng)

    def predict_probs(self, inputs, rasters=None) -> np.ndarray:
        """Inference-mode class probabilities, (total tokens, label_count);
        inputs as in fused_output. One inference call: from
        `threads.SPLIT_MIN_ROWS` rows up, OpenBLAS runs on one thread
        throughout and the encoder splits its ops over two threads (see
        tensorcore.threads)."""
        rows = inputs.length if isinstance(inputs, ModelInput) \
            else sum(i.length for i in inputs)
        with threads.inference(rows):
            return classify(self.fused_output(inputs, rasters), self.head).data

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(arrays) != set(params):
            missing = set(params) ^ set(arrays)
            raise CheckpointMismatchError(
                f"parameter names do not match the model: {sorted(missing)}")
        for name, arr in arrays.items():
            if params[name].data.shape != arr.shape:
                raise CheckpointMismatchError(
                    f"parameter {name!r}: shape {arr.shape} does not match "
                    f"model shape {params[name].data.shape}")
            params[name].data[...] = arr

    def save(self, path, extra_config: dict | None = None) -> None:
        config = {"spec": self.spec.to_json()}
        if extra_config:
            config.update(extra_config)
        ckpt.save_checkpoint(path, config, self.parameters())

    @classmethod
    def load(cls, path) -> tuple["TokenTagger", dict]:
        config, arrays = ckpt.load_checkpoint(path)
        spec = TaggerSpec.from_json(config["spec"])
        model = cls.build(spec)
        model.restore(arrays)
        return model, config


def _number_pages(inputs: list[ModelInput], rasters: list):
    """Page ids of the packed inputs and the page list they index.

    Each distinct page list (by identity) is appended once, and its inputs'
    page ids are offset by the number of pages listed before it.
    """
    if any(r is None for r in rasters):
        raise ConfigError("IMAGE fusion needs page rasters")
    if len(inputs) == 1:
        return inputs[0].page_ids, rasters[0]
    first: dict[int, int] = {}
    pages: list = []
    page_ids = []
    for inp, r in zip(inputs, rasters):
        if inp.page_ids.max() >= len(r):
            raise ConfigError(
                f"token references page {int(inp.page_ids.max())} but only "
                f"{len(r)} rasters were provided")
        if id(r) not in first:
            first[id(r)] = len(pages)
            pages.extend(r)
        page_ids.append(inp.page_ids + first[id(r)])
    return np.concatenate(page_ids), pages


def with_resolved_sizes(spec: TaggerSpec, word_vocab: int, label_count: int,
                        style_vocab_sizes) -> TaggerSpec:
    """Fill corpus-dependent sizes into a spec template."""
    return replace(spec,
                   encoder=replace(spec.encoder, word_vocab=word_vocab,
                                   label_count=label_count),
                   style_vocab_sizes=tuple(style_vocab_sizes))
