"""Closed-form trainable-parameter accounting per fusion mode.

The formulas here are written from the component shapes (tables V x d, linear
d_in x d_out + d_out, layer norm 2h, conv C_out*C_in*k^2 + C_out) and never
inspect a constructed model; tests assert they equal actual element counts
exactly. Also reproduces the published full-scale ratio arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ielab.docstream import COORD_VOCAB, STYLE_FEATURES
from ielab.stylefuse.fusion import FusionMode
from ielab.stylefuse.model import TaggerSpec

# Published full-scale trainable-parameter totals (millions).
TABLE1_PARAMS_M = {
    "image": 163.74,
    "style_sum": 113.50,
    "style_concat": 113.49,
}


@dataclass
class ParamBreakdown:
    mode: FusionMode
    components: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.components.values())


def count_parameters(spec: TaggerSpec) -> ParamBreakdown:
    enc = spec.encoder
    h, ff = enc.hidden, enc.ff
    comps: dict[str, int] = {
        "embeddings.word": enc.word_vocab * h,
        "embeddings.pos1d": enc.max_seq_len * h,
        "embeddings.pos2d": 6 * COORD_VOCAB * h,
        "embeddings.layer_norm": 2 * h,
        "encoder.layers": enc.layers * (
            4 * (h * h + h)          # attention q, k, v, o projections
            + 2 * (2 * h)            # two layer norms
            + (h * ff + ff)          # feed-forward in
            + (ff * h + h)),         # feed-forward out
    }
    if spec.fusion in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        width = spec.style_width
        comps["style.tables"] = sum(
            spec.style_vocab_sizes[STYLE_FEATURES.index(f)] * width
            for f in spec.style_features)
    if spec.fusion is FusionMode.IMAGE:
        icfg = spec.image
        c_in = icfg.raster_channels
        backbone = 0
        for c_out in icfg.backbone_channels:
            backbone += c_out * c_in * icfg.kernel_size ** 2 + c_out
            c_in = c_out
        comps["image.backbone"] = backbone
        comps["image.projection"] = icfg.roi_width * h + h
    comps["head"] = spec.head_in_dim * enc.label_count + enc.label_count
    return ParamBreakdown(mode=spec.fusion, components=comps)


def style_sum_fullscale_delta(hidden: int = 768,
                              vocab_sizes=(2, 9, 3, 2, 2),
                              base_params: float = TABLE1_PARAMS_M["style_concat"] * 1e6,
                              ) -> dict:
    """Added table parameters of sum-mode style embeddings at full scale,
    relative to the published base model size."""
    delta = sum(vocab_sizes) * hidden
    return {"delta_params": delta, "base_params": base_params,
            "delta_pct": 100.0 * delta / base_params}


def table1_consistency(constants_m: dict | None = None) -> dict:
    """Check the published parameter counts against the prose ratio claims."""
    c = dict(TABLE1_PARAMS_M if constants_m is None else constants_m)
    image, concat, summ = c["image"], c["style_concat"], c["style_sum"]
    return {
        "constants_m": c,
        "image_more_than_base_pct": 100.0 * (image / concat - 1.0),
        "prose_more_pct": 44.3,
        "concat_less_than_image_pct": 100.0 * (1.0 - concat / image),
        "prose_less_pct": 30.7,
        "sum_minus_concat_m": round(summ - concat, 6),
    }


def format_breakdowns(breakdowns: list[ParamBreakdown]) -> str:
    """Table-1-style text table of parameter totals per mode."""
    lines = [f"{'component':<24}" + "".join(f"{b.mode.value:>16}" for b in breakdowns)]
    names: list[str] = []
    for b in breakdowns:
        for name in b.components:
            if name not in names:
                names.append(name)
    for name in names:
        row = f"{name:<24}"
        for b in breakdowns:
            row += f"{b.components.get(name, 0):>16,}"
        lines.append(row)
    lines.append(f"{'total':<24}" + "".join(f"{b.total:>16,}" for b in breakdowns))
    return "\n".join(lines)
