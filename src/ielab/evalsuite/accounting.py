"""Trainable-parameter accounting per fusion mode.

Counts are read from the model's shape table, `stylefuse.parameter_shapes`,
the one that `TokenTagger.build` and `load` use, so they allocate nothing and
cannot drift from the built model. Each parameter falls into one component
by its name's prefix. `parameter_report` tabulates every mode at desk and at
full scale and redoes the published full-scale ratio arithmetic; it is the
text of `ielab params`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ielab.docstream import STYLE_FEATURES, style_table_sizes
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse.fusion import FusionMode
from ielab.stylefuse.image import ImagePathConfig
from ielab.stylefuse.model import TaggerSpec, parameter_counts

# Published full-scale trainable-parameter totals (millions).
TABLE1_PARAMS_M = {
    "image": 163.74,
    "style_sum": 113.50,
    "style_concat": 113.49,
}

# component of each parameter-name prefix
_COMPONENTS = {
    "word_table": "embeddings.word",
    "pos1d": "embeddings.pos1d",
    "pos2d.": "embeddings.pos2d",
    "embed_ln.": "embeddings.layer_norm",
    "layer.": "encoder.layers",
    "style.": "style.tables",
    "image.backbone.": "image.backbone",
    "image.proj.": "image.projection",
    "head.": "head",
}


@dataclass
class ParamBreakdown:
    mode: FusionMode
    components: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.components.values())


def count_parameters(spec: TaggerSpec) -> ParamBreakdown:
    """Elements per component, in parameter_shapes order; reads one
    encoder layer's shapes (see stylefuse.model.parameter_counts)."""
    comps: dict[str, int] = {}
    for name, n in parameter_counts(spec).items():
        label = next(c for p, c in _COMPONENTS.items() if name.startswith(p))
        comps[label] = comps.get(label, 0) + n
    return ParamBreakdown(mode=spec.fusion, components=comps)


def parameter_report(model: TaggerSpec, font_top_k: int,
                     max_seq_len: int) -> str:
    """Table-1-style parameter tables of every fusion mode for `model`, at
    desk size (5000 words, 13 labels) and at full scale (LayoutLM-base
    widths), then the published totals' ratios beside the paper's prose.

    Every mode is accounted, so the style modes get every feature when
    `model` lists none, and tables as large as a corpus can make them when
    it keeps `font_top_k` fonts. The desk position table is `max_seq_len`
    long, as train_fold builds it.
    """
    sizes = tuple(style_table_sizes(font_top_k))
    model = replace(model, style_vocab_sizes=sizes,
                    encoder=replace(model.encoder, max_seq_len=max_seq_len),
                    style_features=model.style_features or STYLE_FEATURES,
                    image=model.image or ImagePathConfig())
    desk = replace(model, encoder=replace(model.encoder, word_vocab=5000,
                                          label_count=13))
    full = replace(model, encoder=EncoderConfig(word_vocab=30522, label_count=25,
                                                hidden=768, layers=12, heads=12,
                                                ff_dim=3072, seed=0))
    lines = []
    for title, base in (("desk configuration", desk),
                        ("full-scale accounting configuration", full)):
        counts = [count_parameters(replace(base, fusion=m))
                  for m in (FusionMode.BASELINE, FusionMode.STYLE_CONCAT,
                            FusionMode.STYLE_SUM, FusionMode.IMAGE)]
        lines += [f"# {title} (hidden={base.encoder.hidden})",
                  f"{'component':<24}" + "".join(f"{b.mode.value:>16}"
                                                 for b in counts)]
        for name in dict.fromkeys(n for b in counts for n in b.components):
            lines.append(f"{name:<24}" + "".join(
                f"{b.components.get(name, 0):>16,}" for b in counts))
        lines += [f"{'total':<24}" + "".join(f"{b.total:>16,}" for b in counts),
                  ""]
    # counts[2], the full-scale STYLE_SUM model, adds only its tables
    delta = counts[2].components["style.tables"]
    image, concat, summ = (TABLE1_PARAMS_M[k]
                           for k in ("image", "style_concat", "style_sum"))
    return "\n".join(lines + [
        f"full-scale style-sum delta: +{delta:,} params = "
        f"+{100.0 * delta / (concat * 1e6):.3f}% of the published "
        f"{concat:.2f}M base",
        f"published image model vs base: +{100.0 * (image / concat - 1.0):.2f}% "
        "(prose: 44.3% more)",
        f"published concat vs image: -{100.0 * (1.0 - concat / image):.2f}% "
        "(prose: 30.7% less)",
        f"published sum minus concat: {summ - concat:.2f}M"])
