"""Trainable-parameter accounting per fusion mode.

Counts are read from the model's shape table, `stylefuse.parameter_shapes`,
the one that `TokenTagger.build` and `load` use, so they allocate nothing and
cannot drift from the built model. Each parameter falls into one component
by its name's prefix. Also reproduces the published full-scale ratio
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ielab.stylefuse.fusion import FusionMode
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


def table1_consistency() -> dict:
    """Check the published parameter counts against the prose ratio claims."""
    c = TABLE1_PARAMS_M
    image, concat, summ = c["image"], c["style_concat"], c["style_sum"]
    return {
        "image_more_than_base_pct": 100.0 * (image / concat - 1.0),
        "prose_more_pct": 44.3,
        "concat_less_than_image_pct": 100.0 * (1.0 - concat / image),
        "prose_less_pct": 30.7,
        "sum_minus_concat_m": round(summ - concat, 6),
    }


def format_breakdowns(breakdowns: list[ParamBreakdown]) -> str:
    """Table-1-style text table of parameter totals per mode."""
    lines = [f"{'component':<24}" + "".join(f"{b.mode.value:>16}" for b in breakdowns)]
    for name in dict.fromkeys(n for b in breakdowns for n in b.components):
        row = f"{name:<24}"
        for b in breakdowns:
            row += f"{b.components.get(name, 0):>16,}"
        lines.append(row)
    lines.append(f"{'total':<24}" + "".join(f"{b.total:>16,}" for b in breakdowns))
    return "\n".join(lines)
