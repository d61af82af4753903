"""Trainable-parameter accounting across fusion modes.

Counts per component, summed over the shape table that builds the model
(`stylefuse.parameter_shapes`), for the desk model and for a full-scale
configuration, plus the ratio arithmetic behind the published model sizes.

Run:  python demos/06_parameter_accounting.py
"""

from dataclasses import replace

from ielab.evalsuite import (
    TABLE1_PARAMS_M,
    count_parameters,
    format_breakdowns,
    table1_consistency,
)
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec

VOCAB_SIZES = (2, 9, 3, 2, 2)   # bold, font(top-8 + other), fontSize, inTable, color

desk = TaggerSpec(
    encoder=EncoderConfig(word_vocab=5000, label_count=13, hidden=64,
                          layers=2, heads=2, seed=0),
    fusion=FusionMode.BASELINE, style_vocab_sizes=VOCAB_SIZES, style_dim=64,
    image=ImagePathConfig())
full = replace(desk, encoder=EncoderConfig(word_vocab=30522, label_count=25,
                                           hidden=768, layers=12, heads=12,
                                           ff_dim=3072, seed=0))

for title, base in (("desk scale", desk), ("full scale", full)):
    rows = {m: count_parameters(replace(base, fusion=m))
            for m in (FusionMode.BASELINE, FusionMode.STYLE_CONCAT,
                      FusionMode.STYLE_SUM, FusionMode.IMAGE)}
    print(f"=== {title} (hidden {base.encoder.hidden}) ===")
    print(format_breakdowns(list(rows.values())))
    print()

# `rows` now holds the full-scale counts
delta = rows[FusionMode.STYLE_SUM].components["style.tables"]
print(f"sum-mode style tables at full scale: {sum(VOCAB_SIZES)} rows x 768 = "
      f"+{delta:,} params, i.e. "
      f"+{100 * delta / (TABLE1_PARAMS_M['style_concat'] * 1e6):.4f}% "
      "of the published base size")

rep = table1_consistency()
print(f"\npublished totals (millions): {TABLE1_PARAMS_M}")
print(f"image vs base:   +{rep['image_more_than_base_pct']:.2f}%  "
      f"(reported as ~{rep['prose_more_pct']}% more)")
print(f"concat vs image: -{rep['concat_less_than_image_pct']:.2f}%  "
      f"(reported as ~{rep['prose_less_pct']}% less)")
print(f"sum minus concat: {rep['sum_minus_concat_m']:.2f}M")
