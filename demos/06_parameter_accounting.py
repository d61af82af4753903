"""Trainable-parameter accounting across fusion modes.

Prints the parameter report that `ielab params` prints, for a desk model
(hidden 64, 2 layers, 2 heads, 8 fonts, a 512-token window): counts per
component, summed over the shape table that builds the model
(`stylefuse.parameter_shapes`), at desk size and at full scale, then the
ratio arithmetic behind the published model sizes.

Run:  python demos/06_parameter_accounting.py
"""

from ielab.evalsuite import parameter_report
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, TaggerSpec

desk = TaggerSpec(encoder=EncoderConfig(word_vocab=2, label_count=1, hidden=64,
                                        layers=2, heads=2, seed=0),
                  fusion=FusionMode.BASELINE)
print(parameter_report(desk, font_top_k=8, max_seq_len=512))
