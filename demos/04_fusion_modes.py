"""The four token-representation strategies side by side.

Builds the same document under each fusion mode and shows what each one adds:
nothing (BASELINE), style rows summed into the hidden state (STYLE_SUM),
style rows appended after it (STYLE_CONCAT), or RoIAlign-pooled visual
features from a rendered page (IMAGE). Every model holds the same encoder
tensors (`encoder_params`) plus the named tensors its mode adds beside the
classifier head (`fusion_params`: `style.*`, `image.*`, `head.*`).

Run:  python demos/04_fusion_modes.py
"""

import numpy as np

from ielab import pgm, synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.evalsuite import count_parameters
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import (
    FusionMode,
    ImagePathConfig,
    TaggerSpec,
    TokenTagger,
    backbone_forward,
    roi_align_batch,
)
from ielab.stylefuse.model import with_resolved_sizes

docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
    template="INVOICE", n_docs=4, tokens_per_doc=(16, 24), seed=3))
bucket = BucketingConfig()
vocabs = build_vocabularies(docs, bucket)
inp = encode_document(docs[0], vocabs, bucket)
rasters = [pgm.raster_to_input(p.grid) for p in synthdocs.render_pages(docs[0])]

enc = EncoderConfig(word_vocab=2, label_count=1, hidden=32, layers=1,
                    heads=2, seed=9)
template = TaggerSpec(encoder=enc, fusion=FusionMode.BASELINE, style_dim=8,
                      image=ImagePathConfig())

print(f"document {docs[0].id}: {inp.length} tokens, "
      f"{len(vocabs.labels)} labels\n")
for mode in FusionMode:
    spec = with_resolved_sizes(
        TaggerSpec(encoder=enc, fusion=mode, style_dim=8,
                   image=ImagePathConfig()),
        vocabs.word.size, len(vocabs.labels), vocabs.style.size_list())
    model = TokenTagger.build(spec)
    # a forward takes a list of chunks and, for IMAGE, a page list per chunk
    pages = [rasters] if mode is FusionMode.IMAGE else None
    fused = model.fused_output([inp], pages)
    probs = model.predict_probs([inp], pages)
    total = count_parameters(spec).total
    print(f"{mode.value:13s} fused width {fused.data.shape[1]:4d}  "
          f"params {total:8,}  fusion tensors {len(model.fusion_params):2d}  "
          f"row0 sums to {probs[0].sum():.6f}")

# The image path in slow motion: uint8 page -> feature map -> one token's
# pooled window. The pooled grid is what the projection layer sees.
spec = with_resolved_sizes(
    TaggerSpec(encoder=enc, fusion=FusionMode.IMAGE, image=ImagePathConfig()),
    vocabs.word.size, len(vocabs.labels), vocabs.style.size_list())
model = TokenTagger.build(spec)
fmap = backbone_forward(rasters[0], model.fusion_params, spec.image)
print(f"\nraster {rasters[0].shape} {rasters[0].dtype} -> feature map "
      f"{fmap.data.shape}")
tok = docs[0].tokens[1]
r = spec.image.roi_bins
box = inp.coord_ids[:4, 1:2].T.astype(float)
pooled = roi_align_batch(fmap, box, r).data.reshape(-1, r, r)
print(f"RoIAlign over {tok.text!r} box {tuple(int(v) for v in box[0])} -> "
      f"{pooled.shape}; channel-0 bins (randomly initialized backbone):")
with np.printoptions(precision=2):
    print(pooled[0] * 1e4, "(x 1e-4)")
