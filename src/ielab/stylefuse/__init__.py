"""Token-representation enrichment: style fusion, image path, classifier."""

from ielab.stylefuse.fusion import (
    FusionMode,
    fuse_style_concat,
    fuse_style_sum,
    head_logits,
)
from ielab.stylefuse.image import (
    ImagePathConfig,
    backbone_forward,
    image_rows,
    roi_align_batch,
)
from ielab.stylefuse.model import TaggerSpec, TokenTagger, with_resolved_sizes

__all__ = [
    "FusionMode", "ImagePathConfig", "TaggerSpec", "TokenTagger",
    "backbone_forward", "fuse_style_concat", "fuse_style_sum",
    "head_logits", "image_rows", "roi_align_batch", "with_resolved_sizes",
]
