"""Image-embedding path: tiny conv backbone, RoIAlign, linear projection.

A page is its (C, H, W) uint8 pixel grid (pgm.raster_to_input) up to the
backbone: `backbone_forward` forms the float64 ink map (255 - pixel) / 255,
1 for black and 0 for white, as its first step, so a float page exists only
while one backbone call runs. Three strided conv+GELU stages then build a
feature map; each token's quantized box is pooled from its page's map with
RoIAlign (r x r bins, 2x2 averaged bilinear samples per bin, zero padding
outside the map) and projected to the encoder width (`image_rows`);
TokenTagger.fused_output sums these rows element-wise with the tokens'
encoder output. RoIAlign is linear in the maps, so one sparse
interpolation matrix (a row per token bin, holding its corner weights on its
own page) pools every token of a forward at once.

The image rows do not depend on the encoder, so an inference call may run
them beside it (see tensorcore.threads).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ielab.docstream import ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.jsonconfig import JsonConfig
from ielab.tensorcore import ops
from ielab.tensorcore.engine import ShapeError, Tensor, record


@dataclass(frozen=True)
class ImagePathConfig(JsonConfig):
    raster_channels: int = 1
    raster_size: int = 128                    # square H == W pages
    backbone_channels: tuple[int, ...] = (8, 16, 32)  # a strided stage each
    kernel_size: int = 3
    stride: int = 2
    roi_bins: int = 3                         # r x r output bins

    def __post_init__(self):
        if self.raster_channels != 1:
            raise ConfigError("raster_channels must be 1, as PGM pages have "
                              f"one channel, got {self.raster_channels}")
        for name in ("raster_size", "kernel_size", "stride", "roi_bins"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel_size % 2 == 0:
            raise ConfigError("backbone kernel size must be odd")
        if not self.backbone_channels \
                or min(self.backbone_channels) < 1:
            raise ConfigError("backbone_channels must be a non-empty list of "
                              f"widths >= 1, got {list(self.backbone_channels)}")

    @property
    def feature_channels(self) -> int:
        return self.backbone_channels[-1]

    @property
    def roi_width(self) -> int:
        return self.feature_channels * self.roi_bins * self.roi_bins


def backbone_forward(raster: np.ndarray, params: dict,
                     config: ImagePathConfig) -> Tensor:
    """Strided conv+GELU stages from a (C, H, W) uint8 page to its feature
    map; the page's float64 ink map lives only within this call."""
    if raster.dtype != np.uint8:
        raise ContractError(
            f"a page raster is a uint8 pixel grid, got dtype {raster.dtype}")
    if raster.shape[0] != config.raster_channels:
        raise ShapeError(
            f"raster has {raster.shape[0]} channels, config expects "
            f"{config.raster_channels}")
    pad = config.kernel_size // 2
    x = Tensor((255.0 - raster.astype(np.float64)) / 255.0)
    for i in range(len(config.backbone_channels)):
        kernel = params[f"image.backbone.{i}.kernel"]
        bias = params[f"image.backbone.{i}.bias"]
        x = ops.conv2d(x, kernel, stride=config.stride, padding=pad)
        c_out = kernel.data.shape[0]
        x = ops.add(x, ops.reshape(bias, (c_out, 1, 1)))
        x = ops.gelu(x)
    return x


def _bilinear_weights(ys: np.ndarray, xs: np.ndarray, H: int, W: int):
    """Corner cells r * W + c and weights of zero-padded bilinear sampling.

    Cell (r, c) has its center at (r + 0.5, c + 0.5). Samples every (y, x)
    of the last axes of ys (..., m) and xs (..., n), which broadcast
    otherwise; returns (..., 4 * m * n) arrays. Corners off the map weigh 0.
    """
    def neighbours(coord, n):                  # two cells along one axis
        u = coord - 0.5
        lo = np.floor(u)
        d = u - lo
        idx = lo.astype(np.intp)[..., None] + np.arange(2)
        w = np.stack([1.0 - d, d], axis=-1) * ((idx >= 0) & (idx < n))
        flat = coord.shape[:-1] + (-1,)
        return np.clip(idx, 0, n - 1).reshape(flat), w.reshape(flat)

    rr, wy = neighbours(ys, H)
    cc, wx = neighbours(xs, W)
    cells = rr[..., :, None] * W + cc[..., None, :]
    weights = wy[..., :, None] * wx[..., None, :]
    flat = cells.shape[:-2] + (-1,)
    return cells.reshape(flat), weights.reshape(flat)


def _roi_sample_coords(boxes: np.ndarray, r: int, fh: int, fw: int):
    """Sample coordinates for boxes in [0,1000] space, in feature cells.

    Returns ys (T, r, 1, 2) and xs (T, 1, r, 2): for box t and bin (i, j),
    the bin's two sample rows ys[t, i, 0] and two sample columns xs[t, 0, j].
    """
    b = np.asarray(boxes, dtype=np.float64)
    fx1, fx2 = b[:, 0] * fw / 1000.0, b[:, 2] * fw / 1000.0
    fy1, fy2 = b[:, 1] * fh / 1000.0, b[:, 3] * fh / 1000.0
    bw = (fx2 - fx1) / r
    bh = (fy2 - fy1) / r
    offs = (np.arange(2) + 0.5) / 2.0                      # bin-interior offsets
    steps = np.arange(r)[:, None] + offs[None, :]          # (r, 2)
    ys = fy1[:, None, None] + steps[None] * bh[:, None, None]   # (T, r, 2)
    xs = fx1[:, None, None] + steps[None] * bw[:, None, None]
    return ys[:, :, None, :], xs[:, None, :, :]


def roi_align_batch(fmaps, boxes: np.ndarray, r: int, pages=None) -> Tensor:
    """Pool each box into flattened (C*r*r) channel-major features.

    `fmaps` is one (C, H, W) feature map, or a list of equal-shape maps with
    `pages` giving each box's index into that list. Boxes are (T, 4) arrays
    of (x1, y1, x2, y2) in [0, 1000] page coordinates; degenerate boxes
    reduce to point evaluation. The pooling is one sparse (T*r*r, P*H*W)
    interpolation matrix S applied to the stacked maps: forward S @ F,
    backward S^T @ g, one tape node for all maps.
    """
    if isinstance(fmaps, Tensor):
        fmaps = [fmaps]
    C, H, W = fmaps[0].data.shape
    if any(m.data.shape != (C, H, W) for m in fmaps):
        raise ShapeError("roi_align_batch needs feature maps of one shape")
    T = boxes.shape[0]
    page = np.zeros(T, np.intp) if pages is None else np.asarray(pages, np.intp)
    if page.shape != (T,) or not 0 <= page.min() <= page.max() < len(fmaps):
        raise ShapeError(f"need one page index in [0, {len(fmaps)}) per box")
    ys, xs = _roi_sample_coords(boxes, r, H, W)
    cells, weights = _bilinear_weights(ys, xs, H, W)
    cells += (page * (H * W))[:, None, None, None]
    weights /= 4.0                      # the mean of a bin's 2x2 samples
    # one matrix row per (t, bin_row, bin_col): its 2x2 samples' 4 corners
    S = sparse.csr_array(
        (weights.ravel(), cells.ravel(), np.arange(0, weights.size + 1, 16)),
        shape=(T * r * r, len(fmaps) * H * W))
    F = np.concatenate([m.data.reshape(C, H * W).T for m in fmaps])
    pooled = (S @ F).reshape(T, r * r, C)
    out = np.ascontiguousarray(pooled.transpose(0, 2, 1)).reshape(T, C * r * r)
    return record(Tensor._wrap(out), fmaps, _roi_align_batch_bw, S, (C, H, W))


def _roi_align_batch_bw(g, need, S, shape):
    C, H, W = shape
    gbins = g.reshape(g.shape[0], C, -1).transpose(0, 2, 1)
    dF = S.T @ gbins.reshape(-1, C)                         # (P*H*W, C)
    return tuple(np.ascontiguousarray(dF[p * H * W:(p + 1) * H * W].T)
                 .reshape(shape) if n else None for p, n in enumerate(need))


def image_rows(inputs: list[ModelInput], rasters, params: dict,
               config: ImagePathConfig) -> Tensor:
    """v_i = proj(RoIAlign(feature_map(page_i), box_i)), one row per token.

    `inputs` and `rasters` take the forward's calling form: chunk inputs,
    whose rows come out back to back, and one page list per input, each
    page a (C, H, W) uint8 grid. Each distinct page list (by identity) is
    numbered once, each token's page is checked once, and each page that
    some token reads runs through the backbone once per call, however many
    chunks show it. Backbone, projection, and the upstream encoder all
    train jointly through this path.
    """
    if rasters is None or any(r is None for r in rasters):
        raise ConfigError("IMAGE fusion needs page rasters")
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
    needed, page_of_token = np.unique(np.concatenate(page_ids),
                                      return_inverse=True)
    fmaps = [backbone_forward(pages[p], params, config) for p in needed]
    boxes = np.concatenate([inp.coord_ids[:4] for inp in inputs], axis=1)
    rows = roi_align_batch(fmaps, boxes.T.astype(np.float64),
                           config.roi_bins, page_of_token)
    return ops.linear(rows, params["image.proj.weight"],
                      params["image.proj.bias"])
