"""Token-stream data model for native-PDF-style documents.

A document is an ordered list of tokens, each carrying text, geometry, and
style attributes (bold, font, fontSize, inTable, color) plus an IOB label.
This module ingests/serializes the JSONL schema, quantizes geometry to the
[0, 1000] grid, buckets raw style attributes into small vocabularies, and
encodes documents into the integer-id form the models consume.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ielab.errors import ConfigError, DataValidationError
from ielab.jsonconfig import JsonConfig

LABEL_RE = re.compile(r"^(O|[BI]-[A-Z0-9_]+)$")

# Fixed style-feature order; serialized with every vocabulary and checkpoint.
STYLE_FEATURES = ("bold", "font", "fontSize", "inTable", "color")

PAD_ID = 0
UNK_ID = 1
COORD_VOCAB = 1001  # ids 0..1000 inclusive


@dataclass
class TokenRecord:
    text: str
    page: int
    bbox: tuple[float, float, float, float]
    bold: bool
    font: str
    font_size: float
    in_table: bool
    color: tuple[int, int, int]
    label: str


@dataclass
class DocumentRecord:
    id: str
    pages: list[tuple[float, float]]
    tokens: list[TokenRecord]


@dataclass(frozen=True)
class BucketingConfig(JsonConfig):
    """Hand-crafted clustering of raw style attributes.

    color: BLACK when every RGB channel is below `black_max_channel`.
    fontSize: the token size / document median-size ratio falls into
    [0, b0), [b0, b1], (b1, inf) for bounds (b0, b1).
    font: the `font_top_k` most frequent names survive; the rest map to OTHER.
    """

    black_max_channel: int = 64
    fontsize_cluster_bounds: tuple[float, float] = (1.2, 2.0)
    font_top_k: int = 8

    def __post_init__(self):
        b0, b1 = self.fontsize_cluster_bounds
        if not b0 < b1:
            raise ConfigError(f"fontsize bounds must increase, got {b0}, {b1}")
        if self.font_top_k < 1:
            raise ConfigError("font_top_k must be >= 1")


@dataclass
class StyleVocabulary:
    """Per-feature value maps, in STYLE_FEATURES order."""

    font_index: dict[str, int]  # top-k fonts; OTHER takes the last index

    @property
    def other_font_id(self) -> int:
        return len(self.font_index)

    def sizes(self) -> dict[str, int]:
        return {"bold": 2, "font": len(self.font_index) + 1,
                "fontSize": 3, "inTable": 2, "color": 2}

    def size_list(self) -> list[int]:
        s = self.sizes()
        return [s[f] for f in STYLE_FEATURES]

    def to_json(self) -> dict:
        return {"feature_order": list(STYLE_FEATURES),
                "font_index": self.font_index,
                "sizes": self.sizes()}

    @classmethod
    def from_json(cls, obj: dict) -> "StyleVocabulary":
        if tuple(obj["feature_order"]) != STYLE_FEATURES:
            raise ConfigError(f"unexpected style feature order {obj['feature_order']}")
        return cls(font_index={k: int(v) for k, v in obj["font_index"].items()})


@dataclass
class WordVocabulary:
    """Lowercased word->id map with PAD=0 and UNK=1 reserved."""

    index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.index) + 2

    def id_of(self, word: str) -> int:
        return self.index.get(word.lower(), UNK_ID)

    def to_json(self) -> dict:
        return {"pad_id": PAD_ID, "unk_id": UNK_ID, "index": self.index}

    @classmethod
    def from_json(cls, obj: dict) -> "WordVocabulary":
        return cls(index={k: int(v) for k, v in obj["index"].items()})


@dataclass
class Vocabularies:
    word: WordVocabulary
    style: StyleVocabulary
    labels: dict[str, int]

    def label_names(self) -> list[str]:
        return [t for t, _ in sorted(self.labels.items(), key=lambda kv: kv[1])]

    def to_json(self) -> dict:
        return {"word": self.word.to_json(), "style": self.style.to_json(),
                "labels": self.labels}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabularies":
        return cls(word=WordVocabulary.from_json(obj["word"]),
                   style=StyleVocabulary.from_json(obj["style"]),
                   labels={k: int(v) for k, v in obj["labels"].items()})


@dataclass
class ModelInput:
    """Integer-encoded document ready for the encoder.

    All sequences share length T. style_ids rows follow STYLE_FEATURES order.
    page_ids carries each token's page so the image path can pick its raster.
    """

    word_ids: np.ndarray
    x1_ids: np.ndarray
    y1_ids: np.ndarray
    x2_ids: np.ndarray
    y2_ids: np.ndarray
    w_ids: np.ndarray
    h_ids: np.ndarray
    pos1d_ids: np.ndarray
    style_ids: np.ndarray      # (5, T)
    label_ids: np.ndarray
    mask: np.ndarray           # bool
    page_ids: np.ndarray

    @property
    def length(self) -> int:
        return len(self.word_ids)

    def copy(self) -> "ModelInput":
        return ModelInput(**{k: getattr(self, k).copy() for k in _INPUT_FIELDS})


_INPUT_FIELDS = ("word_ids", "x1_ids", "y1_ids", "x2_ids", "y2_ids", "w_ids",
                 "h_ids", "pos1d_ids", "style_ids", "label_ids", "mask",
                 "page_ids")


def pack_inputs(inputs: list[ModelInput]) -> ModelInput:
    """Inputs joined back to back along the token axis, in order."""
    return ModelInput(**{k: np.concatenate([getattr(i, k) for i in inputs],
                                           axis=-1) for k in _INPUT_FIELDS})


def _finite(value) -> bool:
    """A JSON number (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


def _validate_token(tok, doc_id: str, page_count: int, idx: int) -> TokenRecord:
    def fail(msg):
        raise DataValidationError(f"document {doc_id!r}, token {idx}: {msg}")

    if not isinstance(tok, dict):
        fail(f"expected a JSON object, got {tok!r}")
    for key in ("text", "page", "bbox", "bold", "font", "font_size",
                "in_table", "color", "label"):
        if key not in tok:
            fail(f"missing field {key!r}")
    page = tok["page"]
    if not isinstance(page, int) or isinstance(page, bool) \
            or not 0 <= page < page_count:
        fail(f"field 'page' = {page!r} outside 0..{page_count - 1}")
    bbox = tok["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4 \
            or not all(_finite(v) for v in bbox):
        fail(f"field 'bbox' must be 4 finite numbers, got {bbox!r}")
    x1, y1, x2, y2 = (float(v) for v in bbox)
    if x1 > x2 or y1 > y2:
        fail(f"field 'bbox' is inverted: {bbox}")
    fs = tok["font_size"]
    if not _finite(fs) or fs <= 0:
        fail(f"field 'font_size' must be a finite number > 0, got {fs!r}")
    color = tok["color"]
    if not isinstance(color, list) or len(color) != 3 or any(
            not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= 255
            for c in color):
        fail(f"field 'color' must be three 0..255 ints, got {color!r}")
    label = tok["label"]
    if not isinstance(label, str) or not LABEL_RE.fullmatch(label):
        fail(f"field 'label' = {label!r} is not valid IOB")
    return TokenRecord(
        text=str(tok["text"]), page=page, bbox=(x1, y1, x2, y2),
        bold=bool(tok["bold"]), font=str(tok["font"]), font_size=float(fs),
        in_table=bool(tok["in_table"]), color=tuple(color), label=label)


def _clamp_bbox(tok: TokenRecord, page: tuple[float, float]) -> TokenRecord:
    w, h = page
    x1, y1, x2, y2 = tok.bbox
    clamped = (min(max(x1, 0.0), w), min(max(y1, 0.0), h),
               min(max(x2, 0.0), w), min(max(y2, 0.0), h))
    return tok if clamped == tok.bbox else replace(tok, bbox=clamped)


def parse_documents(data: bytes) -> list[DocumentRecord]:
    """Parse one JSON document object per line; order is preserved.

    Document ids must be unique: folds and rasters are keyed by id.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"corpus is not UTF-8: {exc}") from None
    docs = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise DataValidationError(f"line {lineno}: malformed JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataValidationError(f"line {lineno}: expected a JSON object")
        doc_id = obj.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            raise DataValidationError(f"line {lineno}: missing document id")
        if doc_id in first_line:
            raise DataValidationError(
                f"line {lineno}: document id {doc_id!r} already used on line "
                f"{first_line[doc_id]}")
        first_line[doc_id] = lineno
        pages = obj.get("pages")
        if not isinstance(pages, list) or not pages or not all(
                isinstance(p, dict) and _finite(p.get("width"))
                and _finite(p.get("height")) and p["width"] > 0
                and p["height"] > 0 for p in pages):
            raise DataValidationError(
                f"line {lineno}: document {doc_id!r} needs positive page sizes")
        pages = [(float(p["width"]), float(p["height"])) for p in pages]
        raw_tokens = obj.get("tokens")
        if not isinstance(raw_tokens, list) or not raw_tokens:
            raise DataValidationError(
                f"line {lineno}: document {doc_id!r} has no tokens")
        tokens = []
        for i, raw_tok in enumerate(raw_tokens):
            tok = _validate_token(raw_tok, doc_id, len(pages), i)
            tokens.append(_clamp_bbox(tok, pages[tok.page]))
        docs.append(DocumentRecord(id=doc_id, pages=pages, tokens=tokens))
    return docs


def serialize_documents(docs: list[DocumentRecord]) -> bytes:
    lines = []
    for doc in docs:
        obj = {
            "id": doc.id,
            "pages": [{"width": w, "height": h} for w, h in doc.pages],
            "tokens": [{
                "text": t.text, "page": t.page, "bbox": list(t.bbox),
                "bold": t.bold, "font": t.font, "font_size": t.font_size,
                "in_table": t.in_table, "color": list(t.color),
                "label": t.label,
            } for t in doc.tokens],
        }
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def normalize_bbox(bbox, page_size):
    """Quantize page-unit boxes to the [0, 1000] grid as (X1,Y1,X2,Y2,W,H).

    One box (x1, y1, x2, y2) on a (width, height) page gives a tuple of six
    ints. A (4, T) array of boxes with a (2, T) array of their page sizes
    gives a (6, T) int64 array. Coordinates round half to even.
    """
    box = np.asarray(bbox, dtype=np.float64)
    extent = np.asarray(page_size, dtype=np.float64)
    if not (extent > 0).all():
        raise ConfigError(
            f"page sizes must be positive, got a side of {extent.min()}")
    q = np.clip(np.rint(1000.0 * box / np.concatenate([extent, extent])),
                0, 1000).astype(np.int64)
    out = np.concatenate([q, q[2:] - q[:2]])
    return tuple(out.tolist()) if out.ndim == 1 else out


@dataclass
class StyleStats:
    median_font_size: float
    font_counts: Counter = field(default_factory=Counter)


def document_style_stats(doc: DocumentRecord) -> StyleStats:
    """Per-document statistics needed by bucketing (lower median for even p)."""
    sizes = sorted(t.font_size for t in doc.tokens)
    median = sizes[(len(sizes) - 1) // 2]
    return StyleStats(median_font_size=median,
                      font_counts=Counter(t.font for t in doc.tokens))


BLACK, NOT_BLACK = 0, 1


def bucket_styles(tokens, stats: StyleStats, cfg: BucketingConfig,
                  font_index: dict[str, int] | None = None):
    """Map raw style attributes to the 5 bucket indices, STYLE_FEATURES order.

    `tokens` is one TokenRecord, giving a tuple of five ints, or a sequence
    of a document's tokens, giving a (5, T) int64 array. `font_index` is the
    corpus vocabulary's font map; when omitted, fonts are ranked by frequency
    within the document's own stats (same tie rule).
    """
    one = isinstance(tokens, TokenRecord)
    toks = [tokens] if one else tokens
    b0, b1 = cfg.fontsize_cluster_bounds
    ratio = np.array([t.font_size for t in toks], dtype=np.float64) \
        / stats.median_font_size
    size_bucket = np.where(ratio < b0, 0, np.where(ratio <= b1, 1, 2))
    color = np.array([max(t.color) for t in toks])
    color_bucket = np.where(color < cfg.black_max_channel, BLACK, NOT_BLACK)
    if font_index is None:
        ranked = [f for f, _ in sorted(stats.font_counts.items(),
                                       key=lambda kv: (-kv[1], kv[0]))]
        font_index = {f: i for i, f in enumerate(ranked[:cfg.font_top_k])}
    other = len(font_index)                     # last id = OTHER
    out = np.array([[t.bold for t in toks],
                    [font_index.get(t.font, other) for t in toks],
                    size_bucket,
                    [t.in_table for t in toks],
                    color_bucket], dtype=np.int64).reshape(5, len(toks))
    return tuple(out[:, 0].tolist()) if one else out


def build_vocabularies(training_docs: list[DocumentRecord],
                       cfg: BucketingConfig,
                       max_words: int = 5000) -> Vocabularies:
    """Word, style, and label maps from the training split only."""
    if not training_docs:
        raise ConfigError("cannot build vocabularies from an empty corpus")
    word_counts: Counter = Counter()
    font_counts: Counter = Counter()
    labels = set()
    for doc in training_docs:
        for t in doc.tokens:
            word_counts[t.text.lower()] += 1
            font_counts[t.font] += 1
            labels.add(t.label)
    ranked_words = sorted(word_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = ranked_words[:max(0, max_words - 2)]
    word_index = {w: i + 2 for i, (w, _) in enumerate(keep)}
    ranked_fonts = [f for f, _ in sorted(font_counts.items(),
                                         key=lambda kv: (-kv[1], kv[0]))]
    font_index = {f: i for i, f in enumerate(ranked_fonts[:cfg.font_top_k])}
    labels.add("O")
    label_map = {"O": 0}
    for tag in sorted(labels - {"O"}):
        label_map[tag] = len(label_map)
    return Vocabularies(word=WordVocabulary(index=word_index),
                        style=StyleVocabulary(font_index=font_index),
                        labels=label_map)


def encode_document(doc: DocumentRecord, vocabs: Vocabularies,
                    cfg: BucketingConfig,
                    strict_labels: bool = True) -> ModelInput:
    """Turn a document into the integer-id sequences the encoder consumes.

    With strict_labels=False, labels outside the vocabulary encode as O; use
    this for prediction-time encoding where gold tags are scored separately.
    """
    toks = doc.tokens
    pages = np.array([t.page for t in toks], dtype=np.int64)
    extents = np.array(doc.pages, dtype=np.float64)[pages].T       # (2, T)
    boxes = np.array([t.bbox for t in toks], dtype=np.float64).reshape(-1, 4)
    coords = normalize_bbox(boxes.T, extents)
    style = bucket_styles(toks, document_style_stats(doc), cfg,
                          font_index=vocabs.style.font_index)
    label_ids = []
    for tok in toks:
        label = vocabs.labels.get(tok.label)
        if label is None:
            if strict_labels:
                raise DataValidationError(
                    f"document {doc.id!r}: label {tok.label!r} not in "
                    "vocabulary")
            label = vocabs.labels["O"]
        label_ids.append(label)
    T = len(toks)
    return ModelInput(
        word_ids=np.array([vocabs.word.id_of(t.text) for t in toks],
                          dtype=np.int64),
        x1_ids=coords[0], y1_ids=coords[1], x2_ids=coords[2], y2_ids=coords[3],
        w_ids=coords[4], h_ids=coords[5],
        pos1d_ids=np.arange(T, dtype=np.int64),
        style_ids=style, label_ids=np.array(label_ids, dtype=np.int64),
        mask=np.ones(T, dtype=bool), page_ids=pages)
