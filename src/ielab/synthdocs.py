"""Seeded generator of labeled, styled synthetic documents.

Three templates mimic the qualitative structure of trade confirmations, fee
schedules, and invoices: entity fields are introduced by keyword tokens (with
some probability), entity values come from shared pools (decimals, integers,
dates, codes, names), and distractor runs reuse the same pools with O labels.
Style attributes carry the configured correlations: entity-initial tokens are
bold, amount-like fields live in a table band, names can take larger fonts,
and totals can be colored. Setting every correlation probability equal to the
noise rate makes all style features label-independent.

Everything is a pure function of (config, seed): same seed, same bytes. The
order of the random draws is frozen: every recorded seed, F1 floor and
benchmark baseline depends on it, and hash tests pin the corpus bytes, the
page rasters and the document encodings of fixed configurations. Each
document draws from its own PCG64 stream, read in raw 64-bit blocks by
`_Draws`, whose `random` and `integers` return exactly what
`Generator.random` and `Generator.integers` return from the same stream, in
the same order, without a call into numpy per draw.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ielab.docstream import DocumentRecord, TokenRecord
from ielab.errors import ConfigError
from ielab.jsonconfig import JsonConfig

PAGE = 1000.0  # fixed logical page; normalize_bbox then maps 1:1 onto [0,1000]
ROW_HEIGHT = 28.0

FILLER_WORDS = (
    "the of to and in for on with as by at from this that are is was were be "
    "been has have had not all any each other such no nor only own same so "
    "than too very can will just should now please refer herein thereof "
    "pursuant subject terms agreement between parties hereby shall may must "
    "upon within following above below per under over further notice period "
    "business day days settlement payment amount due net gross final interim "
    "statement summary details information reference regarding confirmation "
    "document transaction executed cleared instructed booked processed "
    "received issued signed authorized approved standard applicable relevant "
    "respective corresponding additional previous current effective value "
    "delivery instruction account holder beneficiary institution office "
    "department operations services desk team manager officer contact address "
    "telephone email attention copy original version page section clause "
    "annex schedule appendix note remark comment description item line entry "
    "record field category type status state condition basis method manner "
    "purpose scope limit threshold minimum maximum average estimated actual "
    "provisional revised updated amended restated supplemental general "
    "special particular certain specified stated mentioned listed shown "
    "attached enclosed related consolidated combined aggregate allocated "
    "outstanding remaining initial total partial full half quarter annual "
    "monthly weekly daily prior subsequent immediate deferred instant"
).split()

DECIMALS = tuple(f"{n}.{d:02d}" for n in (0, 1, 2, 4, 7, 12, 25, 49, 80, 125,
                                          370, 999)
                 for d in (5, 25, 50, 75))
INTEGERS = tuple(str(n) for n in (1, 2, 5, 10, 20, 25, 40, 50, 75, 100, 150,
                                  200, 250, 400, 500, 750, 1000, 1200, 1500,
                                  2000, 2500, 4000, 5000, 7500, 10000, 12000,
                                  15000, 20000, 25000, 50000))
DATES = tuple(f"2021-{m:02d}-{d:02d}" for m in range(1, 13) for d in (3, 17, 28))
CODES = tuple(f"QX-{1000 + 37 * i}" for i in range(40))
IBANS = tuple(f"FR76-{3000 + 13 * i}" for i in range(30))
NAMES = ("atlas borel castell draper ellington farrow gideon halloway irving "
         "jasper keller lattimore merton norwood oakes pemberton quill "
         "rutherford sinclair thane underwood vexley whitcombe yarrow zeller "
         "ashford blakely crane dunmore everett").split()

POOLS = {"decimals": DECIMALS, "integers": INTEGERS, "dates": DATES,
         "codes": CODES, "ibans": IBANS, "names": NAMES}
DISTRACTOR_POOLS = ("decimals", "integers", "dates", "codes", "names")

FONT_POOL = ("Helvetica", "Times", "Courier", "Verdana", "Georgia", "Garamond")
COLOR_PALETTE = ((200, 30, 30), (30, 90, 200), (220, 120, 0), (120, 30, 160))
BLACKISH = ((0, 0, 0), (20, 20, 20), (40, 40, 40))


@dataclass(frozen=True)
class FieldClass:
    name: str
    pool: str
    span: tuple[int, int]
    keywords: tuple[str, ...]
    weight: float
    in_table: bool = False
    large_font: bool = False
    colored: bool = False


@dataclass(frozen=True)
class Template:
    name: str
    classes: tuple[FieldClass, ...]


TEMPLATES = {
    "TRADECONF": Template("TRADECONF", (
        FieldClass("TRADE_PRICE", "decimals", (1, 2), ("price", "px"), 0.22,
                   in_table=True),
        FieldClass("TRADE_VOLUME", "integers", (1, 1), ("volume", "qty"), 0.22,
                   in_table=True),
        FieldClass("CONTRACT", "codes", (1, 2), ("contract", "ref"), 0.16),
        FieldClass("BROKER", "names", (1, 3), ("broker", "agent"), 0.16),
        FieldClass("EXPIRY_DATE", "dates", (1, 1), ("expiry", "maturity"), 0.12),
        FieldClass("BUYSELL", "buysell", (1, 1), ("side",), 0.12),
    )),
    "FEESCHEDULE": Template("FEESCHEDULE", (
        FieldClass("RATE", "decimals", (1, 2), ("rate",), 0.25, in_table=True),
        FieldClass("MARGIN", "decimals", (1, 1), ("margin",), 0.25, in_table=True),
        FieldClass("CLIENT_NAME", "names", (1, 3), ("client",), 0.20,
                   large_font=True),
        FieldClass("BRANCH_NAME", "names", (1, 2), ("branch",), 0.15,
                   large_font=True),
        FieldClass("APPLICATION_DATE", "dates", (1, 1), ("dated",), 0.15),
    )),
    "INVOICE": Template("INVOICE", (
        FieldClass("TOTAL", "decimals", (1, 2), ("total", "due"), 0.20,
                   colored=True),
        FieldClass("INVOICENUMBER", "codes", (1, 2), ("invoice",), 0.15,
                   in_table=True),
        FieldClass("ACCOUNTNUMBER", "codes", (1, 1), ("account",), 0.15,
                   in_table=True),
        FieldClass("IBAN", "ibans", (1, 1), ("iban",), 0.10, in_table=True),
        FieldClass("COMPANYNAME", "names", (1, 3), ("company",), 0.15),
        FieldClass("ADDRESS", "fillers", (3, 6), ("address",), 0.15),
        FieldClass("DOCUMENTDATE", "dates", (1, 1), ("date",), 0.10),
    )),
}

BASE_FONT_SIZE = 10.0
LARGE_FONT_SIZE = 15.0   # ratio 1.5 -> middle size bucket
HUGE_FONT_SIZE = 25.0    # ratio 2.5 -> top size bucket


@dataclass(frozen=True)
class GeneratorConfig(JsonConfig):
    template: str = "TRADECONF"
    n_docs: int = 100
    tokens_per_doc: tuple[int, int] = (24, 44)
    p_bold_entity: float = 0.9
    p_table_amount: float = 0.9
    p_largefont_name: float = 0.9
    p_color_total: float = 0.9
    noise_rate: float = 0.05
    keyword_rate: float = 0.65
    field_rate: float = 0.5
    distractor_rate: float = 0.35
    filler_vocab: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ConfigError(f"unknown template {self.template!r}; "
                              f"choose from {sorted(TEMPLATES)}")
        if self.n_docs < 1:
            raise ConfigError("n_docs must be >= 1")
        if self.filler_vocab < 1:
            raise ConfigError(
                f"filler_vocab must be >= 1, got {self.filler_vocab}")
        if self.seed < 0:
            raise ConfigError(f"generator seed must be >= 0, got {self.seed}")
        lo, hi = self.tokens_per_doc
        if lo < 8 or hi < lo:
            raise ConfigError(
                f"token budget {self.tokens_per_doc} is too small for the "
                "template (need at least 8 tokens per document)")
        if hi - lo >= 2 ** 32:
            raise ConfigError(f"tokens_per_doc {[lo, hi]} spans more than "
                              "2**32 budgets, more than one draw picks from")
        for name in ("p_bold_entity", "p_table_amount", "p_largefont_name",
                     "p_color_total", "noise_rate", "keyword_rate",
                     "field_rate", "distractor_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {v}")


@dataclass
class _Seg:
    kind: str                # "field" | "distractor" | "filler" | "header"
    texts: list
    labels: list
    cls: FieldClass | None = None


def _cdf(weights) -> list[float]:
    """Normalised cumulative weights, built exactly as `Generator.choice`
    builds them from `p`, so `bisect_right(cdf, draws.random())` is the draw
    `rng.choice(len(weights), p=weights)` would make from the same stream."""
    p = np.asarray(weights, dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


# raw PCG64 outputs fetched per refill; what a document leaves unread is
# harmless, since every document has its own generator
_BLOCK = 1024


class _Draws:
    """`Generator.random` and `Generator.integers` (ranges of at most 2**32
    values) of `np.random.default_rng(seed)`, read from raw PCG64 blocks.

    As numpy's C code computes them: `random()` is `pcg64_next_double`, one
    raw value each; `integers(lo, hi)` is Lemire's multiply-shift rejection
    (`buffered_bounded_lemire_uint32`) on 32-bit values from `pcg64_next32`,
    which splits one raw value into its low half, returned first, and its
    high half, kept for the next 32-bit draw. `random()` leaves that kept
    half alone. The stream owns its generator, so no other draw interleaves.
    """

    def __init__(self, seed):
        bitgen = np.random.default_rng(seed).bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"the draw stream reproduces PCG64 only, and "
                            f"default_rng built a {type(bitgen).__name__}")
        self._random_raw = bitgen.random_raw
        self._half = None
        self._refill()

    def _refill(self):
        raw = self._random_raw(_BLOCK)
        self._raws = raw.tolist()
        self._doubles = ((raw >> 11) * 2.0 ** -53).tolist()
        self._pos = 0

    def random(self) -> float:
        if self._pos == _BLOCK:
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._doubles[pos]

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n == 1:
            return lo
        if not 1 < n <= 0x100000000:
            raise ValueError(f"integers needs 1 <= hi - lo <= 2**32, got {n}")
        while True:
            u = self._half
            if u is None:
                if self._pos == _BLOCK:
                    self._refill()
                raw = self._raws[self._pos]
                self._pos += 1
                self._half = raw >> 32
                u = raw & 0xFFFFFFFF
            else:
                self._half = None
            m = u * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return lo + (m >> 32)


def _pool(cfg: GeneratorConfig, name: str):
    if name == "buysell":
        return ("buy", "sell")
    if name == "fillers":
        return FILLER_WORDS[:cfg.filler_vocab]
    return POOLS[name]


def _field_segment(cfg, fc: FieldClass, draws: _Draws) -> _Seg:
    texts, labels = [], []
    if fc.keywords and draws.random() < cfg.keyword_rate:
        texts.append(fc.keywords[draws.integers(0, len(fc.keywords))])
        labels.append("O")
    pool = _pool(cfg, fc.pool)
    n = draws.integers(fc.span[0], fc.span[1] + 1)
    for j in range(n):
        texts.append(pool[draws.integers(0, len(pool))])
        labels.append(f"B-{fc.name}" if j == 0 else f"I-{fc.name}")
    return _Seg("field", texts, labels, fc)


def _distractor_segment(cfg, draws: _Draws) -> _Seg:
    pool = _pool(cfg, DISTRACTOR_POOLS[draws.integers(0, len(DISTRACTOR_POOLS))])
    n = draws.integers(1, 4)
    texts = [pool[draws.integers(0, len(pool))] for _ in range(n)]
    return _Seg("distractor", texts, ["O"] * n)


def _filler_segment(cfg, draws: _Draws, zipf_cdf) -> _Seg:
    fillers = _pool(cfg, "fillers")
    n = draws.integers(2, 6)
    texts = [fillers[bisect_right(zipf_cdf, draws.random())] for _ in range(n)]
    return _Seg("filler", texts, ["O"] * n)


def _new_row(indent: float, y: float, pages: int):
    """(x, y, pages) at the start of the next row."""
    y += ROW_HEIGHT
    if y > PAGE - 50:
        return indent, 40.0, pages + 1
    return indent, y, pages


def _generate_document(cfg: GeneratorConfig, index: int, class_cdf: list,
                       zipf_cdf: list) -> DocumentRecord:
    draws = _Draws([cfg.seed, 17, index])
    rand, integers = draws.random, draws.integers
    classes = TEMPLATES[cfg.template].classes
    target = integers(cfg.tokens_per_doc[0], cfg.tokens_per_doc[1] + 1)

    flow: list[_Seg] = []
    table: list[_Seg] = []
    count = 0
    while count < target:
        if rand() < cfg.field_rate:
            fc = classes[bisect_right(class_cdf, rand())]
            seg = _field_segment(cfg, fc, draws)
            (table if fc.in_table else flow).append(seg)
        elif rand() < cfg.distractor_rate:
            seg = _distractor_segment(cfg, draws)
            flow.append(seg)
        else:
            seg = _filler_segment(cfg, draws, zipf_cdf)
            flow.append(seg)
        count += len(seg.texts)

    if table:
        header = _filler_segment(cfg, draws, zipf_cdf)
        header.kind = "header"
        header.texts = header.texts[:2]
        header.labels = header.labels[:2]
        table.insert(0, header)
        insert_at = integers(0, len(flow) + 1)
    else:
        insert_at = 0

    doc_font = FONT_POOL[integers(0, len(FONT_POOL))]
    alt_font = FONT_POOL[integers(0, len(FONT_POOL))]

    noise = cfg.noise_rate
    huge_rate = noise / 2
    tokens: list[TokenRecord] = []
    pages = 0
    y = 40.0
    x = 30.0
    ordered: list[tuple[_Seg, bool]] = [(s, False) for s in flow[:insert_at]]
    ordered += [(s, True) for s in table]
    ordered += [(s, False) for s in flow[insert_at:]]
    table_started = False
    for seg, is_table in ordered:
        if is_table and not table_started:
            x, y, pages = _new_row(60.0, y, pages)  # table band: its own row
            table_started = True
        if is_table:
            x, y, pages = _new_row(60.0, y, pages)  # one table row per segment
        fc = seg.cls
        # this segment's style rates; large font and colour apply them to
        # entity tokens only, the other tokens draw at the noise rate
        table_rate = cfg.p_table_amount if is_table else noise
        large_rate = cfg.p_largefont_name \
            if fc is not None and fc.large_font else noise
        color_rate = cfg.p_color_total if fc is not None and fc.colored \
            else noise
        indent = 60.0 if is_table else 30.0
        for text, label in zip(seg.texts, seg.labels):
            in_entity = label != "O"
            bold = rand() < (cfg.p_bold_entity if label[0] == "B" else noise)
            in_tab = rand() < table_rate
            if rand() < (large_rate if in_entity else noise):
                size = LARGE_FONT_SIZE
            elif rand() < huge_rate:
                size = HUGE_FONT_SIZE
            else:
                size = BASE_FONT_SIZE
            if rand() < (color_rate if in_entity else noise):
                color = COLOR_PALETTE[integers(0, len(COLOR_PALETTE))]
            else:
                color = BLACKISH[integers(0, len(BLACKISH))]
            font = alt_font if rand() < 0.1 else doc_font
            w = min(10.0 + 7.0 * len(text), 180.0)
            if x + w > PAGE - 40:
                x, y, pages = _new_row(indent, y, pages)
            tokens.append(TokenRecord(
                text, pages, (x, y, x + w, y + min(size * 1.6, 24.0)), bold,
                font, size, in_tab, color, label))
            x += w + 8.0
        if not is_table and seg.kind == "field" and rand() < 0.3:
            x, y, pages = _new_row(30.0, y, pages)
    return DocumentRecord(id=f"{cfg.template.lower()}-{cfg.seed}-{index:05d}",
                          pages=[(PAGE, PAGE)] * (pages + 1), tokens=tokens)


def generate_corpus(cfg: GeneratorConfig) -> list[DocumentRecord]:
    """Deterministic labeled corpus; same config -> byte-identical output."""
    class_cdf = _cdf([fc.weight for fc in TEMPLATES[cfg.template].classes])
    ranks = np.arange(1, len(_pool(cfg, "fillers")) + 1)
    zipf_cdf = _cdf(1.0 / np.power(ranks, 1.1))
    return [_generate_document(cfg, i, class_cdf, zipf_cdf)
            for i in range(cfg.n_docs)]


@dataclass
class PageRaster:
    grid: np.ndarray     # (H, W) uint8, 255 = white background


BOLD_FILL = 60
PLAIN_FILL = 170
COLOR_FILL = 200
TABLE_BORDER = 0


def render_pages(doc: DocumentRecord, size: int = 128) -> list[PageRaster]:
    """Deterministic rasterization: darker fill for bold, borders for tables.

    Every token's pixel box is computed at once; the boxes are then painted
    in token order, so a later box overwrites an earlier one where they meet.
    """
    grids = [np.full((size, size), 255, dtype=np.uint8) for _ in doc.pages]
    toks = doc.tokens
    page = np.array([t.page for t in toks], dtype=np.intp)
    extent = np.array(doc.pages, dtype=np.float64)[page]          # (T, 2)
    box = np.array([t.bbox for t in toks], dtype=np.float64).reshape(-1, 4)
    scaled = box / np.tile(extent, 2) * size
    x1 = np.clip(scaled[:, 0], 0, size - 1).astype(np.intp)
    y1 = np.clip(scaled[:, 1], 0, size - 1).astype(np.intp)
    x2 = np.clip(np.ceil(scaled[:, 2]), x1 + 1, size).astype(np.intp)
    y2 = np.clip(np.ceil(scaled[:, 3]), y1 + 1, size).astype(np.intp)
    for p, a, b, c, d, tok in zip(page.tolist(), x1.tolist(), y1.tolist(),
                                  x2.tolist(), y2.tolist(), toks):
        g = grids[p]
        if tok.bold:
            g[b:d, a:c] = BOLD_FILL
        elif max(tok.color) >= 64:
            g[b:d, a:c] = COLOR_FILL
        else:
            g[b:d, a:c] = PLAIN_FILL
        if tok.in_table:
            g[b, a:c] = TABLE_BORDER
            g[d - 1, a:c] = TABLE_BORDER
            g[b:d, a] = TABLE_BORDER
            g[b:d, c - 1] = TABLE_BORDER
    return [PageRaster(grid=g) for g in grids]


def corpus_summary(docs: list[DocumentRecord],
                   cfg: GeneratorConfig | None = None) -> dict:
    """Measured realization rates to validate against the configuration."""
    if not docs:
        raise ConfigError("corpus_summary needs a nonempty corpus")
    label_hist: Counter = Counter()
    bold_entity = [0, 0]       # [entity-initial tokens, bold among them]
    bold_other = [0, 0]
    table_by_class: dict[str, list] = {}
    notblack_by_class: dict[str, list] = {}
    size_hist: Counter = Counter()
    boxes_ok = True
    for doc in docs:
        for tok in doc.tokens:
            label_hist[tok.label] += 1
            cls = tok.label.split("-", 1)[1] if tok.label != "O" else "O"
            if tok.label.startswith("B-"):
                bold_entity[0] += 1
                bold_entity[1] += int(tok.bold)
            else:
                bold_other[0] += 1
                bold_other[1] += int(tok.bold)
            table_by_class.setdefault(cls, [0, 0])
            table_by_class[cls][0] += 1
            table_by_class[cls][1] += int(tok.in_table)
            notblack_by_class.setdefault(cls, [0, 0])
            notblack_by_class[cls][0] += 1
            notblack_by_class[cls][1] += int(max(tok.color) >= 64)
            size_hist[tok.font_size] += 1
            x1, y1, x2, y2 = tok.bbox
            pw, ph = doc.pages[tok.page]
            if not (0 <= x1 <= x2 <= pw and 0 <= y1 <= y2 <= ph):
                boxes_ok = False
    out = {
        "n_docs": len(docs),
        "total_tokens": sum(label_hist.values()),
        "label_histogram": dict(sorted(label_hist.items())),
        "p_bold_entity_initial": bold_entity[1] / max(1, bold_entity[0]),
        "p_bold_other": bold_other[1] / max(1, bold_other[0]),
        "p_table_by_class": {c: n[1] / n[0] for c, n in
                             sorted(table_by_class.items())},
        "p_notblack_by_class": {c: n[1] / n[0] for c, n in
                                sorted(notblack_by_class.items())},
        "font_size_histogram": {str(k): v for k, v in sorted(size_hist.items())},
        "boxes_in_page": boxes_ok,
    }
    if cfg is not None:
        out["config"] = cfg.to_json()
    return out
