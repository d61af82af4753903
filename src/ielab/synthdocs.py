"""Seeded generator of labeled, styled synthetic documents.

Three templates mimic the qualitative structure of trade confirmations, fee
schedules, and invoices: entity fields are introduced by keyword tokens (with
some probability), entity values come from shared pools (decimals, integers,
dates, codes, names), and distractor runs reuse the same pools with O labels.
Style attributes carry the configured correlations: entity-initial tokens are
bold, amount-like fields live in a table band, names can take larger fonts,
and totals can be colored. Setting every correlation probability equal to the
noise rate makes all style features label-independent.

Everything is a pure function of (config, seed): same seed, same bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ielab.docstream import DocumentRecord, TokenRecord
from ielab.errors import ConfigError
from ielab.jsonconfig import JsonConfig

PAGE = 1000.0  # fixed logical page; normalize_bbox then maps 1:1 onto [0,1000]

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
        lo, hi = self.tokens_per_doc
        if lo < 8 or hi < lo:
            raise ConfigError(
                f"token budget {self.tokens_per_doc} is too small for the "
                "template (need at least 8 tokens per document)")
        for name in ("p_bold_entity", "p_table_amount", "p_largefont_name",
                     "p_color_total", "noise_rate", "keyword_rate",
                     "field_rate", "distractor_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {v}")

    def uninformative(self) -> "GeneratorConfig":
        """Style draws become label-independent (equal to the noise rate)."""
        return replace(self, p_bold_entity=self.noise_rate,
                       p_table_amount=self.noise_rate,
                       p_largefont_name=self.noise_rate,
                       p_color_total=self.noise_rate)


@dataclass
class _Seg:
    kind: str                # "field" | "distractor" | "filler" | "header"
    texts: list
    labels: list
    cls: FieldClass | None = None


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1), 1.1)
    return w / w.sum()


def _pool(cfg: GeneratorConfig, name: str):
    if name == "buysell":
        return ("buy", "sell")
    if name == "fillers":
        return FILLER_WORDS[:cfg.filler_vocab]
    return POOLS[name]


def _field_segment(cfg, fc: FieldClass, rng) -> _Seg:
    texts, labels = [], []
    if fc.keywords and rng.random() < cfg.keyword_rate:
        texts.append(fc.keywords[int(rng.integers(len(fc.keywords)))])
        labels.append("O")
    pool = _pool(cfg, fc.pool)
    n = int(rng.integers(fc.span[0], fc.span[1] + 1))
    for j in range(n):
        texts.append(pool[int(rng.integers(len(pool)))])
        labels.append(f"B-{fc.name}" if j == 0 else f"I-{fc.name}")
    return _Seg("field", texts, labels, fc)


def _distractor_segment(cfg, rng) -> _Seg:
    pool = _pool(cfg, DISTRACTOR_POOLS[int(rng.integers(len(DISTRACTOR_POOLS)))])
    n = int(rng.integers(1, 4))
    texts = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
    return _Seg("distractor", texts, ["O"] * n)


def _filler_segment(cfg, rng, zipf) -> _Seg:
    fillers = _pool(cfg, "fillers")
    n = int(rng.integers(2, 6))
    texts = [fillers[int(rng.choice(len(fillers), p=zipf))] for _ in range(n)]
    return _Seg("filler", texts, ["O"] * n)


def _generate_document(cfg: GeneratorConfig, index: int) -> DocumentRecord:
    rng = np.random.default_rng([cfg.seed, 17, index])
    template = TEMPLATES[cfg.template]
    weights = np.array([fc.weight for fc in template.classes])
    weights = weights / weights.sum()
    zipf = _zipf_weights(len(_pool(cfg, "fillers")))
    target = int(rng.integers(cfg.tokens_per_doc[0], cfg.tokens_per_doc[1] + 1))

    flow: list[_Seg] = []
    table: list[_Seg] = []
    count = 0
    while count < target:
        if rng.random() < cfg.field_rate:
            fc = template.classes[int(rng.choice(len(template.classes), p=weights))]
            seg = _field_segment(cfg, fc, rng)
            (table if fc.in_table else flow).append(seg)
        elif rng.random() < cfg.distractor_rate:
            seg = _distractor_segment(cfg, rng)
            flow.append(seg)
        else:
            seg = _filler_segment(cfg, rng, zipf)
            flow.append(seg)
        count += len(seg.texts)

    if table:
        header = _filler_segment(cfg, rng, zipf)
        header.kind = "header"
        header.texts = header.texts[:2]
        header.labels = header.labels[:2]
        table.insert(0, header)
        insert_at = int(rng.integers(0, len(flow) + 1))
    else:
        insert_at = 0

    doc_font = FONT_POOL[int(rng.integers(len(FONT_POOL)))]
    alt_font = FONT_POOL[int(rng.integers(len(FONT_POOL)))]

    tokens: list[TokenRecord] = []
    pages = 0
    y = 40.0
    x = 30.0
    row_h = 28.0

    def new_row(indent):
        nonlocal x, y, pages
        x = indent
        y += row_h
        if y > PAGE - 50:
            y = 40.0
            pages += 1

    def emit(seg: _Seg, in_table_seg: bool):
        nonlocal x
        for text, label in zip(seg.texts, seg.labels):
            entity_initial = label.startswith("B-")
            in_entity = label != "O"
            fc = seg.cls
            bold = rng.random() < (cfg.p_bold_entity if entity_initial
                                   else cfg.noise_rate)
            in_tab = rng.random() < (cfg.p_table_amount if in_table_seg
                                     else cfg.noise_rate)
            if fc is not None and fc.large_font and in_entity:
                large = rng.random() < cfg.p_largefont_name
            else:
                large = rng.random() < cfg.noise_rate
            if large:
                size = LARGE_FONT_SIZE
            elif rng.random() < cfg.noise_rate / 2:
                size = HUGE_FONT_SIZE
            else:
                size = BASE_FONT_SIZE
            if fc is not None and fc.colored and in_entity:
                colored = rng.random() < cfg.p_color_total
            else:
                colored = rng.random() < cfg.noise_rate
            color = COLOR_PALETTE[int(rng.integers(len(COLOR_PALETTE)))] \
                if colored else BLACKISH[int(rng.integers(len(BLACKISH)))]
            font = alt_font if rng.random() < 0.1 else doc_font
            w = min(10.0 + 7.0 * len(text), 180.0)
            if x + w > PAGE - 40:
                new_row(60.0 if in_table_seg else 30.0)
            height = min(size * 1.6, 24.0)
            tokens.append(TokenRecord(
                text=text, page=pages, bbox=(x, y, x + w, y + height),
                bold=bool(bold), font=font, font_size=float(size),
                in_table=bool(in_tab), color=color, label=label))
            x += w + 8.0

    ordered: list[tuple[_Seg, bool]] = [(s, False) for s in flow[:insert_at]]
    ordered += [(s, True) for s in table]
    ordered += [(s, False) for s in flow[insert_at:]]
    table_started = False
    for seg, is_table in ordered:
        if is_table and not table_started:
            new_row(60.0)       # table band starts on its own row
            table_started = True
        if is_table:
            new_row(60.0)       # one table row per segment
        emit(seg, is_table)
        if is_table is False and seg.kind == "field" and rng.random() < 0.3:
            new_row(30.0)
    return DocumentRecord(id=f"{cfg.template.lower()}-{cfg.seed}-{index:05d}",
                          pages=[(PAGE, PAGE)] * (pages + 1), tokens=tokens)


def generate_corpus(cfg: GeneratorConfig) -> list[DocumentRecord]:
    """Deterministic labeled corpus; same config -> byte-identical output."""
    return [_generate_document(cfg, i) for i in range(cfg.n_docs)]


@dataclass
class PageRaster:
    grid: np.ndarray     # (H, W) uint8, 255 = white background


BOLD_FILL = 60
PLAIN_FILL = 170
COLOR_FILL = 200
TABLE_BORDER = 0


def render_pages(doc: DocumentRecord, size: int = 128) -> list[PageRaster]:
    """Deterministic rasterization: darker fill for bold, borders for tables."""
    grids = [np.full((size, size), 255, dtype=np.uint8) for _ in doc.pages]
    for tok in doc.tokens:
        g = grids[tok.page]
        pw, ph = doc.pages[tok.page]
        x1 = int(np.clip(tok.bbox[0] / pw * size, 0, size - 1))
        y1 = int(np.clip(tok.bbox[1] / ph * size, 0, size - 1))
        x2 = int(np.clip(np.ceil(tok.bbox[2] / pw * size), x1 + 1, size))
        y2 = int(np.clip(np.ceil(tok.bbox[3] / ph * size), y1 + 1, size))
        if tok.bold:
            fill = BOLD_FILL
        elif max(tok.color) >= 64:
            fill = COLOR_FILL
        else:
            fill = PLAIN_FILL
        g[y1:y2, x1:x2] = fill
        if tok.in_table:
            g[y1, x1:x2] = TABLE_BORDER
            g[y2 - 1, x1:x2] = TABLE_BORDER
            g[y1:y2, x1] = TABLE_BORDER
            g[y1:y2, x2 - 1] = TABLE_BORDER
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
