import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import docstream as ds
from ielab.errors import ConfigError, DataValidationError


def make_token(text="Total", label="B-TOTAL", **over):
    tok = {"text": text, "page": 0, "bbox": [10.0, 20.0, 60.0, 32.0],
           "bold": False, "font": "Helvetica", "font_size": 10.0,
           "in_table": False, "color": [0, 0, 0], "label": label}
    tok.update(over)
    return tok


def make_doc_line(doc_id="d1", tokens=None):
    return json.dumps({
        "id": doc_id,
        "pages": [{"width": 1000.0, "height": 1000.0}],
        "tokens": tokens or [make_token()],
    })


def test_parse_single_token_document():
    docs = ds.parse_documents(make_doc_line().encode())
    assert len(docs) == 1
    doc = docs[0]
    assert len(doc.tokens) == 1
    assert doc.tokens[0].label == "B-TOTAL"
    assert doc.tokens[0].text == "Total"


def test_parse_rejects_inverted_bbox_with_token_index():
    line = make_doc_line(tokens=[make_token(), make_token(bbox=[50, 0, 10, 5])])
    with pytest.raises(DataValidationError, match="token 1"):
        ds.parse_documents(line.encode())


def test_parse_reports_line_number_for_bad_json():
    data = (make_doc_line() + "\n{oops\n").encode()
    with pytest.raises(DataValidationError, match="line 2"):
        ds.parse_documents(data)


def test_parse_serialize_roundtrip():
    lines = "\n".join([
        make_doc_line("a", [make_token(), make_token("x", "O", bold=True)]),
        make_doc_line("b", [make_token("Fee", "B-FEE", font_size=14.5,
                                       color=[200, 10, 10])]),
        make_doc_line("c", [make_token(label="O", in_table=True)]),
    ]) + "\n\n"
    docs = ds.parse_documents(lines.encode())
    blob = ds.serialize_documents(docs)
    docs2 = ds.parse_documents(blob)
    assert docs == docs2
    assert blob == ds.serialize_documents(docs2)


def test_parse_ignores_trailing_blank_lines():
    docs = ds.parse_documents((make_doc_line() + "\n\n\n").encode())
    assert len(docs) == 1


def normalize_one(box, page):
    """normalize_bbox on one box, passed as one-element arrays."""
    out = ds.normalize_bbox(np.reshape(box, (4, 1)), np.reshape(page, (2, 1)))
    assert out.shape == (6, 1) and out.dtype == np.int64
    return tuple(out[:, 0].tolist())


def test_normalize_bbox_unit_page():
    assert normalize_one((100, 200, 300, 400), (1000, 1000)) == \
        (100, 200, 300, 400, 200, 200)


def test_normalize_bbox_letter_page():
    got = normalize_one((61.2, 79.2, 122.4, 158.4), (612, 792))
    assert got == (100, 100, 200, 200, 100, 100)


def test_normalize_bbox_full_page():
    assert normalize_one((0, 0, 612, 792), (612, 792)) == \
        (0, 0, 1000, 1000, 1000, 1000)


def test_normalize_bbox_arrays_round_like_python_round():
    """The array form agrees with Python's round() on every coordinate,
    exact halves (round half to even) and off-page values included."""
    rng = np.random.default_rng(4)
    halves = np.array([0.5, 1.5, 100.5, 101.5, 999.5, -0.5, 1000.5])
    boxes = np.concatenate([rng.uniform(-50, 1100, size=(60, 4)),
                            np.tile(halves[:, None], (1, 4))])
    pages = np.concatenate([rng.uniform(100, 1500, size=(60, 2)),
                            np.full((len(halves), 2), 1000.0)])
    got = ds.normalize_bbox(boxes.T, pages.T)

    def q(value, extent):
        return min(max(int(round(1000.0 * value / extent)), 0), 1000)

    for i, ((x1, y1, x2, y2), (w, h)) in enumerate(zip(boxes, pages)):
        want = (q(x1, w), q(y1, h), q(x2, w), q(y2, h))
        want += (want[2] - want[0], want[3] - want[1])
        assert tuple(got[:, i].tolist()) == want


def test_normalize_bbox_zero_page_dimension():
    with pytest.raises(ConfigError):
        normalize_one((0, 0, 1, 1), (0, 100))


def doc_with_sizes(sizes):
    tokens = [ds.TokenRecord(f"t{i}", 0, (0, 0, 1, 1), False, "F", s, False,
                             (0, 0, 0), "O") for i, s in enumerate(sizes)]
    return ds.DocumentRecord("d", [(100.0, 100.0)], tokens)


def test_style_stats_median():
    assert ds.median_font_size(doc_with_sizes([10, 10, 10])) == 10
    assert ds.median_font_size(doc_with_sizes([12, 8, 10])) == 10
    # lower median on even counts
    assert ds.median_font_size(doc_with_sizes([14, 8, 12, 10])) == 10


def bucket_one(tok, median=10.0, font_index=None):
    """bucket_styles on a one-token document, as a tuple of five ints."""
    out = ds.bucket_styles([tok], median, ds.BucketingConfig(),
                           font_index or {})
    assert out.shape == (5, 1) and out.dtype == np.int64
    return tuple(out[:, 0].tolist())


def test_bucket_color_black_vs_not():
    tok = ds.TokenRecord("x", 0, (0, 0, 1, 1), False, "F", 10.0, False, (0, 0, 0), "O")
    assert bucket_one(tok)[4] == ds.BLACK
    tok_red = ds.TokenRecord("x", 0, (0, 0, 1, 1), False, "F", 10.0, False,
                             (200, 30, 30), "O")
    assert bucket_one(tok_red)[4] == ds.NOT_BLACK
    tok_dim = ds.TokenRecord("x", 0, (0, 0, 1, 1), False, "F", 10.0, False,
                             (63, 63, 63), "O")
    assert bucket_one(tok_dim)[4] == ds.BLACK


@pytest.mark.parametrize("ratio,bucket", [
    (1.0, 0), (1.19, 0), (1.2, 1), (1.7, 1), (2.0, 1), (2.0001, 2), (2.5, 2),
])
def test_bucket_fontsize_interval_bounds(ratio, bucket):
    tok = ds.TokenRecord("x", 0, (0, 0, 1, 1), False, "F", 10.0 * ratio, False,
                         (0, 0, 0), "O")
    assert bucket_one(tok)[2] == bucket


def test_bucket_bold_and_table_flags():
    tok = ds.TokenRecord("x", 0, (0, 0, 1, 1), True, "F", 10.0, True, (0, 0, 0), "O")
    buckets = bucket_one(tok)
    assert buckets[0] == 1 and buckets[3] == 1


def test_bucketing_is_pure():
    tok = ds.TokenRecord("x", 0, (0, 0, 1, 1), True, "Arial", 13.0, False,
                         (10, 200, 10), "O")
    assert bucket_one(tok, 9.5, {"F": 0}) == bucket_one(tok, 9.5, {"F": 0})


def corpus_for_vocab():
    def tok(text, font="F0"):
        return ds.TokenRecord(text, 0, (0, 0, 1, 1), False, font, 10.0, False,
                              (0, 0, 0), "O")
    docs = [ds.DocumentRecord("d1", [(10.0, 10.0)],
                              [tok("a"), tok("b"), tok("a")])]
    return docs


def test_build_vocabulary_frequency_then_lexicographic():
    vocabs = ds.build_vocabularies(corpus_for_vocab(), ds.BucketingConfig())
    assert vocabs.word.index == {"a": 2, "b": 3}
    assert vocabs.word.id_of("a") == 2
    assert vocabs.word.id_of("zzz") == ds.UNK_ID


def test_build_vocabulary_font_top_k_overflow():
    def tok(font):
        return ds.TokenRecord("w", 0, (0, 0, 1, 1), False, font, 10.0, False,
                              (0, 0, 0), "O")
    tokens = [tok(f"Font{i}") for i in range(9)] + [tok("Font0")]
    docs = [ds.DocumentRecord("d", [(10.0, 10.0)], tokens)]
    vocabs = ds.build_vocabularies(docs, ds.BucketingConfig(font_top_k=8))
    assert len(vocabs.style.font_index) == 8
    assert "Font8" not in vocabs.style.font_index  # rarest font -> OTHER
    assert vocabs.style.sizes()["font"] == 9


def test_build_vocabulary_deterministic():
    a = ds.build_vocabularies(corpus_for_vocab(), ds.BucketingConfig())
    b = ds.build_vocabularies(corpus_for_vocab(), ds.BucketingConfig())
    assert a.word.index == b.word.index
    assert a.style.font_index == b.style.font_index
    assert a.labels == b.labels


def test_build_vocabulary_rejects_empty():
    with pytest.raises(ConfigError):
        ds.build_vocabularies([], ds.BucketingConfig())


def fixture_doc():
    mk = ds.TokenRecord
    tokens = [
        mk("Price", 0, (100.0, 100.0, 200.0, 120.0), True, "Helvetica", 10.0,
           False, (0, 0, 0), "O"),
        mk("12.50", 0, (210.0, 100.0, 260.0, 120.0), False, "Helvetica", 10.0,
           True, (0, 0, 0), "B-TRADE_PRICE"),
        mk("USD", 0, (270.0, 100.0, 300.0, 120.0), False, "Courier", 10.0,
           True, (0, 0, 0), "I-TRADE_PRICE"),
        mk("Big", 0, (100.0, 140.0, 160.0, 165.0), False, "Helvetica", 25.0,
           False, (200, 0, 0), "O"),
        mk("price", 0, (170.0, 140.0, 230.0, 160.0), False, "Helvetica", 10.0,
           False, (0, 0, 0), "O"),
    ]
    return ds.DocumentRecord("fix", [(1000.0, 1000.0)], tokens)


def test_encode_document_golden():
    doc = fixture_doc()
    vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
    enc = ds.encode_document(doc, vocabs, ds.BucketingConfig())
    # hand-encoded expectations: words lowercased so "Price" == "price"
    pid = vocabs.word.index["price"]
    assert list(enc.word_ids) == [pid, vocabs.word.index["12.50"],
                                  vocabs.word.index["usd"],
                                  vocabs.word.index["big"], pid]
    assert list(enc.coord_ids[0]) == [100, 210, 270, 100, 170]   # x1
    assert list(enc.coord_ids[4]) == [100, 50, 30, 60, 60]       # w
    assert list(enc.coord_ids[5]) == [20, 20, 20, 25, 20]        # h
    # styles in order (bold, font, fontSize, inTable, color)
    helv = vocabs.style.font_index["Helvetica"]
    cour = vocabs.style.font_index["Courier"]
    assert list(enc.style_ids[:, 0]) == [1, helv, 0, 0, ds.BLACK]
    assert list(enc.style_ids[:, 2]) == [0, cour, 0, 1, ds.BLACK]
    assert list(enc.style_ids[:, 3]) == [0, helv, 2, 0, ds.NOT_BLACK]
    assert list(enc.label_ids) == [0, vocabs.labels["B-TRADE_PRICE"],
                                   vocabs.labels["I-TRADE_PRICE"], 0, 0]


def test_encode_unseen_word_maps_to_unk():
    doc = fixture_doc()
    vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
    other = ds.DocumentRecord("n", doc.pages, [ds.TokenRecord(
        "unseen-token", 0, (0.0, 0.0, 10.0, 10.0), False, "Helvetica", 10.0,
        False, (0, 0, 0), "O")])
    enc = ds.encode_document(other, vocabs, ds.BucketingConfig())
    assert enc.word_ids[0] == ds.UNK_ID


def test_encode_unknown_label_errors():
    doc = fixture_doc()
    vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
    bad = ds.DocumentRecord("n", doc.pages, [ds.TokenRecord(
        "x", 0, (0.0, 0.0, 10.0, 10.0), False, "Helvetica", 10.0, False,
        (0, 0, 0), "B-NEVER_SEEN")])
    with pytest.raises(DataValidationError, match="B-NEVER_SEEN"):
        ds.encode_document(bad, vocabs, ds.BucketingConfig())


def test_encoded_lengths_and_ranges():
    doc = fixture_doc()
    vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
    enc = ds.encode_document(doc, vocabs, ds.BucketingConfig())
    T = enc.length
    sizes = vocabs.style.size_list()
    assert all(len(getattr(enc, f)) == T for f in
               ("word_ids", "label_ids", "page_ids"))
    assert enc.style_ids.shape == (5, T)
    for m in range(5):
        assert enc.style_ids[m].max() < sizes[m]
    assert enc.coord_ids.shape == (6, T)
    assert enc.coord_ids.min() >= 0 and enc.coord_ids.max() <= 1000


def test_vocabularies_json_roundtrip():
    doc = fixture_doc()
    vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
    blob = json.dumps(vocabs.to_json())
    back = ds.Vocabularies.from_json(json.loads(blob))
    assert back.word.index == vocabs.word.index
    assert back.style.font_index == vocabs.style.font_index
    assert back.labels == vocabs.labels


def test_bbox_clamped_to_page():
    line = make_doc_line(tokens=[make_token(bbox=[-5.0, 10.0, 2000.0, 20.0])])
    doc = ds.parse_documents(line.encode())[0]
    assert doc.tokens[0].bbox == (0.0, 10.0, 1000.0, 20.0)


def test_parse_rejects_duplicate_ids_naming_both_lines():
    data = "\n".join([make_doc_line("a"), make_doc_line("b"),
                      make_doc_line("a")]).encode()
    with pytest.raises(DataValidationError, match="line 3.*'a'.*line 1"):
        ds.parse_documents(data)


def _paths(obj, prefix=()):
    """Every (path to a container, key) inside a parsed JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_VALID_DOC = json.loads(make_doc_line(tokens=[
    make_token(), make_token("x", "O", bold=True, in_table=True,
                             color=[200, 10, 10])]))
_VALID_PATHS = list(_paths(_VALID_DOC))
_DELETE = object()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def _parses_or_rejects(data: bytes) -> None:
    try:
        docs = ds.parse_documents(data)
    except DataValidationError:
        return
    for doc in docs:                     # what parses also encodes
        vocabs = ds.build_vocabularies([doc], ds.BucketingConfig())
        ds.encode_document(doc, vocabs, ds.BucketingConfig())


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_parse_arbitrary_bytes_returns_or_rejects(data):
    _parses_or_rejects(data)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_VALID_PATHS), _JSON_VALUES | st.just(_DELETE),
       st.booleans())
def test_parse_mutated_document_returns_or_rejects(where, value, twice):
    doc = json.loads(json.dumps(_VALID_DOC))
    prefix, key = where
    container = doc
    for step in prefix:
        container = container[step]
    if value is _DELETE:
        del container[key]
    else:
        container[key] = value
    line = json.dumps(doc)
    _parses_or_rejects((line + "\n" + (line if twice else "")).encode())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.binary(min_size=1, max_size=3),
       st.sampled_from(["replace", "insert", "delete"]))
def test_parse_byte_mutated_line_returns_or_rejects(pos, chunk, how):
    line = json.dumps(_VALID_DOC).encode()
    pos %= len(line)
    if how == "replace":
        line = line[:pos] + chunk + line[pos + len(chunk):]
    elif how == "insert":
        line = line[:pos] + chunk + line[pos:]
    else:
        line = line[:pos] + line[pos + len(chunk):]
    _parses_or_rejects(line)
