import numpy as np
import pytest
from conftest import uninformative
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ielab import pgm, synthdocs as sg
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.docstream import serialize_documents
from ielab.errors import ConfigError, DataValidationError


def test_same_seed_identical_bytes():
    cfg = sg.GeneratorConfig(n_docs=15, seed=9)
    a = serialize_documents(sg.generate_corpus(cfg))
    b = serialize_documents(sg.generate_corpus(cfg))
    assert a == b
    c = serialize_documents(sg.generate_corpus(
        sg.GeneratorConfig(n_docs=15, seed=10)))
    assert a != c


def test_generated_labels_are_iob_valid_without_repair():
    for template in sg.TEMPLATES:
        docs = sg.generate_corpus(sg.GeneratorConfig(
            template=template, n_docs=25, seed=4))
        for doc in docs:
            tags = [t.label for t in doc.tokens]
            # canonical form: every I-X continues a B-X or I-X
            for prev, tag in zip(["O"] + tags, tags):
                assert tag == "O" or tag[:2] in ("B-", "I-"), tag
                if tag.startswith("I-"):
                    assert prev[2:] == tag[2:], (doc.id, prev, tag)


def test_probability_one_case():
    cfg = sg.GeneratorConfig(template="TRADECONF", n_docs=30,
                             p_bold_entity=1.0, noise_rate=0.0, seed=2)
    for doc in sg.generate_corpus(cfg):
        for tok in doc.tokens:
            if tok.label.startswith("B-"):
                assert tok.bold
            else:
                assert not tok.bold


def test_bold_rate_binomial_bound():
    docs = sg.generate_corpus(sg.GeneratorConfig(
        template="TRADECONF", n_docs=500, seed=6))
    summary = sg.corpus_summary(docs)
    assert abs(summary["p_bold_entity_initial"] - 0.9) < 0.03
    n = sum(v for k, v in summary["label_histogram"].items()
            if k.startswith("B-"))
    sigma = (0.9 * 0.1 / n) ** 0.5
    assert abs(summary["p_bold_entity_initial"] - 0.9) < 3 * sigma + 0.01


def test_boxes_within_page_and_non_overlapping():
    docs = sg.generate_corpus(sg.GeneratorConfig(n_docs=20, seed=3))
    for doc in docs:
        by_page = {}
        for tok in doc.tokens:
            x1, y1, x2, y2 = tok.bbox
            pw, ph = doc.pages[tok.page]
            assert 0 <= x1 < x2 <= pw and 0 <= y1 < y2 <= ph
            by_page.setdefault(tok.page, []).append(tok.bbox)
        for boxes in by_page.values():
            for i, a in enumerate(boxes):
                for b in boxes[i + 1:]:
                    overlap = not (a[2] <= b[0] or b[2] <= a[0]
                                   or a[3] <= b[1] or b[3] <= a[1])
                    assert not overlap, (a, b)


def test_uninformative_styles_independent_of_labels():
    cfg = uninformative(sg.GeneratorConfig(template="TRADECONF", n_docs=500,
                                           seed=8))
    docs = sg.generate_corpus(cfg)
    bucket = BucketingConfig()
    vocabs = build_vocabularies(docs, bucket)
    encs = [encode_document(d, vocabs, bucket) for d in docs]
    labels = np.concatenate([e.label_ids for e in encs])
    is_entity = labels != 0
    for m, name in enumerate(("bold", "font", "fontSize", "inTable", "color")):
        values = np.concatenate([e.style_ids[m] for e in encs])
        table = np.zeros((2, values.max() + 1))
        for ent in (0, 1):
            for v in range(values.max() + 1):
                table[ent, v] = np.sum((is_entity == ent) & (values == v))
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            continue  # degenerate single-valued feature
        _, p, _, _ = sps.chi2_contingency(table)
        assert p > 0.01, f"{name} correlates with labels (p={p:.4g})"


def test_informative_styles_do_correlate():
    docs = sg.generate_corpus(sg.GeneratorConfig(
        template="TRADECONF", n_docs=200, seed=8))
    bold = np.array([[t.bold, t.label.startswith("B-")]
                     for d in docs for t in d.tokens])
    table = np.array([[np.sum((bold[:, 0] == a) & (bold[:, 1] == b))
                       for a in (0, 1)] for b in (0, 1)])
    _, p, _, _ = sps.chi2_contingency(table)
    assert p < 1e-10


def test_token_budget_too_small():
    with pytest.raises(ConfigError):
        sg.GeneratorConfig(tokens_per_doc=(4, 6))


def test_render_pages_deterministic_and_styled():
    docs = sg.generate_corpus(sg.GeneratorConfig(n_docs=4, seed=5))
    doc = docs[0]
    a = sg.render_pages(doc)
    b = sg.render_pages(doc)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.grid, rb.grid)
    grid = a[0].grid
    assert grid.shape == (128, 128)
    corner = grid[:4, -4:]
    assert (corner == 255).all()  # empty page region stays white


def test_render_bold_darker_than_plain():
    cfg = sg.GeneratorConfig(template="TRADECONF", n_docs=6, seed=7,
                             p_bold_entity=1.0, noise_rate=0.0)
    docs = sg.generate_corpus(cfg)
    for doc in docs:
        rasters = sg.render_pages(doc)
        bolds, plains = [], []
        for tok in doc.tokens:
            g = rasters[tok.page].grid
            pw, ph = doc.pages[tok.page]
            cx = int((tok.bbox[0] + tok.bbox[2]) / 2 / pw * 128)
            cy = int((tok.bbox[1] + tok.bbox[3]) / 2 / ph * 128)
            (bolds if tok.bold else plains).append(g[cy, cx])
        if bolds and plains:
            assert max(bolds) < min(plains)
            return
    pytest.fail("no document had both bold and plain tokens")


def test_every_token_box_is_rendered():
    docs = sg.generate_corpus(sg.GeneratorConfig(n_docs=5, seed=11))
    for doc in docs:
        rasters = sg.render_pages(doc)
        for tok in doc.tokens:
            g = rasters[tok.page].grid
            pw, ph = doc.pages[tok.page]
            x1 = int(tok.bbox[0] / pw * 128)
            y1 = int(tok.bbox[1] / ph * 128)
            region = g[y1:y1 + 2, x1:x1 + 2]
            assert (region < 255).any(), (doc.id, tok.text)


def test_corpus_summary_counts():
    docs = sg.generate_corpus(sg.GeneratorConfig(n_docs=30, seed=1))
    s = sg.corpus_summary(docs)
    assert s["total_tokens"] == sum(len(d.tokens) for d in docs)
    assert sum(s["label_histogram"].values()) == s["total_tokens"]
    assert s["boxes_in_page"]
    assert 0.8 < s["p_table_by_class"]["TRADE_PRICE"] <= 1.0
    assert s["p_bold_other"] < 0.15


def test_multi_page_documents():
    cfg = sg.GeneratorConfig(n_docs=3, tokens_per_doc=(400, 500), seed=13)
    docs = sg.generate_corpus(cfg)
    assert any(len(d.pages) > 1 for d in docs)
    for doc in docs:
        assert max(t.page for t in doc.tokens) == len(doc.pages) - 1
        assert len(sg.render_pages(doc)) == len(doc.pages)


def test_pgm_roundtrip(tmp_path):
    docs = sg.generate_corpus(sg.GeneratorConfig(n_docs=1, seed=0))
    grid = sg.render_pages(docs[0])[0].grid
    path = tmp_path / "page.pgm"
    pgm.write_pgm(path, grid)
    assert np.array_equal(pgm.read_pgm(path), grid)
    model_input = pgm.raster_to_input(grid)
    assert model_input.shape == (1, 128, 128)
    assert model_input.dtype == np.uint8 and model_input.nbytes == 128 * 128
    assert np.array_equal(model_input[0], grid)


def test_pgm_pixels_may_start_with_whitespace_values(tmp_path):
    """One whitespace byte ends the header; pixel values that are
    whitespace bytes (9-13, 32) are pixels, even at the start."""
    grid = np.array([[32, 9, 10], [11, 12, 13]], dtype=np.uint8)
    path = tmp_path / "page.pgm"
    pgm.write_pgm(path, grid)
    assert np.array_equal(pgm.read_pgm(path), grid)


_VALID_PGM = b"P5\n4 3\n255\n" + bytes([32, 10, 0, 255, 9, 1, 2, 3,
                                          13, 200, 100, 50])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 100), st.binary(min_size=1, max_size=3),
       st.sampled_from(["replace", "insert", "delete", "truncate"]))
@example(8, b"x", "insert")            # non-integer maxval
@example(3, b"a", "replace")           # non-integer width
def test_pgm_byte_mutated_returns_or_rejects(tmp_path_factory, pos, chunk,
                                             how):
    """A byte-mutated or truncated PGM reads as a uint8 array of the shape
    its header states, or raises DataValidationError."""
    blob = _VALID_PGM
    pos %= len(blob)
    if how == "replace":
        blob = blob[:pos] + chunk + blob[pos + len(chunk):]
    elif how == "insert":
        blob = blob[:pos] + chunk + blob[pos:]
    elif how == "delete":
        blob = blob[:pos] + blob[pos + len(chunk):]
    else:
        blob = blob[:pos]
    path = tmp_path_factory.mktemp("pgm") / "page.pgm"
    path.write_bytes(blob)
    try:
        grid = pgm.read_pgm(path)
    except DataValidationError:
        return
    w, h = (int(v) for v in blob.split()[1:3])
    assert grid.dtype == np.uint8 and grid.shape == (h, w)


def test_draw_stream_matches_generator():
    """100k interleaved draws give Generator's values across many block
    refills: the 2**31 + 1 range redraws about half its 32-bit values, the
    1 range consumes none, and the others split raw values in halves."""
    refills = 0

    class Counted(sg._Draws):
        def _refill(self):
            nonlocal refills
            refills += 1
            super()._refill()

    ranges = (1, 3, 4, 451, 2**31 + 1, 3 * 2**30, 2**32)
    ops = np.random.default_rng(0).integers(-1, len(ranges), 100_000).tolist()
    gen = np.random.default_rng([5, 17, 3])
    draws = Counted([5, 17, 3])
    got, want = [], []
    for op in ops:
        if op < 0:
            got.append(draws.random())
            want.append(gen.random())
        else:
            lo = op - 2
            got.append(draws.integers(lo, lo + ranges[op]))
            want.append(int(gen.integers(lo, lo + ranges[op])))
    assert got == want
    assert refills > 40
    state = gen.bit_generator.state
    assert (draws._half is not None) == bool(state["has_uint32"])
    if draws._half is not None:
        assert draws._half == state["uinteger"]
    with pytest.raises(ValueError):
        draws.integers(0, 2**32 + 1)
