"""Byte-identity pins for set-up: corpus bytes, page rasters and encodings.

Every recorded seed, F1 floor and benchmark baseline depends on the exact
documents, rasters and integer encodings a seed produces. The SHA-256 digests
below were taken from the scalar per-token implementations of
`generate_corpus`, `render_pages` and `encode_document`; a faster rewrite
must reproduce them bit for bit, RNG draw order included.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import uninformative

from ielab import synthdocs as sg
from ielab.docstream import (
    BucketingConfig,
    DocumentRecord,
    build_vocabularies,
    encode_document,
    serialize_documents,
)

CASES = {
    "tradeconf-short": sg.GeneratorConfig(
        template="TRADECONF", n_docs=6, tokens_per_doc=(24, 44), seed=3),
    "feeschedule-short": sg.GeneratorConfig(
        template="FEESCHEDULE", n_docs=6, tokens_per_doc=(24, 44), seed=5),
    "invoice-short": sg.GeneratorConfig(
        template="INVOICE", n_docs=6, tokens_per_doc=(24, 44), seed=7),
    "tradeconf-long": sg.GeneratorConfig(
        template="TRADECONF", n_docs=2, tokens_per_doc=(450, 900), seed=101),
    "feeschedule-long": sg.GeneratorConfig(
        template="FEESCHEDULE", n_docs=2, tokens_per_doc=(450, 900), seed=11),
    "invoice-long": sg.GeneratorConfig(
        template="INVOICE", n_docs=2, tokens_per_doc=(450, 900), seed=13),
    "invoice-uninformative-small-vocab": uninformative(sg.GeneratorConfig(
        template="INVOICE", n_docs=4, tokens_per_doc=(60, 120), seed=21,
        filler_vocab=40)),
}

# name -> (corpus digest, raster digest, encoding digest)
DIGESTS = {
    "tradeconf-short": (
        "9e657eac315d98064a899dd94162b650a6e8dbf0b4a7be32874429f7ac1ae9c0",
        "e256b2ed09e4faa11421c8b07d5337ad70a00a4273ea9a8c2f9704ffce25176e",
        "c6cd1943876e868f9f1f7bd324701f49d9ef6c9f436fd5f8b6669904f496173e"),
    "feeschedule-short": (
        "aec90adbd33faa0c1e8f819373ae8c21e7d774ab53f39fed6b0af241c79a5af9",
        "699cd3d5e6172e68689e47a4162b83908d019dd7a3cad52652392fdf532722f8",
        "133426ee431ee4601e9a11aba42a5c6b1b7343a01d355a74c2f54b46da7f9ef1"),
    "invoice-short": (
        "fe0253f8d138771c1db7c956fbc0044ed14675d652b21d9e8102e326e50038aa",
        "5b6f84116cf2056095cdedb6e7920882ffe719889c79abaad13c5920e6efb71c",
        "175c964df8a5253c2543c7ee783b8255099d9d275e41721b079fdebc0aeac4e0"),
    "tradeconf-long": (
        "d0c42bd24087f82354196acb4144072606ac6b3e0bcbf14934a47437f06484bf",
        "4b266bed6967a325447198a2c0f9ab090a722241fc6afd271d5f94a1b3bb93f5",
        "2458d8b8a9cef25d5263845e08e7a70bfaa61b6b4b71ac47cf855341127e5ccc"),
    "feeschedule-long": (
        "f5bbf91170460b75a1bfbb769ae42e5d4d5298ce39aaabc764c8d1320c547a52",
        "f49f7bf68252a9e61ce8009576ca5b01a5ce73c5e1b178af9da239dbbba87adf",
        "7e6a7710e74d60be5f1835671027084714ad1627fe56d32cca059525d1251ff8"),
    "invoice-long": (
        "14d756097db459164e9248a93c2a3bd08ac2e464d84b7df69a1610190b14cff8",
        "9e0420c869e0cae381aee5b18c7a84a6e803c543594144fe3b3ad9ba9da71899",
        "96978cad921aff17a68ee98de900e7073dd4f0695dc9e2ffd2e307ff55a55ae3"),
    "invoice-uninformative-small-vocab": (
        "339dea247ccb4f024cd74e2ccab8ba2121a3c5f179b93ff10cc138524eea973e",
        "a8fc08edb238b457e6dcb4a4fdfe441f5d606706c9e875f2e5cb84277be6f0c9",
        "400e33cd96acd7ab2204537278dd7e1264d16396528a8f29c27bc280b1153c58"),
}


def _letter_page(doc: DocumentRecord) -> DocumentRecord:
    """The document rescaled onto 612x792 pages, so bbox quantisation rounds."""
    sx, sy = 612.0 / 1000.0, 792.0 / 1000.0
    tokens = [replace(t, bbox=(t.bbox[0] * sx, t.bbox[1] * sy,
                               t.bbox[2] * sx, t.bbox[3] * sy))
              for t in doc.tokens]
    return DocumentRecord(doc.id, [(612.0, 792.0)] * len(doc.pages), tokens)


def corpus_digest(docs) -> str:
    return hashlib.sha256(serialize_documents(docs)).hexdigest()


def raster_digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs + [_letter_page(d) for d in docs]:
        for size in (128, 32):
            for page in sg.render_pages(doc, size=size):
                h.update(repr((page.grid.dtype.str, page.grid.shape)).encode())
                h.update(page.grid.tobytes())
    return h.hexdigest()


def encoding_digest(docs) -> str:
    """Encodings under two bucketings, a vocabulary from half the corpus (so
    unknown words and labels occur) and both the generated and a letter-size
    page geometry.

    The digest hashes an encoding as twelve named arrays, the form in which
    encodings were first pinned: the six coordinate rows of `coord_ids` under
    the names x1_ids ... h_ids, and for `pos1d_ids` and `mask` the arange(T)
    and all-True arrays that every such encoding held. So a pin that holds
    shows every stored byte equal to that first form."""
    h = hashlib.sha256()
    for bucket in (BucketingConfig(),
                   BucketingConfig(fontsize_cluster_bounds=(1.4, 2.4),
                                   font_top_k=1, black_max_channel=30)):
        vocabs = build_vocabularies(docs[:max(1, len(docs) // 2)], bucket)
        for doc in docs + [_letter_page(d) for d in docs]:
            enc = encode_document(doc, vocabs, bucket, strict_labels=False)
            T = enc.length
            first_form = {
                "word_ids": enc.word_ids,
                **dict(zip(("x1_ids", "y1_ids", "x2_ids", "y2_ids", "w_ids",
                            "h_ids"), enc.coord_ids)),
                "pos1d_ids": np.arange(T, dtype=np.int64),
                "style_ids": enc.style_ids, "label_ids": enc.label_ids,
                "mask": np.ones(T, dtype=bool), "page_ids": enc.page_ids}
            for name, arr in first_form.items():
                a = np.ascontiguousarray(arr)
                h.update(repr((name, a.dtype.str, a.shape)).encode())
                h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_setup_bytes_are_pinned(name):
    docs = sg.generate_corpus(CASES[name])
    want_corpus, want_rasters, want_enc = DIGESTS[name]
    assert corpus_digest(docs) == want_corpus
    assert raster_digest(docs) == want_rasters
    assert encoding_digest(docs) == want_enc


def test_long_cases_span_several_pages():
    for name in ("tradeconf-long", "feeschedule-long", "invoice-long"):
        docs = sg.generate_corpus(CASES[name])
        assert all(len(d.pages) >= 2 for d in docs), name
        assert all(450 <= len(d.tokens) for d in docs), name
