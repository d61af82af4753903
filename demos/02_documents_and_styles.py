"""From raw documents to model inputs: parsing, bucketing, vocabularies.

Run:  python demos/02_documents_and_styles.py
"""

from ielab import synthdocs
from ielab.docstream import (
    STYLE_FEATURES,
    BucketingConfig,
    build_vocabularies,
    encode_document,
    median_font_size,
    normalize_bbox,
    parse_documents,
    serialize_documents,
)

# A corpus is one JSON document per line; the generator gives us realistic
# styled fixtures without any real PDFs.
docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
    template="TRADECONF", n_docs=5, tokens_per_doc=(16, 24), seed=42))

blob = serialize_documents(docs)
print(f"serialized {len(docs)} documents, {len(blob)} bytes")
docs2 = parse_documents(blob)
print(f"parse(serialize(docs)) == docs: {docs2 == docs}")

doc = docs[0]
print(f"\ndocument {doc.id}: {len(doc.tokens)} tokens on {len(doc.pages)} page(s)")
for tok in doc.tokens[:8]:
    marks = "".join(("B" if tok.bold else "-", "T" if tok.in_table else "-"))
    print(f"  {tok.text:>12s}  {tok.label:16s} {marks} "
          f"size={tok.font_size:<4} color={tok.color}")

# Geometry is quantized onto a [0, 1000] grid, whatever the page units.
print("\nbbox quantization on a 612x792 page:")
box = normalize_bbox([[61.2], [79.2], [122.4], [158.4]], [[612], [792]])
print("  (61.2, 79.2, 122.4, 158.4) ->", tuple(box[:, 0].tolist()))

# Style attributes become small discrete vocabularies: bold and inTable are
# booleans, color collapses to black / not-black, font size buckets by the
# ratio to the document median, fonts keep only the top-k names.
cfg = BucketingConfig()
print(f"\nmedian font size in {doc.id}: {median_font_size(doc)}")

vocabs = build_vocabularies(docs, cfg)
print(f"word vocabulary: {vocabs.word.size} ids (incl. PAD/UNK)")
sizes = dict(zip(STYLE_FEATURES, vocabs.style.size_list()))
print(f"style vocab sizes: {sizes}")
print(f"label map: {vocabs.labels}")

enc = encode_document(doc, vocabs, cfg)
print(f"\nencoded: T={enc.length}")
print(f"  word_ids[:8]  = {enc.word_ids[:8]}")
print(f"  coord_ids[:, :8] (x1, y1, x2, y2, w, h) =\n{enc.coord_ids[:, :8]}")
print(f"  style_ids[:, :8] =\n{enc.style_ids[:, :8]}")
print(f"  label_ids[:8] = {enc.label_ids[:8]}")
