"""Inside the layout encoder: additive embeddings and padding invariance.

Run:  python demos/03_layout_encoder.py
"""

import numpy as np

from ielab import layoutcore as lc
from ielab import synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.tensorcore import Tensor, ops

docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
    template="FEESCHEDULE", n_docs=3, tokens_per_doc=(14, 20), seed=7))
bucket = BucketingConfig()
vocabs = build_vocabularies(docs, bucket)
inp = encode_document(docs[0], vocabs, bucket)

cfg = lc.EncoderConfig(word_vocab=vocabs.word.size,
                       label_count=len(vocabs.labels),
                       hidden=32, layers=2, heads=2, seed=5)
params = lc.init_parameters(cfg)

# The per-token input embedding is the sum of eight tables: word identity,
# 1-D position, and six quantized geometry tables (x1, y1, x2, y2, w, h).
e = lc.embed_tokens(inp, params)
print(f"embedded {inp.length} tokens -> {e.data.shape}")

direct = (params["word_table"].data[inp.word_ids[0]]
          + params["pos1d"].data[0]
          + params["pos2d.x1"].data[inp.x1_ids[0]]
          + params["pos2d.y1"].data[inp.y1_ids[0]]
          + params["pos2d.x2"].data[inp.x2_ids[0]]
          + params["pos2d.y2"].data[inp.y2_ids[0]]
          + params["pos2d.w"].data[inp.w_ids[0]]
          + params["pos2d.h"].data[inp.h_ids[0]])
print("token 0 equals the eight-term sum:",
      np.allclose(e.data[0], direct, atol=1e-12))

# The transformer stack never lets padded positions leak into real ones.
L = lc.encoder_forward(e, inp.mask, params)
padded = Tensor(np.vstack([e.data, np.ones((4, 32))]))
mask = np.concatenate([inp.mask, np.zeros(4, dtype=bool)])
L_padded = lc.encoder_forward(padded, mask, params)
drift = np.abs(L.data - L_padded.data[:inp.length]).max()
print(f"padding invariance: max drift {drift:.2e}")

# First-layer attention weights of head 0, read through the attention op
# itself: with v one on a set of keys and zero elsewhere, every output is the
# weight each query puts on those keys.
h = ops.layer_norm(e, params["embed_ln.gain"], params["embed_ln.bias"])
q = ops.linear(h, params["layer.0.attn.q"], params["layer.0.attn.q_bias"])
k = ops.linear(h, params["layer.0.attn.k"], params["layer.0.attn.k_bias"])


def weights_on(keys):
    v = Tensor(np.repeat(keys.astype(float)[:, None], cfg.hidden, axis=1))
    return ops.attention(q, k, v, None, cfg.heads).data[:, 0]


print(f"attention row sums: {weights_on(np.ones(inp.length))[:5]}")
from_token0 = [weights_on(np.arange(inp.length) == j)[0]
               for j in range(inp.length)]
best = int(np.argmax(from_token0))
print(f"strongest attention for token 0: token {best} "
      f"({docs[0].tokens[best].text!r})")
