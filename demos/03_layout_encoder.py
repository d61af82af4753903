"""Inside the layout encoder: additive embeddings and packing invariance.

Run:  python demos/03_layout_encoder.py
"""

import numpy as np

from ielab import layoutcore as lc
from ielab import synthdocs
from ielab.docstream import (BucketingConfig, build_vocabularies,
                             encode_document, pack_inputs)
from ielab.tensorcore import Tensor, ops

docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
    template="FEESCHEDULE", n_docs=3, tokens_per_doc=(14, 20), seed=7))
bucket = BucketingConfig()
vocabs = build_vocabularies(docs, bucket)
inp = encode_document(docs[0], vocabs, bucket)

cfg = lc.EncoderConfig(word_vocab=vocabs.word.size,
                       label_count=len(vocabs.labels),
                       hidden=32, layers=2, heads=2, seed=5)
params = lc.init_parameters(cfg)     # name -> Tensor, one entry per table

# The per-token input embedding is the sum of eight tables: word identity,
# 1-D position, and six quantized geometry tables (x1, y1, x2, y2, w, h).
e = lc.embed_tokens(inp, params, cfg, [inp.length])
print(f"embedded {inp.length} tokens -> {e.data.shape}")

x1, y1, x2, y2, w, h = inp.coord_ids[:, 0]
direct = (params["word_table"].data[inp.word_ids[0]]
          + params["pos1d"].data[0]
          + params["pos2d.x1"].data[x1]
          + params["pos2d.y1"].data[y1]
          + params["pos2d.x2"].data[x2]
          + params["pos2d.y2"].data[y2]
          + params["pos2d.w"].data[w]
          + params["pos2d.h"].data[h])
print("token 0 equals the eight-term sum:",
      np.allclose(e.data[0], direct, atol=1e-12))

# Chunks are packed back to back, never padded, and `lengths` lists their
# token counts (one entry for one chunk): two documents in one forward give
# the rows of two separate forwards, since attention never crosses a chunk
# and positions restart at 0 in each.
other = encode_document(docs[1], vocabs, bucket)
lengths = [inp.length, other.length]
packed = lc.encoder_forward(lc.embed_tokens(pack_inputs([inp, other]), params,
                                            cfg, lengths), params, cfg, lengths)
alone = np.vstack([lc.encoder_forward(lc.embed_tokens(x, params, cfg, [n]),
                                      params, cfg, [n]).data
                   for x, n in zip((inp, other), lengths)])
print(f"packing invariance over {lengths} tokens: max drift "
      f"{np.abs(packed.data - alone).max():.2e}")

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
