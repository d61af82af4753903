"""A small end-to-end experiment: does style fusion beat the baseline?

Generates a corpus whose bold/table flags genuinely disambiguate entities,
cross-validates a baseline encoder against a style-concatenation model,
compares them with a paired t-test, and asks the trained model which feature
mattered via permutation importance.

Takes a couple of minutes on a laptop.  Run:
    python demos/05_training_experiment.py
"""

import numpy as np

from ielab import synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, TaggerSpec
from ielab.trainloop import (
    TrainConfig,
    cross_validate,
    paired_t_test,
    permutation_importance,
)

corpus = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
    template="TRADECONF", n_docs=60, tokens_per_doc=(18, 30), seed=11))
bucket = BucketingConfig()
# constant learning rate + Adam, 2-document batches, augmentation on; the
# rate is raised above the fine-tuning default because we train from scratch
train_cfg = TrainConfig(lr=1e-3, epochs=8, seed=0, folds=3)
encoder = EncoderConfig(word_vocab=2, label_count=1, hidden=48, layers=2,
                        heads=2, seed=0)

results = {}
for mode in (FusionMode.BASELINE, FusionMode.STYLE_CONCAT):
    spec = TaggerSpec(encoder=encoder, fusion=mode, style_dim=16)
    results[mode] = cross_validate(corpus, spec, train_cfg, bucket)
    r = results[mode]
    print(f"{mode.value:13s} per-fold F1 {[f'{v:.3f}' for v in r.per_fold_f1]} "
          f"-> {r.mean:.3f} +/- {r.std:.3f}  ({r.params:,} params)")

t, p = paired_t_test(results[FusionMode.STYLE_CONCAT].per_fold_f1,
                     results[FusionMode.BASELINE].per_fold_f1)
print(f"\npaired t-test over folds: t = {t:.3f}, two-sided p = {p:.4f}")

# Permutation importance: shuffle one bucketed feature corpus-wide and watch
# the F1 drop. Bold marks entity starts in this template, color is noise.
fold = results[FusionMode.STYLE_CONCAT].fold_results[0]
test_ids = set(results[FusionMode.STYLE_CONCAT].folds[0]["test"])
test_docs = [d for d in corpus if d.id in test_ids]
enc_docs = [encode_document(d, fold.vocabs, bucket, strict_labels=False)
            for d in test_docs]
gold = [[t.label for t in d.tokens] for d in test_docs]
print("\npermutation importance (fold-0 model, fold-0 test split):")
for res in permutation_importance(fold.model, enc_docs, gold,
                                  fold.vocabs.label_names(),
                                  ["bold", "inTable", "color"], train_cfg,
                                  3, np.random.default_rng(1)):
    print(f"  {res['feature']:8s} delta F1 {res['delta_mean']:+.4f} "
          f"+/- {res['delta_std']:.4f}")
