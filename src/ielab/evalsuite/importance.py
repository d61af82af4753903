"""Feature-importance probes for style models.

Permutation importance (Breiman 2001; Fisher, Rudin and Dominici 2019)
shuffles one bucketed style feature across the whole evaluation corpus and
measures the F1 drop without retraining. One call scores the intact corpus
once, then each feature's shuffles in turn. A subset run needs no helper:
cross-validate a TaggerSpec whose style_features name the subset.
"""

from __future__ import annotations

import numpy as np

from ielab.docstream import STYLE_FEATURES, ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.stylefuse.fusion import FusionMode


def permute_feature(encoded_docs: list[ModelInput], feature: str,
                    rng: np.random.Generator) -> list[ModelInput]:
    """Shuffle one feature's bucketed values across all tokens of the corpus."""
    if feature not in STYLE_FEATURES:
        raise ConfigError(f"unknown style feature {feature!r}; "
                          f"expected one of {STYLE_FEATURES}")
    m = STYLE_FEATURES.index(feature)
    values = np.concatenate([doc.style_ids[m] for doc in encoded_docs])
    perm = rng.permutation(values)
    out = []
    pos = 0
    for doc in encoded_docs:
        copy = doc.copy()
        copy.style_ids[m] = perm[pos:pos + doc.length]
        pos += doc.length
        out.append(copy)
    return out


def permutation_importance(model, encoded_docs: list[ModelInput],
                           gold_tags: list[list[str]], label_names: list[str],
                           features: list[str], train_cfg, repeats: int,
                           rng: np.random.Generator) -> list[dict]:
    """Per feature, F1(intact) minus mean F1 over `repeats` shuffles of it,
    the shuffles drawn from `rng` in feature order; no retraining."""
    from ielab.trainloop.chunking import score_documents  # avoids a cycle

    if model.spec.fusion not in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        raise ContractError(
            f"{model.spec.fusion.value} models take no style input; "
            "permutation importance needs a style fusion mode")

    def f1(docs: list[ModelInput]) -> float:
        return score_documents(model, docs, gold_tags, train_cfg,
                               label_names)[1].weighted_f1

    intact = f1(encoded_docs)
    results = []
    for feature in features:
        permuted = [f1(permute_feature(encoded_docs, feature, rng))
                    for _ in range(repeats)]
        results.append({"feature": feature, "intact_f1": intact,
                        "permuted_f1": permuted,
                        "delta_mean": intact - float(np.mean(permuted)),
                        "delta_std": float(np.std(permuted))})
    return results
