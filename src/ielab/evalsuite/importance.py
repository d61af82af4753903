"""Feature-importance probes for style models.

Permutation importance shuffles one bucketed style feature across the whole
evaluation corpus and measures the F1 drop without retraining. A subset run
needs no helper: cross-validate a TaggerSpec whose style_features name the
subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ielab.docstream import STYLE_FEATURES, ModelInput
from ielab.errors import ConfigError, ContractError
from ielab.evalsuite.scoring import entity_scores
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


@dataclass
class ImportanceResult:
    feature: str
    intact_f1: float
    permuted_f1: list[float]

    @property
    def delta_mean(self) -> float:
        return self.intact_f1 - float(np.mean(self.permuted_f1))

    @property
    def delta_std(self) -> float:
        return float(np.std(self.permuted_f1))

    def to_json(self) -> dict:
        return {"feature": self.feature, "intact_f1": self.intact_f1,
                "permuted_f1": self.permuted_f1,
                "delta_mean": self.delta_mean, "delta_std": self.delta_std}


def permutation_importance(model, encoded_docs: list[ModelInput],
                           gold_tags: list[list[str]], label_names: list[str],
                           feature: str, train_cfg, repeats: int = 5,
                           rng: np.random.Generator | None = None,
                           ) -> ImportanceResult:
    """F1(intact) minus mean F1 with `feature` shuffled; no retraining."""
    from ielab.trainloop.chunking import predict_tags  # local to avoid a cycle

    if model.spec.fusion not in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        raise ContractError(
            f"{model.spec.fusion.value} models take no style input to permute")
    if rng is None:
        rng = np.random.default_rng(0)
    intact_pred = [predict_tags(model, e, train_cfg, label_names)
                   for e in encoded_docs]
    intact = entity_scores(intact_pred, gold_tags).weighted_f1
    permuted = []
    for _ in range(repeats):
        shuffled = permute_feature(encoded_docs, feature, rng)
        pred = [predict_tags(model, e, train_cfg, label_names) for e in shuffled]
        permuted.append(entity_scores(pred, gold_tags).weighted_f1)
    return ImportanceResult(feature=feature, intact_f1=intact,
                            permuted_f1=permuted)

