"""Training protocol: chunking, augmentation, fold training, CV, t-test,
`score_documents`, the one loop that tags and scores a corpus, and the
permutation importance built on it."""

from ielab.trainloop.augment import augment_bboxes, augment_tokens
from ielab.trainloop.chunking import (
    Chunk,
    aggregate_chunk_predictions,
    chunk_document,
    permutation_importance,
    permute_feature,
    predict_tags,
    predict_token_probs,
    score_documents,
)
from ielab.trainloop.stats import paired_t_test
from ielab.trainloop.training import (
    CVResult,
    FoldResult,
    TrainConfig,
    cross_validate,
    make_fold_plan,
    train_fold,
)

__all__ = [
    "CVResult", "Chunk", "FoldResult", "TrainConfig",
    "aggregate_chunk_predictions", "augment_bboxes", "augment_tokens",
    "chunk_document", "cross_validate", "make_fold_plan", "paired_t_test",
    "permutation_importance", "permute_feature", "predict_tags",
    "predict_token_probs", "score_documents", "train_fold",
]
