"""Training protocol: chunking, augmentation, fold training, CV, t-test,
and `score_documents`, the one loop that tags and scores a corpus."""

from ielab.trainloop.augment import augment_bboxes, augment_tokens
from ielab.trainloop.chunking import (
    Chunk,
    aggregate_chunk_predictions,
    chunk_document,
    predict_tags,
    predict_token_probs,
    score_documents,
)
from ielab.trainloop.stats import paired_t_test
from ielab.trainloop.training import (
    CVResult,
    FoldPlan,
    FoldResult,
    TrainConfig,
    cross_validate,
    make_fold_plan,
    train_fold,
)

__all__ = [
    "CVResult", "Chunk", "FoldPlan", "FoldResult", "TrainConfig",
    "aggregate_chunk_predictions", "augment_bboxes", "augment_tokens",
    "chunk_document", "cross_validate", "make_fold_plan", "paired_t_test",
    "predict_tags", "predict_token_probs", "score_documents", "train_fold",
]
