"""Entity decoding, scoring, parameter accounting, and permutation importance.

The loop that tags a corpus and scores it is trainloop.score_documents,
which validation, CV test scoring, `ielab eval` and the ablation share.
"""

from ielab.evalsuite.iob import EntitySpan, decode_iob
from ielab.evalsuite.scoring import ClassReport, ClassScores, entity_scores
from ielab.evalsuite.accounting import (
    ParamBreakdown,
    TABLE1_PARAMS_M,
    count_parameters,
    format_breakdowns,
    table1_consistency,
)
from ielab.evalsuite.importance import permutation_importance, permute_feature

__all__ = [
    "ClassReport", "ClassScores", "EntitySpan",
    "ParamBreakdown", "TABLE1_PARAMS_M", "count_parameters", "decode_iob",
    "entity_scores", "format_breakdowns", "permutation_importance",
    "permute_feature", "table1_consistency",
]
