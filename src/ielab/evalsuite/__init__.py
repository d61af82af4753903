"""Entity decoding, scoring and parameter accounting.

The loop that tags a corpus and scores it is trainloop.score_documents,
which validation, CV test scoring, `ielab eval` and the ablation
(trainloop.permutation_importance) share.
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

__all__ = [
    "ClassReport", "ClassScores", "EntitySpan",
    "ParamBreakdown", "TABLE1_PARAMS_M", "count_parameters", "decode_iob",
    "entity_scores", "format_breakdowns", "table1_consistency",
]
