"""Entity decoding, scoring and parameter accounting.

The loop that tags a corpus and scores it is trainloop.score_documents,
which validation, CV test scoring, `ielab eval` and the ablation
(trainloop.permutation_importance) share. `parameter_report` is the one
text of the parameter tables and the published ratios, which `ielab params`
and demo 06 print.
"""

from ielab.evalsuite.iob import EntitySpan, decode_iob
from ielab.evalsuite.scoring import ClassReport, ClassScores, entity_scores
from ielab.evalsuite.accounting import (
    ParamBreakdown,
    TABLE1_PARAMS_M,
    count_parameters,
    parameter_report,
)

__all__ = [
    "ClassReport", "ClassScores", "EntitySpan",
    "ParamBreakdown", "TABLE1_PARAMS_M", "count_parameters", "decode_iob",
    "entity_scores", "parameter_report",
]
