"""Entity-level precision/recall/F1 with strict span matching.

A predicted span counts as correct only when start, end, and class all match
a gold span. The weighted average weighs per-class F1 by gold support; classes
that are predicted but absent from gold still appear in the report (their fp
counts) with zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ielab.errors import DataValidationError
from ielab.evalsuite.iob import decode_iob


@dataclass
class ClassScores:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class ClassReport:
    per_class: dict[str, ClassScores] = field(default_factory=dict)

    @property
    def weighted_f1(self) -> float:
        """Summed in class-name order, so its bits never follow the order
        classes were met in (set order, which varies between processes)."""
        scores = [s for _, s in sorted(self.per_class.items())]
        total = sum(s.support for s in scores)
        if total == 0:
            return 0.0
        return sum(s.support * s.f1 for s in scores) / total

    def to_json(self) -> dict:
        return {
            "weighted_f1": self.weighted_f1,
            "classes": {
                cls: {"tp": s.tp, "fp": s.fp, "fn": s.fn,
                      "precision": s.precision, "recall": s.recall,
                      "f1": s.f1, "support": s.support}
                for cls, s in sorted(self.per_class.items())
            },
        }


def entity_scores(pred_docs: list[list[str]],
                  gold_docs: list[list[str]]) -> ClassReport:
    """Micro counts over the corpus; inputs are per-document tag sequences."""
    if len(pred_docs) != len(gold_docs):
        raise DataValidationError(
            f"{len(pred_docs)} predicted documents vs {len(gold_docs)} gold")
    report = ClassReport()
    for di, (pred, gold) in enumerate(zip(pred_docs, gold_docs)):
        if len(pred) != len(gold):
            raise DataValidationError(
                f"document {di}: {len(pred)} predicted tags vs {len(gold)} gold")
        pred_spans = set(decode_iob(pred))
        gold_spans = set(decode_iob(gold))
        for span in pred_spans & gold_spans:
            report.per_class.setdefault(span.cls, ClassScores()).tp += 1
        for span in pred_spans - gold_spans:
            report.per_class.setdefault(span.cls, ClassScores()).fp += 1
        for span in gold_spans - pred_spans:
            report.per_class.setdefault(span.cls, ClassScores()).fn += 1
    return report
