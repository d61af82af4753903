"""IOB tag sequences -> entity spans.

Decoding applies a repair rule rather than dropping tokens: an I-X that does
not continue an open X span starts a new span. A B- tag always opens a span,
so adjacent same-class entities stay separated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ielab.docstream import LABEL_RE
from ielab.errors import DataValidationError


@dataclass(frozen=True, order=True)
class EntitySpan:
    start: int
    end: int          # half-open
    cls: str

    def __post_init__(self):
        if self.start >= self.end:
            raise DataValidationError(f"empty span [{self.start},{self.end})")
        if self.cls == "O":
            raise DataValidationError("spans cannot have class O")


def decode_iob(tags: list[str]) -> list[EntitySpan]:
    spans: list[EntitySpan] = []
    open_start = None
    open_cls = None

    def close(end):
        nonlocal open_start, open_cls
        if open_start is not None:
            spans.append(EntitySpan(open_start, end, open_cls))
            open_start = open_cls = None

    for i, tag in enumerate(tags):
        if not isinstance(tag, str) or not LABEL_RE.match(tag):
            raise DataValidationError(f"malformed IOB tag {tag!r} at index {i}")
        if tag == "O":
            close(i)
        elif tag.startswith("B-"):
            close(i)
            open_start, open_cls = i, tag[2:]
        else:  # I-X: continue X, otherwise repair by opening a new span
            cls = tag[2:]
            if open_cls != cls:
                close(i)
                open_start, open_cls = i, cls
    close(len(tags))
    return spans

