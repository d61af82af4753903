"""One JSON form for the frozen config dataclasses: tuples as lists, enums as
their values, nested configs as objects. Decoding fills missing keys from the
field defaults and rejects unknown keys or enum values, naming allowed ones."""

from __future__ import annotations

import dataclasses
import enum
import types
import typing

from ielab.errors import DataValidationError


def _plain(value):
    if isinstance(value, JsonConfig):
        return value.to_json()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def decode(kind, value):
    """The value of type `kind` (a field annotation) that JSON `value` encodes."""
    union = isinstance(kind, types.UnionType)
    options = typing.get_args(kind) if union else (kind,)
    if value is None and type(None) in options:
        return None
    for option in options:
        if isinstance(option, type) and issubclass(option, JsonConfig):
            return option.from_json(value)
        if isinstance(option, type) and issubclass(option, enum.Enum):
            allowed = [m.value for m in option]
            if value not in allowed:
                raise DataValidationError(
                    f"unknown {option.__name__} {value!r}; allowed: {allowed}")
            return option(value)
    return tuple(value) if isinstance(value, list) else value


class JsonConfig:
    """Base of config dataclasses; see the module docstring."""

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_json(cls, obj: dict):
        allowed = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(obj, dict):
            raise DataValidationError(f"{cls.__name__} must be a JSON object")
        unknown = sorted(set(obj) - set(allowed))
        if unknown:
            raise DataValidationError(
                f"unknown {cls.__name__} keys: {unknown}; allowed: {allowed}")
        kinds = typing.get_type_hints(cls)
        return cls(**{k: decode(kinds[k], v) for k, v in obj.items()})
