"""One JSON form for the frozen config dataclasses: tuples as lists, enums as
their values, nested configs as objects. Decoding fills missing keys from the
field defaults and rejects missing keys without one, unknown keys or enum
values, naming allowed ones, and values whose JSON type does not fit the
field's annotation (an int field takes no bool or float, a float field takes
an int, a tuple field a list of fitting items).

`parse_json` reads the JSON of specs, checkpoint headers and corpus lines."""

from __future__ import annotations

import dataclasses
import enum
import json
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


def parse_json(raw: bytes | str, what: str):
    """The value that JSON `raw` (UTF-8 bytes or text) encodes; a
    DataValidationError starting with `what` if `raw` is not UTF-8, not
    JSON, or nested too deeply for the parser."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError too
        raise DataValidationError(f"{what}: {exc}") from None


_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def decode(kind, value):
    """The value of type `kind` (a field annotation) that JSON `value` encodes."""
    union = isinstance(kind, types.UnionType)
    options = typing.get_args(kind) if union else (kind,)
    if value is None and type(None) in options:
        return None
    option = next(o for o in options if o is not type(None))
    if isinstance(option, type) and issubclass(option, JsonConfig):
        return option.from_json(value)
    if isinstance(option, type) and issubclass(option, enum.Enum):
        allowed = [m.value for m in option]
        if value not in allowed:
            raise DataValidationError(
                f"unknown {option.__name__} {value!r}; allowed: {allowed}")
        return option(value)
    if option in _SCALARS:
        if not isinstance(value, _SCALARS[option]) \
                or isinstance(value, bool) != (option is bool):
            raise DataValidationError(
                f"expected {option.__name__}, got {value!r}")
        return value
    if option is tuple or typing.get_origin(option) is tuple:
        if not isinstance(value, (list, tuple)):
            raise DataValidationError(f"expected a list, got {value!r}")
        items = typing.get_args(option)
        if not items:
            return tuple(value)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(items) != len(value):
            raise DataValidationError(
                f"expected a list of {len(items)} items, got {value!r}")
        return tuple(decode(k, v) for k, v in zip(items, value))
    return value


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
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in obj
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise DataValidationError(f"{cls.__name__} lacks keys {missing}")
        kinds = typing.get_type_hints(cls)
        values = {}
        for key, value in obj.items():
            try:
                values[key] = decode(kinds[key], value)
            except DataValidationError as exc:
                raise DataValidationError(f"{cls.__name__}.{key}: {exc}") \
                    from None
        return cls(**values)
