"""One typed JSON schema for every config dataclass and the checkpoint metadata.

A dataclass's field annotations are its schema. `from_json` requires every
key, rejects unknown keys and never coerces a value: 64.0 and true are not
the integer 64 or 1. Each error is one ValueError naming the dotted key
path, such as `model.convs.0.stride`. Range checks stay in each class's
`__post_init__`; their errors are prefixed with the path of the object.
"""

from __future__ import annotations

import types
import typing
from dataclasses import asdict, fields, is_dataclass

# Scalar annotation -> (its name in errors, accepted JSON types). bool
# subclasses int, so it is refused separately for int and float.
_SCALARS = {str: ("a string", str), bool: ("true or false", bool),
            int: ("an integer", int), float: ("a number", (int, float))}


def from_json(cls, value, path: str = ""):
    """Check parsed JSON `value` against the annotation `cls` and build it; `path` names it."""
    where = path or "top level"
    if is_dataclass(cls):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        hints = typing.get_type_hints(cls)
        names = [f.name for f in fields(cls)]
        bad_keys = sorted(value.keys() ^ set(names))  # unknown or missing
        if bad_keys:
            problem = "has unknown" if bad_keys[0] in value else "lacks"
            raise ValueError(f"{where} {problem} key {bad_keys[0]!r}")
        kwargs = {n: from_json(hints[n], value[n], f"{path}.{n}" if path else n) for n in names}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}" if path else str(exc)) from None
    origin = typing.get_origin(cls)
    if origin is types.UnionType:  # X | None
        (inner,) = [arg for arg in typing.get_args(cls) if arg is not type(None)]
        return None if value is None else from_json(inner, value, path)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(cls)[0]
        return tuple(from_json(item, v, f"{path}.{i}") for i, v in enumerate(value))
    what, kinds = _SCALARS[cls]
    if not isinstance(value, kinds) or (cls is not bool and isinstance(value, bool)):
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return value


def to_json(obj) -> dict:
    """`dataclasses.asdict` with every tuple written as a list."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return [plain(v) for v in value] if isinstance(value, (list, tuple)) else value

    return plain(asdict(obj))
