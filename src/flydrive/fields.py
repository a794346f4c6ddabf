"""Field tables for the JSON objects of scenario and terrain files, the one
reader that applies them, and the one writer of records as JSON data.

A table maps each key to (kind, default). A kind is a type (`float` takes any
finite number, `int` only an integer, both within float range; others only
themselves), a tuple of types, an Enum such as `Mode` (one of its values), a
set of allowed strings, or a list of kinds: a JSON list of that length, read
as a tuple (`[float, float]` is `[x, y]`). A missing key takes its default or,
if that is REQUIRED, fails; null is accepted where the default is None. Every
failure goes to `fail(keypath, message)`, which raises.
"""

import dataclasses
import json
import math
import typing
from enum import Enum

REQUIRED = object()


class FieldError(ValueError):
    """A check that failed on one named value, a settings object's field or
    a function's argument; `call` reports it at that value's keypath."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key, self.message = key, message


def load_json(path: str, source: str, error: type):
    """The JSON document in the file at path; a missing file or malformed JSON
    raises error, naming path or the line and column in source."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise error(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def read(obj, table: dict, fail, path: str = "") -> dict:
    """Every key of table, read from the JSON object obj found at keypath path."""
    if type(obj) is not dict:
        fail(path or "top level", f"expected an object, got {obj!r}")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in table:
            fail(prefix + key, "unknown key")
    out = {}
    for key, (kind, default) in table.items():
        if key not in obj:
            if default is REQUIRED:
                fail(prefix + key, "missing required key")
            out[key] = default
        elif obj[key] is None and default is None:
            out[key] = None
        else:
            out[key] = check(obj[key], kind, fail, prefix + key)
    return out


def check(value, kind, fail, path: str):
    """value read as kind, or fail(path, message)."""
    if isinstance(kind, list):
        if type(value) is not list or len(value) != len(kind):
            fail(path, f"expected a list of {len(kind)}, got {value!r}")
        return tuple(check(v, k, fail, f"{path}[{i}]")
                     for i, (v, k) in enumerate(zip(value, kind)))
    if isinstance(kind, (set, frozenset)):
        if type(value) is not str or value not in kind:
            fail(path, f"expected one of {sorted(kind)}, got {value!r}")
        return value
    if isinstance(kind, type) and issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            fail(path, f"expected one of {[m.value for m in kind]}, got {value!r}")
    types = kind if isinstance(kind, tuple) else (kind,)
    t = type(value)
    ok = t in types or (t is int and float in types)
    if not ok or (t is float and not math.isfinite(value)):
        fail(path, f"expected {' or '.join(k.__name__ for k in types)}, got {value!r}")
    if t is int:
        try:
            number = float(value)
        except OverflowError:
            fail(path, "integer too large for a float")
        if int not in types:
            return number
    return value


def call(make, fail, path: str, /, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from its own checks sent to fail at
    path. Keyword arguments are the fields of the object at path, and a
    FieldError from a call given them goes to its field's keypath under
    path; a call given positional arguments only is given the value at path
    itself, and a FieldError from it goes to path, with its message."""
    try:
        return make(*args, **kwargs)
    except FieldError as exc:
        fail(f"{path}.{exc.key}" if kwargs else path, exc.message)
    except ValueError as exc:
        fail(path, str(exc))


def table_of(cls) -> dict:
    """A dataclass's init fields as a table: kinds from the annotations
    (`X | None` is X, `tuple[X, Y]` is [X, Y]), defaults from the fields."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_kind(hints[f.name]),
                     REQUIRED if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.init}


def _kind(hint):
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return [_kind(a) for a in args]
    return _kind(args[0]) if args else hint


_PLAIN = frozenset((bool, int, float, str, type(None)))


def record(value):
    """value as JSON data: a dataclass as a dict of its fields in order, a
    tuple as a list, each item written the same way, anything else as it
    is. Unlike `dataclasses.asdict` it copies nothing it does not convert."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple:  # one call for a tuple of plain values
        return list(value) if _PLAIN.issuperset(map(type, value)) else list(map(record, value))
    if not dataclasses.is_dataclass(kind):
        return value
    return {f.name: record(getattr(value, f.name)) for f in dataclasses.fields(kind)}
