"""The errors smash raises on input it rejects.

Every rejection is a `SmashError`, whose message says what was rejected
and where; no caller tells one kind from another, so there is one class.
It is a `ValueError`, as `json.JSONDecodeError` is.  A parse error also
carries the line and column it points at.  The JSON files smash reads (a
sidecar schema, a model, a run log) are checked here, so each rejection
names the file.
"""

import json
from dataclasses import MISSING, fields


class SmashError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(SmashError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedConstruct(ParseError):
    pass


def json_object(path, what):
    """The JSON object in the file `path`.  Invalid JSON, or JSON that is
    not an object, raises SmashError naming the file and `what` the object
    should hold."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SmashError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SmashError(f"{path}: not a JSON object of {what}")
    return payload


def from_fields(cls, payload, path):
    """The dataclass `cls` made from the JSON object `payload`, read from
    `path`.  A payload that is not an object, lacks a field without a
    default or has a key that is no field raises SmashError naming the file
    and the class."""
    if not isinstance(payload, dict):
        raise SmashError(f"{path}: {cls.__name__} is not a JSON object")
    params = {f.name: f for f in fields(cls) if f.init}
    unknown = [key for key in payload if key not in params]
    if unknown:
        raise SmashError(f"{path}: {cls.__name__} has no field {', '.join(unknown)}")
    missing = [name for name, f in params.items() if name not in payload
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise SmashError(f"{path}: {cls.__name__} lacks {', '.join(missing)}")
    return cls(**payload)
