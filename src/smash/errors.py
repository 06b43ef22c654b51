"""The errors smash raises on input it rejects.

Every rejection is a `SmashError`, whose message says what was rejected
and where; no caller tells one kind from another, so there is one class.
It is a `ValueError`, as `json.JSONDecodeError` is.  A parse error also
carries the line and column it points at.
"""


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
