"""Shared exception types."""


class InvalidParameterError(ValueError):
    """Argument outside an operation's documented domain."""


class NotRegularError(InvalidParameterError):
    """Graph not regular, or regular of too small a degree."""


class Graph6ParseError(InvalidParameterError):
    """Malformed graph6 input; ``offset`` is the first offending byte of the
    record.  Given ``line``, the message names the record's 1-based line.
    The error pickles, so it crosses from a worker process unchanged."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{message} (byte offset {offset})")
        self.message = message
        self.offset = offset
        self.line = line

    def __reduce__(self):
        return type(self), (self.message, self.offset, self.line)


class UnsupportedSizeError(InvalidParameterError):
    """Graph too large for single-byte graph6 serialization."""


class CapExceededError(RuntimeError):
    """Requested work above the configured size cap."""
