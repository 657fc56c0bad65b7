"""Exception types shared across the package."""


class OddGracefulError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParameterError(OddGracefulError, ValueError):
    """A parameter (cycle or path order, node budget) is not an integer or out of range."""


class ValidationError(OddGracefulError, ValueError):
    """Input data breaks a graph invariant (self-loop, duplicate edge, bad id), or
    a labeling does not fit its graph (length, edge count, a non-integer label)."""


class ParseError(OddGracefulError, ValueError):
    """A text document could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
