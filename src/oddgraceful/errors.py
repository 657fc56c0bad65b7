"""Exception types shared across the package."""


class OddGracefulError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(OddGracefulError, ValueError):
    """A value breaks a rule: a size, bound or budget that is not an integer or
    is out of range, a graph invariant (self-loop, duplicate edge, bad id), a
    labeling that does not fit its graph, a report that contradicts itself,
    or an int with more digits than the interpreter writes."""


class ParseError(OddGracefulError, ValueError):
    """A text is not in its format; carries the line number where there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
