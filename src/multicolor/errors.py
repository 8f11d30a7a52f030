"""Exception types shared across the package."""


class MulticolorError(Exception):
    """Base class for all errors raised by this package."""


class NotFound(MulticolorError):
    """A node or other entity was looked up but does not exist."""


class InvalidParams(MulticolorError):
    """Arguments violate a documented precondition."""


class ParseError(MulticolorError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TooLarge(MulticolorError):
    """The requested computation exceeds a hard resource guard."""


class ContractViolation(MulticolorError):
    """A node computation broke the one-shot locality contract."""


class Incomplete(MulticolorError):
    """A coloring does not cover the node set it is checked against."""


class RefusedInvalid(MulticolorError):
    """Refusing to convert a coloring that failed verification."""


class Infeasible(MulticolorError):
    """No parameter choice satisfies the construction constraints."""
