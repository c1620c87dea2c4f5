"""Shared exception types and the size check."""


class LibraryError(ValueError):
    """The base of every error the library raises on purpose."""


class InvalidObjectError(LibraryError):
    """A partition or path failed to parse or violates its invariants."""


class PreconditionError(LibraryError):
    """A structurally valid object is outside the domain of an operation."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LimitExceededError(LibraryError):
    """An exhaustive list or count request exceeds the CLI's limit."""


def require_size(n, what: str) -> None:
    """Raise unless the size ``n``, named ``what`` in the message, is a plain
    int and non-negative."""
    if type(n) is not int:
        raise InvalidObjectError(f"{what} must be an int, got {n!r}")
    if n < 0:
        raise InvalidObjectError(f"{what} must be non-negative")
