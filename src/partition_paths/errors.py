"""Shared exception types, the exhaustive-generation limit and the size check."""

import math

# Exhaustive generators refuse sizes above this unless told otherwise.
DEFAULT_LIMIT = 12


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
    """An exhaustive generation request exceeds the configured limit."""


def require_size(n, what: str, limit=math.inf) -> None:
    """Raise unless the size ``n``, named ``what`` in the message, is a plain
    int, non-negative and at most ``limit`` (a generator's limit of None is
    not read as no limit)."""
    if type(n) is not int:
        raise InvalidObjectError(f"{what} must be an int, got {n!r}")
    if n < 0:
        raise InvalidObjectError(f"{what} must be non-negative")
    if n > limit:
        raise LimitExceededError(f"n={n} exceeds the exhaustive limit {limit}")
