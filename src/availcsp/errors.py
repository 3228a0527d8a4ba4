"""Shared exception types."""
from __future__ import annotations


class AvailCspError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AvailCspError):
    """Malformed textual input (trace literal, process expression, spec file)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class SpecError(AvailCspError):
    """A spec file is syntactically fine but semantically ill-formed."""


class OutOfUniverseError(AvailCspError):
    """A trace query fell outside the bounded universe of the model parameters.

    Raised instead of returning False so that callers cannot mistake an
    out-of-bounds query for a definite non-membership answer.
    """


class BudgetError(AvailCspError):
    """A computation could not finish within its configured budget."""
