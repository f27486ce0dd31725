"""Exception hierarchy shared by all targetzone modules.

Two bases so the CLI can map failures to exit codes: bad inputs or
configuration raise :class:`ValidationError` (exit 2), failures inside a
numerical routine raise :class:`NumericalError` (exit 3).  The message
says which check or solve failed.
"""

__all__ = ["ValidationError", "DomainError", "NumericalError"]


class ValidationError(ValueError):
    """Invalid parameters, configuration, or call preconditions."""


class DomainError(ValidationError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""
