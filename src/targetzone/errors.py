"""Exception hierarchy shared by all targetzone modules.

Two bases so the CLI can map failures to exit codes: bad inputs or
configuration raise :class:`ValidationError` (exit 2), failures inside a
numerical routine raise :class:`NumericalError` (exit 3).
"""

__all__ = [
    "ValidationError",
    "DomainError",
    "PoleError",
    "NumericalError",
    "ConvergenceError",
    "BracketError",
    "SingularSystemError",
]


class ValidationError(ValueError):
    """Invalid parameters, configuration, or call preconditions."""


class DomainError(ValidationError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole of the function."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """An iterative scheme exhausted its iteration budget."""


class BracketError(NumericalError):
    """A root bracket shows no sign change; indicates an internal bug."""


class SingularSystemError(NumericalError):
    """A linear system is singular to working precision."""
