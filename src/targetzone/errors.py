"""Exception hierarchy shared by all targetzone modules.

Two bases so the CLI can map failures to exit codes: bad inputs or
configuration raise :class:`ValidationError` (exit 2), failures inside a
numerical routine raise :class:`NumericalError` (exit 3).  The message
says which check or solve failed.  The CLI also maps a bare
``OverflowError`` to exit 3: a Python-float ``**`` past the double range
raises it (``d**2`` in ``stationary`` at alpha 1e300, ``omega1**2`` in
``feasibility`` at f_bar 1e-300), and no routine here raises it itself.
"""

__all__ = ["ValidationError", "DomainError", "NumericalError"]


class ValidationError(ValueError):
    """Invalid parameters, configuration, or call preconditions."""


class DomainError(ValidationError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""
