"""Semantic exception hierarchy. Public functions never raise bare ValueError."""

__all__ = [
    "EurError",
    "DomainError",
    "SingularValueError",
    "BracketError",
    "ConvergenceError",
]


class EurError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EurError, ValueError):
    """An argument lies outside the legal range of the operation."""


class SingularValueError(DomainError):
    """Evaluation hit a singular point (nonpositive log argument, endpoint)."""


class BracketError(EurError, ValueError):
    """A root bracket does not enclose a sign change."""


class ConvergenceError(EurError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""
