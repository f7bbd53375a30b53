"""Exception types shared across the package."""


class FloqlatError(Exception):
    """Base class for all package errors."""


class ValidationError(FloqlatError):
    """Invalid arguments or malformed inputs (CLI exit code 2)."""


class NumericalError(FloqlatError):
    """A numerical check failed during a computation (CLI exit code 3)."""


class GaplessPointError(FloqlatError):
    """Bulk gap too small to classify: the point sits on or near a phase boundary."""
