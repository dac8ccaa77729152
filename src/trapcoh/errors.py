"""Exception types shared across the package.

Every error carries a short machine-readable ``kind`` string which the CLI
forwards in its JSON error reports.
"""


class TrapcohError(Exception):
    """Base class for all package errors."""

    kind = "error"

    def __init__(self, message, kind=None):
        super().__init__(message)
        if kind is not None:
            self.kind = kind


class ConfigError(TrapcohError):
    """Invalid or missing configuration input, or an unwritable output (CLI exit code 2)."""

    kind = "config_error"


class DomainError(TrapcohError, ValueError):
    """Argument outside the physically meaningful domain (CLI exit code 2)."""

    kind = "domain_error"


class UnidentifiableModelError(TrapcohError):
    """Data cannot constrain the requested model (degenerate input)."""

    kind = "unidentifiable"


class FitConvergenceError(TrapcohError):
    """Optimizer failed to converge within the iteration cap."""

    kind = "non_convergence"
