"""Exception types shared across the package."""

from __future__ import annotations


class AuthFusionError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AuthFusionError):
    """Invalid configuration or input: schema violations, unknown
    identifiers, out-of-range parameters.

    Carries the offending field path and, when the value came from a
    config file, the 1-based source line.
    """

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        self.message = message
        self.field = field
        self.line = line
        full = message
        if field is not None:
            full = f"{field}: {full}"
        if line is not None:
            full = f"line {line}: {full}"
        super().__init__(full)


class EvaluationError(AuthFusionError):
    """An operation was invoked on inputs it cannot evaluate (for example,
    an empty evidence set). Deliberately distinct from a deny decision."""


class NoUsableFactorsError(EvaluationError):
    """Context gating left no factor that could contribute to a decision."""


class CapacityError(AuthFusionError):
    """Exact computation was requested beyond its supported problem size."""
