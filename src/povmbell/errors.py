"""Exception taxonomy shared by all povmbell modules.

The CLI maps these onto process exit codes: ConfigError is a user-input
problem (exit 2), everything else derived from PovmBellError signals a
violated numeric contract (exit 3). Plain OSError stays an I/O error (exit 4).

Caller arrays and numbers enter through one conversion: ragged input raises
ShapeMismatchError, entries that are not numbers DomainError. Both subclass
ValueError; a former TypeError (None for a number, say) is not one.
"""

from __future__ import annotations

__all__ = [
    "PovmBellError",
    "ShapeMismatchError",
    "DomainError",
    "PovmValidationError",
    "NotHermitianError",
    "NotPositiveError",
    "NotCompleteError",
    "InvariantViolationError",
    "ConfigError",
]


class PovmBellError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(PovmBellError, ValueError):
    """Array dimensions do not satisfy an operation's precondition."""


class DomainError(PovmBellError, ValueError):
    """A scalar or label argument is outside its allowed domain."""


class PovmValidationError(PovmBellError, ValueError):
    """An effect collection fails a POVM axiom.

    `deviation` carries the worst observed departure from the axiom so
    callers can report how badly validation failed, not just that it did.
    """

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class NotHermitianError(PovmValidationError):
    """An effect is not Hermitian within tolerance."""


class NotPositiveError(PovmValidationError):
    """An effect has an eigenvalue outside [0, 1] within tolerance."""


class NotCompleteError(PovmValidationError):
    """The effects do not sum to the identity within tolerance."""


class InvariantViolationError(PovmBellError):
    """A quantity that is provably constrained came out outside its range."""


class ConfigError(PovmBellError, ValueError):
    """An experiment configuration is malformed; `field` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
