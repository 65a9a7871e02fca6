"""Shared exception types.

The CLI maps these onto its stable exit codes: parse errors exit 2,
precondition violations exit 3, lower-bound certification failures exit 4.
A CrossCheckError means two formulas for the same object disagreed, which
is a hard internal error by design, never a warning.
"""


class RelcalcError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RelcalcError):
    """Malformed input file or field."""


class PreconditionError(RelcalcError):
    """An operation was called outside its stated precondition."""


class AmbientMismatchError(PreconditionError):
    """Subspaces or relations from different ambient spaces were mixed."""


class BoundCertificationError(RelcalcError):
    """A required exact lower-bound certificate does not exist."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CrossCheckError(RelcalcError):
    """Independent formulas for the same object produced different results;
    a disagreement names its routes, grouped by the value each reached."""
