"""Exception types shared across the package.

Every error raised on purpose derives from LaneError so callers can catch
one base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class LaneError(Exception):
    """Base class for all errors raised by this package.

    lane is the index, in a stack of lanes, of the lane the error is
    about, or None when no stack is involved.
    """

    def __init__(self, message: str, lane: int | None = None):
        super().__init__(message)
        self.lane = lane


class ValidationError(LaneError):
    """A value object was constructed with out-of-contract fields."""


class DomainError(LaneError):
    """An input is outside the mathematical domain of an operation."""


class DegenerateInputError(LaneError):
    """Input too small or too flat to define the requested output."""


class DegenerateLaneError(DegenerateInputError):
    """A lane covers no resample rows, or spans fewer than two rows."""


class GridMismatchError(LaneError):
    """Two resampled lanes were built on different row grids."""


class DimensionMismatchError(LaneError):
    """Array shapes disagree where equality is required."""


class RankDeficientError(LaneError):
    """A least-squares problem has fewer distinct abscissae than unknowns."""


class NonFiniteError(LaneError):
    """An optimization objective or gradient stopped being finite."""


class SchemaError(LaneError):
    """A serialized record is malformed or references unknown entities."""


class VersionError(SchemaError):
    """A serialized file declares an unsupported schema version."""
