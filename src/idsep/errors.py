"""Exception types shared across the package.

Every error carries a stable short ``code`` so reports and scripts can match
on it without parsing messages.
"""


class IdsepError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class DimensionMismatch(IdsepError):
    code = "DIM"


class NormalizationError(IdsepError):
    code = "NORM"


class TraceError(IdsepError):
    code = "TRACE"


class NotPositiveSemidefinite(IdsepError):
    code = "NOT_PSD"


class CutoffError(IdsepError):
    code = "CUTOFF"


class OccupationRangeError(IdsepError):
    code = "RANGE"


class EtaMismatch(IdsepError):
    code = "ETA"


class NullReduction(IdsepError):
    code = "NULL_REDUCTION"


class NullState(IdsepError):
    code = "NULL_STATE"


class NonFiniteError(IdsepError):
    code = "NONFINITE"


class NonCommutingError(IdsepError):
    code = "NONCOMMUTING"


class UnknownCase(IdsepError):
    code = "UNKNOWN_CASE"
