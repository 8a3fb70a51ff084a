"""Exception hierarchy for the dakr package.

Every error raised by the library derives from :class:`DakrError`, so
callers can catch one base class.  Most classes also derive from the
matching builtin (``ValueError`` etc.) to stay idiomatic.
"""


class DakrError(Exception):
    """Base class for all dakr errors."""


class DimensionMismatch(DakrError, ValueError):
    """Vector or matrix dimensions are incompatible."""


class InvalidMetric(DakrError, ValueError):
    """The distance metric is malformed or unusable in this context."""


class NonFiniteValue(DakrError, ValueError):
    """An input contains NaN or infinity where finite values are required."""


class InvalidParams(DakrError, ValueError):
    """A parameter is out of its documented range."""


class EmptyGallery(DakrError, ValueError):
    """The gallery (or candidate pool) is empty."""


class NonPositiveSigma(DakrError, ValueError):
    """A kernel bandwidth must be strictly positive."""


class StaleSigmaTable(DakrError, ValueError):
    """The bandwidth table does not match the data it is used with."""


class MissingTruth(DakrError, LookupError):
    """A probe has no ground-truth entry."""


class FormatError(DakrError, ValueError):
    """A data file is malformed."""


class OutOfRange(DakrError, ValueError):
    """Ids or distances of the data pass what int64 or float64 can hold."""
