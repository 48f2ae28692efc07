"""Exception hierarchy shared across the package.

Every error states its numbers in its message: the failing sample, power
or disagreement is part of the text, and no error carries a payload
attribute.  The command line refuses any HeisharmError with exit 2.
"""


class HeisharmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HeisharmError):
    """Two operands live on Heisenberg groups of different dimension."""


class DomainError(HeisharmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GridMismatchError(HeisharmError):
    """Coefficient sets built on different grids cannot be combined."""


class QuadratureError(HeisharmError):
    """A quadrature failed its internal refinement check; the message names
    the disagreement and, where there is one, the worst cell."""


class ProfileClassError(HeisharmError):
    """A decay profile of the wrong declared integrability class was supplied."""


class HypothesisError(HeisharmError):
    """A numerical hypothesis check failed at the sample the message names."""


class TailError(HeisharmError):
    """A spectral tail dominates the grid boundary at the moment the message
    names; that moment is unreliable."""
