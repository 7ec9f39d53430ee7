"""Exception hierarchy shared across the package.

Every error raised by cuelab's own validation derives from
:class:`CuelabError`, so callers can catch one base class.  Numerical
backends (LAPACK, quadrature) may still raise their native exceptions for
conditions we do not guard; anything we detect ourselves is wrapped.
"""

__all__ = [
    "CuelabError",
    "InvalidDimensionError",
    "InvalidArgumentError",
    "OutOfDomainError",
    "SingularPointError",
    "NumericalFailureError",
    "InvalidEnsembleError",
    "DegenerateCombinationError",
    "InvalidConfigError",
]


class CuelabError(Exception):
    """Base class for all cuelab errors."""


class InvalidDimensionError(CuelabError, ValueError):
    """A matrix/vector dimension is out of range (e.g. N < 1)."""


class InvalidArgumentError(CuelabError, ValueError):
    """An argument violates a documented precondition."""


class OutOfDomainError(CuelabError, ValueError):
    """A special-function argument lies outside the implemented domain."""


class SingularPointError(CuelabError, ValueError):
    """Evaluation requested at (or too close to) a logarithmic singularity."""


class NumericalFailureError(CuelabError, ArithmeticError):
    """A numerical backend failed to converge or lost too much accuracy."""


class InvalidEnsembleError(CuelabError, ValueError):
    """An ensemble violates its invariants (coefficients, spectra, dims)."""


class DegenerateCombinationError(CuelabError, ArithmeticError):
    """The trigonometric combination is numerically identically zero."""


class InvalidConfigError(CuelabError, ValueError):
    """A configuration object violates its invariants."""
