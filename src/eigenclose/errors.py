"""Exception types raised by eigenclose.

All computational failures that carry mathematical meaning get their own
class so callers can distinguish "the data is bad" (e.g. a Gram matrix that
is not positive definite) from "the requested quantity does not exist"
(e.g. asking for bounds on a side of the shift where the trial subspace
detects nothing).
"""


class EigencloseError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefiniteError(EigencloseError):
    """A matrix required to be symmetric positive definite is not.

    Carries the index of the offending Cholesky pivot and its value.
    """

    def __init__(self, index, pivot, message=None):
        self.index = index
        self.pivot = pivot
        if message is None:
            message = (
                f"matrix is not positive definite: pivot {index} is "
                f"{pivot:.6e}"
            )
        super().__init__(message)


class InconsistentFormsError(EigencloseError, ValueError):
    """The trial forms fail the consistency test of ``TrialForms.validate``."""


class NonFiniteError(EigencloseError, ValueError):
    """A matrix holds an inf or a NaN where LAPACK needs finite input;
    at a shift, Q_t or L_t overflows double."""


class DegenerateShiftError(EigencloseError):
    """The shifted quadratic form vanishes on the whole trial subspace, so
    no spectral information survives deflation."""


class EmptySideError(EigencloseError):
    """No pencil eigenvalues of the requested sign: the trial subspace
    detects no spectrum on that side of the shift."""


class GapViolationError(EigencloseError):
    """A claimed isolation radius does not exceed the matching distance,
    so the residual recursion is undefined."""


class NoSignChangeError(EigencloseError):
    """The fixed-point function has no root on the search side: the side
    is undetectable at the requested index for this trial subspace."""


class MaxIterationsError(EigencloseError):
    """An iterative solve exhausted its iteration budget."""


class UnsupportedOrderError(EigencloseError):
    """Requested polynomial degree is not implemented for this model."""


class InsufficientPointsError(EigencloseError):
    """Too few data points for the requested fit or study."""


class FormsFormatError(EigencloseError):
    """A .forms file violates the plain-text format."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class ConfigError(EigencloseError):
    """Invalid experiment configuration: bad key, value, or combination."""


class DeflationWarning(UserWarning):
    """The shifted form had a nontrivial kernel that was deflated away."""
