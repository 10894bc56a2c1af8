"""Exception and warning types shared across the package.

Every error class carries the process exit code the command line returns
for it: 2 input or configuration error, 3 numerical failure, 4
domain-policy error.
"""


class ChainQfiError(Exception):
    """Base class for all errors raised by chainqfi."""

    exit_code = 2


# --- construction / validation ---

class AxisNotMonotone(ChainQfiError):
    pass


class ShapeMismatch(ChainQfiError):
    pass


class NonPositiveTemperature(ChainQfiError, ValueError):
    pass


# --- special functions ---

class PoleAtNonPositiveInteger(ChainQfiError):
    pass


class DomainError(ChainQfiError):
    exit_code = 4


# --- fitting ---

class FitDiverged(ChainQfiError):
    exit_code = 3


class SingularJacobian(ChainQfiError):
    exit_code = 3


class NoInteriorMaximum(ChainQfiError):
    exit_code = 3


# --- line-shape / model evaluation ---

class CutoffDomainError(ChainQfiError):
    """Temperature is incompatible with the high-energy cutoff under the
    active negative-log policy."""

    exit_code = 4


class BoseFactorPole(ChainQfiError):
    exit_code = 4


class GridTooCoarse(ChainQfiError):
    exit_code = 3


class NonPositiveValue(ChainQfiError):
    exit_code = 3


# --- file ingestion ---

class ParseError(ChainQfiError):
    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateAbscissa(ChainQfiError):
    pass


class EmptyFile(ChainQfiError):
    pass


class IncompleteGrid(ChainQfiError):
    pass


class WindowOutsideGrid(ChainQfiError):
    pass


class ElasticWindowMissing(ChainQfiError):
    pass


# --- warnings ---

class NegativeChiImagWarning(UserWarning):
    """Negative dynamic-susceptibility bins were clipped to zero."""


class TruncationWarning(UserWarning):
    """A non-negligible fraction of integral mass sits near the upper cutoff."""


class QuadratureLimitWarning(UserWarning):
    """Adaptive quadrature used its last panel before meeting the tolerance."""
