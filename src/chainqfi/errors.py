"""Exception and warning types shared across the package."""


class ChainQfiError(Exception):
    """Base class for all errors raised by chainqfi."""


# --- construction / validation ---

class AxisNotMonotone(ChainQfiError):
    pass


class ShapeMismatch(ChainQfiError):
    pass


class NonPositiveTemperature(ChainQfiError):
    pass


# --- special functions ---

class PoleAtNonPositiveInteger(ChainQfiError):
    pass


class DomainError(ChainQfiError):
    pass


# --- fitting ---

class FitDiverged(ChainQfiError):
    pass


class SingularJacobian(ChainQfiError):
    pass


class NoInteriorMaximum(ChainQfiError):
    pass


# --- line-shape / model evaluation ---

class CutoffDomainError(ChainQfiError):
    """Temperature is incompatible with the high-energy cutoff under the
    active negative-log policy."""


class BoseFactorPole(ChainQfiError):
    pass


class GridTooCoarse(ChainQfiError):
    pass


class NonPositiveValue(ChainQfiError):
    pass


# --- file ingestion ---

class ParseError(ChainQfiError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
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
