"""Exception types shared across the package.

Grouped by contract: capacity limits, evaluation problems, structural
mismatches, factorization outcomes, numeric solver failures, and input
parsing.  `NoSolutionInAnsatz` is deliberately absent: an exhausted
ansatz search returns an empty list, it is not an error.
"""


class EngineError(Exception):
    """Base class for every domain error raised by this package."""


class CapacityExceeded(EngineError):
    """A size bound is passed: a slot count n**k past a 64-bit machine word,
    or expr.MAX_PRODUCT_PAIRS term pairs in one product, an exponent of 2^63
    or more in a product, factor.MAX_ANSATZ_DEGREE, cascade.MAX_STEPS or
    conditions.MAX_SAMPLES."""


class OrderOverflow(EngineError):
    """Accumulated derivative order of a product exceeds the configured cap."""


class UnboundVariable(EngineError):
    """Evaluation reached a variable with no binding."""


class DomainError(EngineError):
    """Evaluation hit a singular point (division by zero, log of a
    non-positive number, square root of a negative number)."""


class ArityMismatch(EngineError):
    """An operator application is missing a referenced component."""


class ShapeMismatch(EngineError):
    """Matrix operator factors have incompatible sizes or violate the
    order profile (diagonal order s, off-diagonal order s-1)."""


class UnsupportedTemplate(EngineError):
    """No condition template exists for the requested combination."""


class NotQuasiLinear(EngineError):
    """A jet polynomial cannot be read back as a quasi-linear operator."""


class NotConstant(EngineError):
    """The constant-coefficient strategy was given a non-constant operator."""


class NoRealFactorization(EngineError):
    """The discriminant is negative, so no real factorization exists."""


class NonPolynomialCoefficients(EngineError):
    """The Riccati ansatz route needs polynomial coefficients."""


class NonPolynomialSqrtDelta(EngineError):
    """The discriminant has no polynomial square root, so the principal
    symbol does not split over the supported coefficient class."""


class SingularLeadingCoefficient(EngineError):
    """A leading coefficient vanishes somewhere on the working grid."""


class QuadratureFailure(EngineError):
    """Numeric integration could not be completed on the interval."""


class StepCountTooSmall(EngineError):
    """The requested step count is below the minimum the schemes need."""


class ParseError(EngineError):
    """Text input could not be parsed; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(EngineError):
    """A parsed problem file violates a template constraint."""
