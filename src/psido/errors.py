"""Exception hierarchy shared by all psido modules.

ValidationError covers bad inputs (wrong dimensions, failed preconditions);
NumericalError covers computations that ran but did not converge or
stabilize.  The CLI maps these to exit codes 1 and 2 respectively.
"""


class PsidoError(Exception):
    pass


class ValidationError(PsidoError):
    pass


class NumericalError(PsidoError):
    pass


class DomainError(ValidationError):
    """Evaluation hit a negative power of a vanishing base (a quotient
    u / v is u * v^-1) or a fractional power of a negative or non-real
    base, or a constant fold is not finite."""


class DimensionMismatch(ValidationError):
    pass


class GridMismatch(ValidationError):
    pass


class NotElliptic(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class NotReal(ValidationError):
    pass


class ZeroCovector(ValidationError):
    pass


class NotCharacteristic(ValidationError):
    pass


class SymbolVanishes(ValidationError):
    pass


class TopDegree(ValidationError):
    pass


class BottomDegree(ValidationError):
    pass


class HomogeneityError(ValidationError):
    def __init__(self, degree, residual):
        self.degree = degree
        self.residual = residual
        super().__init__(f"expression is not homogeneous of degree {degree} "
                         f"(Euler residual {residual:.3e})")


class DegreeOrderError(ValidationError):
    pass


class StepFailure(NumericalError):
    pass


class NonConvergent(NumericalError):
    pass


class Unstable(NumericalError):
    pass


class Overflow(NumericalError):
    """A computed value is past the range of float64."""
