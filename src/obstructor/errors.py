"""Exception types shared across the package."""


class ObstructorError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(ObstructorError, ValueError):
    """Operands live in spaces of different dimensions."""


class AlgebraValidationError(ObstructorError, ValueError):
    """A structure-constant table failed a construction-time check."""


class AssociativityError(AlgebraValidationError):
    """Multiplication table is not associative; ``triple`` names the witnesses."""

    def __init__(self, triple, detail):
        self.triple = triple
        super().__init__(f"associativity fails on basis triple {triple}: {detail}")


class UnitError(AlgebraValidationError):
    """The claimed unit does not act as a two-sided identity."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"unit law fails on basis element {label}")


class InvolutionError(AlgebraValidationError):
    """The claimed involution is not involutive or not anti-multiplicative."""

    def __init__(self, witnesses, detail):
        self.witnesses = witnesses
        super().__init__(f"involution axiom fails on {witnesses}: {detail}")


class GraphValidationError(ObstructorError, ValueError):
    """An obstruction graph violates its shape or base-algebra contract."""


class MapValidationError(ObstructorError, ValueError):
    """A specialization map failed its multiplicativity/injectivity checks."""


class CoverValidationError(ObstructorError, ValueError):
    """A cover datum (iota, pi, degree) is inconsistent."""


class PolynomialError(ObstructorError, ValueError):
    """Base class for multihomogeneous polynomial errors."""


class PolynomialSyntaxError(PolynomialError):
    """Unparseable polynomial text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class InhomogeneousTermError(PolynomialError):
    """A parsed term does not match the polynomial's multidegree."""

    def __init__(self, term, detail):
        self.term = term
        super().__init__(f"term {term} breaks multihomogeneity: {detail}")


class FactoringError(ObstructorError, ArithmeticError):
    """An integer could not be factored within the Pollard rho step budget,
    or a Miller-Rabin pass could not be proven to mean prime."""
