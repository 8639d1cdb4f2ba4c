"""Domain errors raised by the library.

Every error a caller is expected to handle derives from DomainError, so the
command-line layer can map them onto a single exit code.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class NonPrimitiveRay(DomainError):
    pass


class RaysNotSpanning(DomainError):
    pass


class NotSmooth(DomainError):
    pass


class NotComplete(DomainError):
    pass


class NotPointed(DomainError):
    pass


class NotFullDimensional(DomainError):
    pass


class SearchExhausted(DomainError):
    pass


class UnitIdeal(DomainError):
    pass


class FiberTooLarge(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class StrategyInvalid(DomainError):
    pass


class OverlappingPairs(DomainError):
    pass


class FiltrationInvalid(DomainError):
    pass


class Unsupported(DomainError):
    pass


class MissingBaseline(DomainError):
    pass


class NoRepresentation(DomainError):
    pass


class NoSaturatedIdeal(DomainError):
    pass


class NotAHilbertPolynomial(DomainError):
    pass


class NotRealizable(DomainError):
    pass


class BudgetExceeded(DomainError):
    pass


class FieldOverflow(DomainError):
    """An entry of a packed enumeration vector left the range that its
    frame's field width certifies (see enumeration._frame)."""


class InfeasibleHilbertValue(DomainError):
    pass


class ParseError(DomainError):
    """Malformed textual input (polynomials, monomials, files)."""
