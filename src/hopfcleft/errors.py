"""Exception hierarchy shared by all modules, and the default search bounds."""

DEFAULT_BOUND = 1_000_000
# the census bounds its two restricted-cocycle sweeps and each twisting search
CENSUS_BOUND = 200_000


class HopfcleftError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(HopfcleftError):
    pass


class DivisionByZero(HopfcleftError):
    pass


class ShapeMismatch(HopfcleftError):
    pass


class BaseMismatch(HopfcleftError):
    pass


class NoSolution(HopfcleftError):
    pass


class NotInvertible(HopfcleftError):
    pass


class NotHopf(HopfcleftError):
    pass


class AxiomFailure(HopfcleftError):
    pass


class FactorizationFailure(HopfcleftError):
    pass


class InducedStructureFailure(HopfcleftError):
    pass


class CorruptFixture(HopfcleftError):
    pass


class TheoremViolation(HopfcleftError):
    """An identity guaranteed by a proved statement failed; signals a bug."""


class SearchSpaceTooLarge(HopfcleftError):
    pass


class ParseError(HopfcleftError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(HopfcleftError):
    pass
