"""Exception hierarchy shared by all modules, and the default search bounds.

An error's class decides the exit code of the command it ends: a
``CheckFailure`` exits 1, a ``TheoremViolation`` exits 3, and any other
``HopfcleftError`` exits 2 as bad input, as an ``OSError`` does.
"""

DEFAULT_BOUND = 1_000_000
# the census bounds its two restricted-cocycle sweeps and each twisting search
CENSUS_BOUND = 200_000


class HopfcleftError(Exception):
    """Base class for all errors raised by this package."""


class CheckFailure(HopfcleftError):
    """A structure failed an axiom or a verification; a command exits 1."""


class FieldMismatch(HopfcleftError):
    pass


class DivisionByZero(HopfcleftError):
    pass


class ShapeMismatch(HopfcleftError):
    pass


class NoSolution(HopfcleftError):
    pass


class NotInvertible(CheckFailure):
    pass


class AxiomFailure(CheckFailure):
    pass


class FactorizationFailure(CheckFailure):
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
