"""Exception hierarchy shared by all tropfan modules.

DomainError subclasses signal mathematically meaningful failures (CLI exit
code 1); input errors (parse and schema problems) map to CLI exit code 2.
"""


class TropfanError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TropfanError):
    """A mathematically meaningful failure of a precondition or contract."""


class ZeroVectorError(DomainError):
    pass


class NotFullRankError(DomainError):
    pass


class DimMismatchError(DomainError):
    pass


class ZeroPolynomialError(DomainError):
    pass


class ZeroIdealError(DomainError):
    pass


class UnitIdealError(DomainError):
    pass


class RequiresHomogeneousError(DomainError):
    pass


class NotZeroDimensionalError(DomainError):
    pass


class BadCodimError(DomainError):
    pass


class MultiplicityMismatchError(DomainError):
    pass


class NotPureError(DomainError):
    pass


class MonomialHypersurfaceError(DomainError):
    """A monomial has an empty tropical hypersurface."""


class ConventionMismatchError(DomainError):
    pass


class GenericityError(DomainError):
    """A displacement gave cells of an unexpected dimension: the final
    check of a stable intersection, which a correct sign test never
    trips."""


class InputError(TropfanError):
    """Malformed user input (parse or schema failure)."""


class PolynomialParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IdealFileError(InputError):
    pass


class CycleSchemaError(InputError):
    def __init__(self, message: str, field: str):
        super().__init__(f"{message} (field: {field})")
        self.field = field
