"""Exception types shared across the package."""


class InvalidFormError(ValueError):
    """Quadratic form is not positive definite."""


class DimensionError(ValueError):
    """Series bounds do not match."""


class OverflowGuardError(ArithmeticError):
    """A coefficient could exceed the integer range it is computed in."""


class InvalidClassError(ValueError):
    """Residue is not a unit modulo the modulus."""


class RangeError(ValueError):
    """Requested limit or checkpoint is beyond the tabulated range."""


class NotInCatalogError(LookupError):
    """Unknown curve label."""


class NormalizationError(ArithmeticError):
    """A quantity that must be an integer is not near one."""


class IntegralityError(ArithmeticError):
    """Transferred k = #S / t is not an integer."""


class CasselsViolationError(ArithmeticError):
    """Selmer order over torsion is not a perfect square."""


class ConvergenceError(RuntimeError):
    """Series truncation cannot reach the requested precision."""


class NumericError(RuntimeError):
    """Numerical iteration failed to converge."""


class DomainError(ValueError):
    """Argument outside the supported domain."""


class InsufficientDataError(ValueError):
    """Too few usable points for a fit."""
