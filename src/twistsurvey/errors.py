"""Exception types shared across the package.

DomainError is the one type of every input the program refuses, and the
command line maps it to exit 2; the arithmetic faults of cli.ABORT_ERRORS
abort a run with exit 4.
"""


class DomainError(ValueError):
    """Input the program refuses; exit 2."""


class InvalidFormError(ValueError):
    """Quadratic form is not positive definite."""


class DimensionError(ValueError):
    """Series bounds do not match."""


class OverflowGuardError(ArithmeticError):
    """A coefficient could exceed the integer range it is computed in."""


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
