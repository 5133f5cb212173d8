"""The two exception types of the package, one for each way a run stops.

DomainError is input the program refuses, and the command line maps it
to exit 2.  AbortError is a quantity the run derived that fails a check
it must pass (an integrality, Cassels square, overflow, normalization or
convergence check), and the command line maps it to exit 4; its message
says which check fired.  Internal misuse, such as a malformed form or
rows of the wrong length, raises a plain ValueError.
"""


class DomainError(ValueError):
    """Input the program refuses; exit 2."""


class AbortError(ArithmeticError):
    """A quantity the run derived fails a check it must pass; exit 4."""
