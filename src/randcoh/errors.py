"""Exception types shared across the package, and its one integer rule.

check_integer decides what an integer parameter is, for every entry that
takes one: a dimension (m, n, k), a sample, worker, draw or chunk count, a
stream key field or a harmonic index passes only as an int or an
np.integer within its bounds, never as a bool, a float or a string.  Its
one exception is mc.gamma_cdf's shape, which also takes an integral float
such as 3.0.  Tests that relate two parameters (m <= n) and the CLI's flag
checks, whose messages name the flag, stay at their call sites.
"""

import numpy as np


class RandcohError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RandcohError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(RandcohError, ValueError):
    """A numeric input lies outside the mathematical domain of a functional."""


class NumericalError(RandcohError, ArithmeticError):
    """A numeric routine failed to converge or produced an invalid result."""


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ParameterError, naming the parameter, the bound and the value,
    unless value is an int or an np.integer (a bool is neither: it would
    pass as 0 or 1) in [low, high), or at least low when high is None."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       and low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")
