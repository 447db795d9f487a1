"""Exception types shared across the package."""

__all__ = [
    "BudgetExhaustedError",
    "ConstantFunctionError",
    "DomainError",
    "EmptySampleError",
    "InvalidIndexError",
    "InvalidParamsError",
    "JuntaLabError",
    "LengthMismatchError",
    "NoCoefficientFoundError",
    "NoWitnessError",
    "SizeLimitError",
]


class JuntaLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidIndexError(JuntaLabError, ValueError):
    """A variable index is out of range or malformed."""


class LengthMismatchError(JuntaLabError, ValueError):
    """An input sequence has the wrong length."""


class InvalidParamsError(JuntaLabError, ValueError):
    """Parameters violate a documented precondition."""


class DomainError(JuntaLabError, ValueError):
    """A numeric argument lies outside its admissible domain."""


class SizeLimitError(JuntaLabError, ValueError):
    """A brute-force path was asked to enumerate beyond its cap."""


class EmptySampleError(JuntaLabError, ValueError):
    """An estimator received no examples."""


class ConstantFunctionError(JuntaLabError):
    """An operation that needs a non-constant function got a constant one."""


class NoWitnessError(JuntaLabError):
    """An exhaustive scan found no nonzero coefficient."""


class NoCoefficientFoundError(JuntaLabError):
    """No estimated coefficient cleared the detection threshold."""


class BudgetExhaustedError(JuntaLabError):
    """A sampling attempt budget ran out before enough draws were accepted."""
