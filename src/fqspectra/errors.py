"""Exception types raised by fqspectra.

Every parameter violation gets its own class so callers (and the CLI exit-code
logic) can tell usage errors apart from genuine inequality violations.
"""


class FqspectraError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(FqspectraError):
    """An internal exactness invariant failed, such as fold mass conservation.

    Raised by an explicit check, so it survives `python -O`; it signals a
    defect in the package, not a bad argument.
    """


# -- field construction ------------------------------------------------------

class NotPrimeError(FqspectraError):
    """Characteristic p is not a prime number."""


class EvenCharacteristicError(FqspectraError):
    """Characteristic 2 is unsupported; p must be an odd prime (p >= 3)."""


class DegreeTooLargeError(FqspectraError):
    """Extension degree n is outside 1..4."""


class OrderTooLargeError(FqspectraError):
    """Field order q = p^n exceeds 2^20."""


class InverseOfZeroError(FqspectraError):
    """Multiplicative inverse of 0 requested."""


# -- geometry ----------------------------------------------------------------

class DimensionMismatchError(FqspectraError):
    """Point length does not match the polynomial's arity."""


class SearchSpaceTooLargeError(FqspectraError):
    """q^d exceeds the exhaustive-scan budget for this operation."""


class ZeroParameterError(FqspectraError):
    """Family parameter j = 0 requested for a family defined only for j != 0."""


class EmptyVarietyError(FqspectraError):
    """Operation requires a nonempty variety."""


class DegenerateFormError(FqspectraError):
    """Quadratic form has determinant 0 over F_q."""


# -- spectra -----------------------------------------------------------------

class ExponentDivisibleByCharacteristicError(FqspectraError):
    """Diagonal exponent s is divisible by p; spectra degrade, input rejected."""


class NotDiagonalError(FqspectraError):
    """Polynomial is not of the diagonal shape sum_j a_j * x_j^s."""


# -- energy ------------------------------------------------------------------

class BudgetExceededError(FqspectraError):
    """Requested fold/count exceeds the operation budget."""


class OddKError(FqspectraError):
    """k-energy is defined for even k only."""


class EmptyXError(FqspectraError):
    """Shift set X must be nonempty."""


class InconsistentTotalError(FqspectraError):
    """Count table total does not match the expected mass."""


# -- experiments -------------------------------------------------------------

class SizeExceedsVarietyError(FqspectraError):
    """Requested subset size exceeds the variety size."""


class SubsetTooSmallError(FqspectraError):
    """Subset violates the size hypothesis of the audited statement."""
