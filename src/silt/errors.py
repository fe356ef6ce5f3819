"""Exception types shared across the toolkit."""


class SiltError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SiltError, ValueError):
    """Bad input: out-of-range parameter, malformed spec string, unknown name."""


class GridMismatchError(ValidationError):
    """Two objects that must live on the same grid / aux dimension do not."""


class DegenerateConfigurationError(SiltError, ArithmeticError):
    """A time tuple's normalized Gram determinant is below ``gram.DET_MIN``, or its
    Gram determinant is not a normal, finite, positive float."""


class ConsistencyError(SiltError, ArithmeticError):
    """An internal cross-check failed.  No code path raises it at present; the
    Gram kernel's degeneracy check reports a near-dependent tuple instead."""
