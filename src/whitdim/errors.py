"""Exception types shared across the package."""


class MathConstraintError(ValueError):
    """A mathematical invariant required by the domain does not hold."""


class GeneralPositionError(MathConstraintError):
    """A torus character / dual parameter is not in general position."""


class ResourceLimitError(ValueError):
    """A limit checked before the work starts would be exceeded: the size
    guard of an enumeration, or the range in which the primality test of q
    is a proof."""
