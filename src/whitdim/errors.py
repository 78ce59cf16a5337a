"""Exception types shared across the package."""


class MathConstraintError(ValueError):
    """A mathematical invariant required by the domain does not hold."""


class GeneralPositionError(MathConstraintError):
    """A torus character / dual parameter is not in general position."""


class ResourceLimitError(ValueError):
    """An enumeration would exceed the size guard set before it starts."""
