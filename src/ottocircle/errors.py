"""Exception types shared across the package.

Configuration problems raise ConfigError (CLI exit code 2).  Numerical
failures that invalidate a run (caustics, folds, non-converged solves,
step-size breakdown) raise NumericalError subclasses (CLI exit code 3); an
ill-conditioned Gram matrix only warns with ConditioningWarning.  Everything
else is an ordinary ValueError describing misuse of an operator.
"""


class ConfigError(ValueError):
    """Bad run configuration: malformed file, invalid parameter combination."""


class GridMismatchError(ValueError):
    """Operands were built on different grids."""


class AliasingError(ValueError):
    """Requested mode is not resolved by the grid (k > n/2 - 1 or 4N >= n)."""


class DomainError(ValueError):
    """Value outside the operator's domain: nonpositive density, base-point
    mismatch between tangent vectors, degenerate section plane."""


class CompatibilityError(ValueError):
    """Right-hand side violates a solvability constraint (nonzero mean)."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical method itself."""


class FoldError(NumericalError):
    """Transport map is not orientation-preserving: 1 + T' <= 0 somewhere."""


class CausticError(NumericalError):
    """Characteristics cross before the requested time."""

    def __init__(self, message, first_crossing=None):
        super().__init__(message)
        self.first_crossing = first_crossing


class StiffnessError(NumericalError):
    """Flow integration produced non-finite node positions."""


class ConditioningWarning(UserWarning):
    """Gram matrix eigenvalue ratio exceeds the trust threshold."""
