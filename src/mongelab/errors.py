"""Exception types shared across the package."""


class MongelabError(Exception):
    """Base class for all package errors."""


class NonFiniteValueError(MongelabError):
    """An integrand or field evaluated to NaN or +/-inf at a quadrature node."""


class DegenerateWeightError(MongelabError):
    """A self-normalizing weight collapsed below the representable floor."""


class SingularJacobianError(MongelabError):
    """An eigenvalue of I + Hessian fell below the positivity floor."""


class NotApplicableError(MongelabError):
    """A check's hypothesis (e.g. semiconvexity of the target) cannot be certified."""


class NonIntegrableDensityError(MongelabError):
    """A 1d target density could not be normalized on the working range."""


class UnresolvedDensityError(MongelabError):
    """The oracle's density table cannot resolve a 1d target's map.

    The density is too narrow for the table's fixed step, or an oracle grid
    point lies so far in the tail that its quantile falls outside the table.
    """


class ConfigError(MongelabError):
    """A run configuration failed validation; the message names the field."""
