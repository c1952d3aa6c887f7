"""Exception types shared across the package."""


class CurveDualError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CurveDualError):
    """Radial function leaves the admissible open hemisphere annulus."""


class ConvexityError(CurveDualError):
    """Surface is not strictly convex where strict convexity is required."""


class ResolutionError(CurveDualError):
    """Sample set cannot resolve the requested spectral fit."""


class DataError(CurveDualError):
    """Prescribed data violates a solver precondition."""


class SingularJacobianError(CurveDualError):
    """Newton system is singular on the chosen coefficient subspace."""

    def __init__(self, message, null_dimension=0):
        super().__init__(message)
        self.null_dimension = null_dimension


class NewtonError(CurveDualError):
    """Newton iteration failed to converge within its budgets."""


class ConfigError(CurveDualError):
    """Run configuration file is malformed or inconsistent."""
