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
    """Newton model cannot be inverted: its degree diagonal is not finite."""


class NewtonError(CurveDualError):
    """Newton iteration failed to converge within its budgets."""


class ConfigError(CurveDualError):
    """Run configuration file is malformed or inconsistent."""
