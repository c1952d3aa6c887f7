"""Prescribed-curvature problems and polar duality on the 3-sphere.

Strictly convex closed surfaces inside an open hemisphere of S^3 are
represented as radial graphs over S^2.  The package provides the spectral
transforms, surface geometry, curvature-function calculus, polar duality,
a homotopy-continuation solver, and validation diagnostics, plus a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvexityError,
    CurveDualError,
    DataError,
    DomainError,
    NewtonError,
    ResolutionError,
    SingularJacobianError,
)
from .spectral import (
    HarmonicCoeffs,
    QuadratureGrid,
    analyze,
    build_grid,
    synthesize,
    synthesize_at,
)
from .geometry import (
    CurvatureField,
    GraphSurface,
    curvature_field,
    offset_sphere_surface,
    sphere_surface,
    stereographic_project,
)
from .curvature import (
    CurvatureFunction,
    class_K_check,
    make_curvature_function,
)
from .polar import (
    DualSamples,
    dual_surface,
    gauss_map,
    support_test,
    transfer_problem,
)
from .solver import (
    BarrierReport,
    ContinuationReport,
    NewtonWorkspace,
    PrescribedData,
    SolverOptions,
    check_barriers,
    continuation,
    initial_sphere,
    invariant_projector,
    newton_solve,
)
from .validation import (
    DiagnosticsReport,
    enclosing_balls,
    full_report,
    steiner_point,
    stereographic_residual,
)

__all__ = [
    "ConfigError", "ConvexityError", "CurveDualError", "DataError",
    "DomainError", "NewtonError", "ResolutionError",
    "SingularJacobianError",
    "HarmonicCoeffs", "QuadratureGrid", "analyze", "build_grid",
    "synthesize", "synthesize_at",
    "CurvatureField", "GraphSurface", "curvature_field",
    "offset_sphere_surface", "sphere_surface", "stereographic_project",
    "CurvatureFunction", "class_K_check", "make_curvature_function",
    "DualSamples", "dual_surface", "gauss_map", "support_test",
    "transfer_problem",
    "BarrierReport", "ContinuationReport", "NewtonWorkspace",
    "PrescribedData", "SolverOptions", "check_barriers",
    "continuation", "initial_sphere", "invariant_projector", "newton_solve",
    "DiagnosticsReport", "enclosing_balls", "full_report", "steiner_point",
    "stereographic_residual",
]
