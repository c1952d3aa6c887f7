"""Cross-check diagnostics for convex graph surfaces.

Every check here ties two independent computational paths together: the
Steiner point of the stereographic image against the symmetry of the
source, inscribed and circumscribed geodesic balls against polarity, and
the spherical curvature pipeline against the Euclidean curvature of the
projected surface through the conformal relation.  The aggregate report
is the standard health check run on solver output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CurvatureField, StereographicField, rho_from_r,
                       stereographic_project)
from .polar import support_test
from .solver import data_on_field


def steiner_point(field: CurvatureField,
                  st: StereographicField | None = None) -> np.ndarray:
    """Curvature-weighted centroid of the stereographic image.

    The image of the surface under stereographic projection is weighted
    by its Euclidean Gauss curvature and averaged over the total measure
    of the parameter sphere:

        p = (1 / 4 pi) sum_q w_q y_q K_q J_q

    with J the area element of the image relative to the round measure.
    For a surface invariant under a fixed-point-free symmetry group the
    point vanishes; for an off-center surface it does not, which makes
    it the standard symmetry diagnostic.  Components are in the frame of
    the surface's pole.  ``st`` is the field's stereographic image,
    projected here when not given.  A field on a folded grid is refused:
    y is odd under xi -> -xi, so the sum needs the southern nodes too.
    """
    if field.grid.folded:
        raise ValueError("the Steiner point needs the whole sphere; sample "
                         "the surface on build_grid(L_max), not a folded grid")
    if st is None:
        st = stereographic_project(field)
    density = field.grid.weights * st.gauss_curvature * st.area_jacobian
    return (st.y * density[:, None]).sum(axis=0) / (4.0 * np.pi)


def enclosing_balls(field: CurvatureField) -> tuple[float, float]:
    """Radii (r_in, r_out) of centered balls sandwiching the surface.

    Computed as the extreme radial node values of the graph, so the
    inner ball is inscribed and the outer ball circumscribed about the
    enclosed body.
    """
    return float(field.r.min()), float(field.r.max())


def stereographic_residual(field: CurvatureField,
                           st: StereographicField | None = None) -> float:
    """Max node error of the conformal relation between curvature paths.

    The spherical shape operator scaled by the conformal factor must
    equal the Euclidean shape operator of the stereographic image plus
    the normal derivative of the conformal factor times the identity.
    The two sides come from fully independent differentiations, so this
    is a strong end-to-end consistency measure.  ``st`` is as in
    :func:`steiner_point`.
    """
    if st is None:
        st = stereographic_project(field)
    e_psi = 1.0 / (1.0 + rho_from_r(field.r) ** 2 / 4.0)
    lhs = e_psi[:, None, None] * field.shape_operator
    eye = np.broadcast_to(np.eye(2), lhs.shape)
    rhs = st.shape_operator + st.conformal_term[:, None, None] * eye
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class DiagnosticsReport:
    """Aggregate health check of a surface, with optional residual stats.

    ``support_margin`` is the largest off-diagonal support inner product
    between the surface and its dual; strict convexity makes it
    negative.  ``stereographic_residual`` and ``support_margin`` are NaN
    for non-convex input, where neither check is defined.
    """

    steiner_point: np.ndarray
    steiner_magnitude: float
    ball_radii: tuple
    bound_check: tuple
    convex: bool
    stereographic_residual: float
    support_margin: float
    residual_stats: dict | None = None

    @property
    def curvature_within_brackets(self) -> bool:
        """Empirical solved-surface brackets: kappa in [1e-3, 1e3]."""
        kmin, kmax = self.bound_check
        return bool(self.convex and kmin >= 1e-3 and kmax <= 1e3)

    def as_dict(self) -> dict:
        out = {
            "steiner_point": [float(v) for v in self.steiner_point],
            "steiner_magnitude": self.steiner_magnitude,
            "ball_radii": [float(v) for v in self.ball_radii],
            "bound_check": [float(v) for v in self.bound_check],
            "convex": self.convex,
            "curvature_within_brackets": self.curvature_within_brackets,
            "stereographic_residual": self.stereographic_residual,
            "support_margin": self.support_margin,
        }
        if self.residual_stats is not None:
            out["residual_stats"] = self.residual_stats
        return out


def full_report(field: CurvatureField, F=None, f=None,
                support_samples: int = 2000,
                seed: int = 0) -> DiagnosticsReport:
    """Run every diagnostic on one sampled surface.

    Parameters
    ----------
    field : CurvatureField
        Sampled surface to examine; need not be convex.  It must be on a
        full grid: :func:`steiner_point` refuses a folded one.
    F, f : optional
        Curvature function and prescribed data (PrescribedData, scalar,
        or per-node array).  When both are given the report includes the
        statistics of the equation residual F(kappa) - f.
    support_samples : int
        Node pairs drawn for the polarity support check.
    seed : int
        Seed for the support pair sampling.
    """
    convex = bool(field.kappa_min > 0.0)
    st = stereographic_project(field)
    p = steiner_point(field, st)

    if convex:
        stereo = stereographic_residual(field, st)
        support_margin = support_test(
            field, sample_count=support_samples, seed=seed).max_off_diagonal
    else:
        stereo = float("nan")
        support_margin = float("nan")

    stats = None
    if F is not None and f is not None:
        resid = F(field.kappa) - data_on_field(f, field)
        stats = {"max_abs": float(np.max(np.abs(resid))),
                 "rms": float(np.sqrt(np.mean(resid**2)))}

    return DiagnosticsReport(
        steiner_point=p,
        steiner_magnitude=float(np.linalg.norm(p)),
        ball_radii=enclosing_balls(field),
        bound_check=(field.kappa_min, field.kappa_max),
        convex=convex,
        stereographic_residual=stereo,
        support_margin=support_margin,
        residual_stats=stats)
