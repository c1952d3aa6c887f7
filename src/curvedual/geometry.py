"""Radial-graph hypersurfaces of the 3-sphere and their curvature data.

A closed surface M inside an open hemisphere of S^3 centered at ``pole`` is
the radial graph of its geodesic distance r(xi) from the pole, with xi on
the parameter 2-sphere.  The embedding into R^4 is

    x(xi) = sin r(xi) * omega(xi) (+) cos r(xi) * pole,

omega the unit direction in the pole's equatorial 3-space.  Curvature data
comes in closed form from the 2-jet of r in the warped metric
dr^2 + sin^2 r sigma (see :mod:`curvedual._kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral
from .errors import ConvexityError, DomainError
from .spectral import HarmonicCoeffs, QuadratureGrid

__all__ = [
    "GraphSurface",
    "CurvatureField",
    "HEMISPHERE_MARGIN",
    "DEFAULT_GAUGE_RADIUS",
    "default_gauge_tau0",
    "frame_for_pole",
    "sphere_surface",
    "check_annulus",
    "curvature_field",
    "rho_from_r",
    "offset_sphere_surface",
    "stereographic_project",
]

# surfaces must stay this far inside the open hemisphere (radians)
HEMISPHERE_MARGIN = 1e-8

# reference radius where the logarithmic radial coordinate vanishes
DEFAULT_GAUGE_RADIUS = 0.1


def rho_from_r(r):
    """Stereographic radius rho = 2 tan(r/2) of the geodesic radius r."""
    return 2.0 * np.tan(np.asarray(r, dtype=float) / 2.0)


def default_gauge_tau0() -> float:
    """Gauge constant tau0 with tau(DEFAULT_GAUGE_RADIUS) = 0."""
    return float(np.log(rho_from_r(DEFAULT_GAUGE_RADIUS)))


def frame_for_pole(pole: np.ndarray) -> np.ndarray:
    """Rotation Q in SO(4) with Q e4 = pole, chosen deterministically.

    The equatorial frame of the pole is Q e1, Q e2, Q e3.  Graph charts,
    stereographic projections, and polar duals all derive their frames
    through this single rule, so round trips are consistent.
    """
    pole = np.asarray(pole, dtype=float)
    if pole.shape != (4,):
        raise ValueError("pole must be a 4-vector")
    nrm = np.linalg.norm(pole)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(
            f"pole must be a unit vector, |pole| = {float(nrm)!r}")
    e = np.zeros(4)
    e[3] = 1.0
    c = pole @ e
    if c < -1.0 + 1e-12:
        # antipodal special case: rotate by pi in the (e3, e4) plane
        return np.diag([1.0, 1.0, -1.0, -1.0])
    # rotation mapping e to pole inside their common plane
    s = e + pole
    return np.eye(4) - np.outer(s, s) / (1.0 + c) + 2.0 * np.outer(pole, e)


@dataclass
class GraphSurface:
    """Radial graph over the parameter sphere about ``pole``.

    ``radial`` holds the spherical-harmonic coefficients of the geodesic
    radius r(xi).  ``gauge_tau0``, the origin of the logarithmic radial
    coordinate tau = log rho - tau0, is stored and validated but read by
    no computation.
    """

    n: int
    pole: np.ndarray
    radial: HarmonicCoeffs
    gauge_tau0: float

    def __post_init__(self):
        if self.n != 2:
            raise NotImplementedError("only n = 2 surfaces are implemented")
        self.pole = np.asarray(self.pole, dtype=float)
        frame_for_pole(self.pole)  # validates shape and unit length

    @property
    def L_max(self) -> int:
        return self.radial.L_max

    def padded_to(self, L_max: int) -> "GraphSurface":
        """Same surface carried at a higher truncation.

        Zero-padding is exact, so this only changes which grids the
        surface can be sampled on.
        """
        return GraphSurface(n=self.n, pole=self.pole.copy(),
                            radial=self.radial.pad_to(L_max),
                            gauge_tau0=self.gauge_tau0)


def sphere_surface(radius: float, L_max: int = 24,
                   pole: np.ndarray | None = None) -> GraphSurface:
    """Geodesic sphere r = const as a :class:`GraphSurface`."""
    if not 0.0 < radius < np.pi / 2:
        raise DomainError(
            f"geodesic sphere radius {float(radius)!r} outside (0, pi/2)")
    coeffs = HarmonicCoeffs.zeros(L_max)
    coeffs[0, 0] = radius * np.sqrt(4.0 * np.pi)
    if pole is None:
        pole = np.array([0.0, 0.0, 0.0, 1.0])
    return GraphSurface(n=2, pole=pole, radial=coeffs,
                        gauge_tau0=default_gauge_tau0())


def offset_sphere_surface(radius: float, tilt: float,
                          direction=(1.0, 0.0, 0.0), L_max: int = 24,
                          pole: np.ndarray | None = None) -> GraphSurface:
    """Geodesic sphere about an off-axis center, as a graph over ``pole``.

    The center sits at geodesic distance ``tilt`` from the pole, moved
    toward the parameter-space ``direction``.  With s the cosine of the
    angle between a parameter direction and the tilt axis, the radial
    graph solves

        cos(radius) = cos(r) cos(tilt) + sin(r) sin(tilt) s,

    whose outward branch is fitted here.  Useful as an off-center test
    body: it is a perfectly round sphere whose graph coefficients are
    nevertheless dense across degrees.
    """
    if not 0.0 <= tilt < radius:
        raise DomainError(
            f"tilt {tilt!r} must lie in [0, radius) so the pole axis "
            "stays inside the ball")
    if radius + tilt >= np.pi / 2:
        raise DomainError(
            f"radius + tilt = {radius + tilt:.6g} reaches the equator; "
            "the sphere must stay in the open hemisphere")
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    grid = spectral.build_grid(L_max)
    s = _kernels._frame_fields(grid.theta, grid.phi)[0] @ d
    amp = np.sqrt(1.0 - np.sin(tilt) ** 2 * (1.0 - s**2))
    delta = np.arctan2(np.sin(tilt) * s, np.cos(tilt))
    r = delta + np.arccos(np.cos(radius) / amp)
    if pole is None:
        pole = np.array([0.0, 0.0, 0.0, 1.0])
    return GraphSurface(n=2, pole=pole, radial=spectral.analyze(grid, r),
                        gauge_tau0=default_gauge_tau0())


def check_annulus(r: np.ndarray) -> None:
    """Raise DomainError unless every radius lies in the open annulus."""
    lo, hi = r.min(), r.max()
    # written as "not inside" so that a NaN radius fails too
    if not (lo > HEMISPHERE_MARGIN and hi < np.pi / 2 - HEMISPHERE_MARGIN):
        raise DomainError(
            f"radial range [{lo:.6g}, {hi:.6g}] leaves the open hemisphere "
            f"annulus ({HEMISPHERE_MARGIN:g}, pi/2 - {HEMISPHERE_MARGIN:g})")


@dataclass
class CurvatureField:
    """Pointwise geometric data of a surface sampled at grid nodes.

    Tensors are chart components at node q = i_theta * n_phi + j_phi;
    4-vectors are world coordinates (after the pole-frame rotation).
    ``kappa`` is sorted ascending along its last axis.
    """

    surface: GraphSurface
    grid: QuadratureGrid
    r: np.ndarray               # (N,)
    r_theta: np.ndarray         # (N,) chart derivatives of r
    r_phi: np.ndarray           # (N,)
    r_theta_theta: np.ndarray   # (N,)
    r_theta_phi: np.ndarray     # (N,)
    r_phi_phi: np.ndarray       # (N,)
    x: np.ndarray               # (N, 4)
    x_theta: np.ndarray         # (N, 4)
    x_phi: np.ndarray           # (N, 4)
    normal: np.ndarray          # (N, 4) outward unit normal within S^3
    g: np.ndarray               # (N, 2, 2)
    h: np.ndarray               # (N, 2, 2)
    shape_operator: np.ndarray  # (N, 2, 2)
    kappa: np.ndarray           # (N, 2)

    @property
    def kappa_min(self) -> float:
        return float(self.kappa[:, 0].min())

    @property
    def kappa_max(self) -> float:
        return float(self.kappa[:, 1].max())


def curvature_field(surface: GraphSurface, grid: QuadratureGrid,
                    require_convex: bool = False) -> CurvatureField:
    """Sample a surface on a grid: radial jets and full curvature data.

    The one place where radial jets of a surface are synthesised; the
    radii must pass :func:`check_annulus`.  With ``require_convex`` the
    field must be strictly convex or a :class:`ConvexityError` is raised.
    """
    r, rt, rp, rtt, rtp, rpp = spectral.chart_jets(grid, surface.radial)
    check_annulus(r)
    out = _kernels.fundamental_forms(grid.theta, grid.phi, r, rt, rp,
                                     rtt, rtp, rpp)
    Q = frame_for_pole(surface.pole)
    field = CurvatureField(
        surface=surface, grid=grid, r=r, r_theta=rt, r_phi=rp,
        r_theta_theta=rtt, r_theta_phi=rtp, r_phi_phi=rpp,
        x=out["x"] @ Q.T,
        x_theta=out["x_theta"] @ Q.T,
        x_phi=out["x_phi"] @ Q.T,
        normal=out["normal"] @ Q.T,
        g=out["g"], h=out["h"],
        shape_operator=out["shape_operator"],
        kappa=out["kappa"],
    )
    if require_convex and field.kappa_min <= 0.0:
        raise ConvexityError(
            f"surface is not strictly convex: min principal curvature "
            f"{field.kappa_min:.6g}")
    return field


@dataclass
class StereographicField:
    """Stereographic image of a surface and its Euclidean curvature data.

    The projection is from the antipode of the surface's pole onto the
    equatorial 3-space, so the image point of a node at geodesic radius r
    lies at Euclidean radius rho = 2 tan(r/2).  Tensors are chart
    components at the same parameter nodes as the source surface.
    """

    y: np.ndarray               # (N, 3) image points, pole-frame coordinates
    normal: np.ndarray          # (N, 3) outward Euclidean unit normal
    g: np.ndarray               # (N, 2, 2)
    h: np.ndarray               # (N, 2, 2)
    shape_operator: np.ndarray  # (N, 2, 2)
    gauss_curvature: np.ndarray  # (N,)
    area_jacobian: np.ndarray   # (N,) dA_image / dsigma at each node
    conformal_term: np.ndarray  # (N,) gradient of the conformal factor dotted
                                # with the Euclidean normal


def stereographic_project(field: CurvatureField) -> StereographicField:
    """Project a sampled surface stereographically and differentiate the image.

    Only the radial jets are read from ``field``.  All curvature data of
    the image surface is computed directly from the Euclidean embedding
    y = rho(xi) omega(xi), independent of the spherical pipeline, which
    makes this the far side of the conformal-relation cross-check.
    """
    grid = field.grid
    rt, rp = field.r_theta, field.r_phi
    rtt, rtp, rpp = field.r_theta_theta, field.r_theta_phi, field.r_phi_phi
    rho = rho_from_r(field.r)
    drho = 1.0 + rho**2 / 4.0          # d rho / d r
    rho_t = drho * rt
    rho_p = drho * rp
    rho_tt = 0.5 * rho * rho_t * rt + drho * rtt
    rho_tp = 0.5 * rho * rho_p * rt + drho * rtp
    rho_pp = 0.5 * rho * rho_p * rp + drho * rpp

    w, wt, wp, wtp, wpp = _kernels._frame_fields(grid.theta, grid.phi)
    y = rho[:, None] * w
    yt = rho_t[:, None] * w + rho[:, None] * wt
    yp = rho_p[:, None] * w + rho[:, None] * wp
    ytt = rho_tt[:, None] * w + 2 * rho_t[:, None] * wt + rho[:, None] * (-w)
    ytp = rho_tp[:, None] * w + rho_t[:, None] * wp + rho_p[:, None] * wt \
        + rho[:, None] * wtp
    ypp = rho_pp[:, None] * w + 2 * rho_p[:, None] * wp + rho[:, None] * wpp

    g11 = np.einsum("ni,ni->n", yt, yt)
    g12 = np.einsum("ni,ni->n", yt, yp)
    g22 = np.einsum("ni,ni->n", yp, yp)
    nrm = np.cross(yt, yp)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    flip = np.einsum("ni,ni->n", nrm, w) < 0
    nrm[flip] *= -1.0
    h11 = -np.einsum("ni,ni->n", ytt, nrm)
    h12 = -np.einsum("ni,ni->n", ytp, nrm)
    h22 = -np.einsum("ni,ni->n", ypp, nrm)
    detg = g11 * g22 - g12**2
    s11 = (g22 * h11 - g12 * h12) / detg
    s12 = (g22 * h12 - g12 * h22) / detg
    s21 = (g11 * h12 - g12 * h11) / detg
    s22 = (g11 * h22 - g12 * h12) / detg
    deth = h11 * h22 - h12**2
    gauss = deth / detg
    area_jac = np.sqrt(detg) / np.sin(grid.theta)
    # conformal factor of the round metric over flat space is
    # (1 + rho^2/4)^{-2}; its log-gradient is radial
    dpsi_drho = -(rho / 2.0) / (1.0 + rho**2 / 4.0)
    conformal_term = dpsi_drho * np.einsum("ni,ni->n", w, nrm)
    g = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    hh = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    shape_op = np.stack([np.stack([s11, s12], -1), np.stack([s21, s22], -1)], -2)
    return StereographicField(y=y, normal=nrm, g=g, h=hh,
                              shape_operator=shape_op, gauss_curvature=gauss,
                              area_jacobian=area_jac,
                              conformal_term=conformal_term)
