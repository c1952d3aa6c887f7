"""Polar duality for strictly convex radial graphs in the unit 3-sphere.

The outward unit normal of a strictly convex surface, read as a point of
the ambient sphere, traces out a second strictly convex surface.  This
module samples that dual surface node by node, builds it as a radial
graph about the antipodal pole, runs support-number diagnostics, and
converts prescribed-curvature data into the reciprocal problem that the
dual surface solves.

Dual curvatures are computed intrinsically at the source nodes, from the
dual metric and second fundamental form, so the reciprocal pairing with
the source curvatures is a genuine cross-check rather than a definition.
The standalone :class:`~curvedual.geometry.GraphSurface` of the dual is
not fitted to those scattered samples: its radius in each direction is
the arccotangent of the support function of the source's gnomonic image,
found at the nodes of a quadrature grid by Newton's method on the
parameter sphere and transformed there (see :func:`dual_as_graph`).
Newton starts from the jets of the nodes of a coarse grid and reads h
from its last step's quadratic model, so all but a few nodes cost two
evaluations of one double Fourier form of the source (see
:func:`_support`).  A node whose support point does not converge fails
the dual with a :class:`~curvedual.errors.ResolutionError`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, spectral
from .curvature import CurvatureFunction
from .errors import ConvexityError, DataError, ResolutionError
from .geometry import (CurvatureField, GraphSurface, curvature_field,
                       default_gauge_tau0, frame_for_pole)
from .spectral import build_grid

log = logging.getLogger(__name__)

# Newton steps allowed per support point, and the step length at which a
# point stops
_NEWTON_STEPS = 20
_STEP_TOL = 1e-6


@dataclass
class DualSamples:
    """Pointwise dual surface data at the source grid nodes.

    ``theta`` and ``phi`` are the source chart coordinates of each node;
    ``x_dual`` is the dual point (the source unit normal) in world
    coordinates; ``eta_theta``, ``eta_phi`` and ``r_star`` locate that
    point in the graph chart about ``pole``, which is the antipode of the
    source pole.  ``kappa_dual`` holds the dual principal curvatures in
    ascending order.  ``weights`` is each sample's area on the dual chart
    sphere: the source quadrature weight times the area ratio of the
    Gauss map, so the weights sum to 4 pi.
    """

    theta: np.ndarray       # (N,)
    phi: np.ndarray         # (N,)
    x_dual: np.ndarray      # (N, 4)
    eta_theta: np.ndarray   # (N,)
    eta_phi: np.ndarray     # (N,)
    r_star: np.ndarray      # (N,)
    kappa_dual: np.ndarray  # (N, 2)
    pole: np.ndarray        # (4,) pole of the dual graph chart
    weights: np.ndarray     # (N,) dual-sphere area per sample

    @property
    def n_nodes(self) -> int:
        return len(self.theta)


def gauss_map(field: CurvatureField) -> DualSamples:
    """Map a strictly convex surface to its polar dual, node by node.

    The dual point at each node is the outward unit normal.  Dual
    principal curvatures are obtained by solving the eigenproblem of the
    dual shape operator, built from the dual metric h g^{-1} h and the
    shared second fundamental form; they come out as the reciprocals of
    the source curvatures with the order reversed.

    Each sample also gets its area on the dual chart sphere, w_q J_q,
    where w_q is the source quadrature weight and
    J = |u_theta x u_phi| / sin(theta) the area ratio of the chart
    direction u of the dual point.  The chart derivatives of u come from
    the Weingarten relation d_i x_dual = S^k_i x_k, with S the source
    shape operator, so the weights cost no differentiation.

    Parameters
    ----------
    field : CurvatureField
        Sampled source surface; must be strictly convex.

    Returns
    -------
    DualSamples

    Raises
    ------
    ConvexityError
        If any principal curvature is nonpositive, in which case the
        normal map is not injective and the dual is undefined.
    """
    x_dual = _dual_points(field)
    pole_dual = -field.surface.pole
    Q = frame_for_pole(pole_dual)
    std = x_dual @ Q  # rows are Q^T x_dual, chart components about pole_dual

    # chart angles via arctangents, stable near the chart axis
    planar = np.hypot(std[:, 0], std[:, 1])
    equatorial = np.hypot(planar, std[:, 2])  # sin r_star
    r_star = np.arctan2(equatorial, std[:, 3])
    eta_theta = np.arctan2(planar, std[:, 2])
    eta_phi = np.mod(np.arctan2(std[:, 1], std[:, 0]), 2.0 * np.pi)

    g_dual = field.h @ _kernels.inv2(field.g) @ field.h
    shape_dual = _kernels.inv2(g_dual) @ field.h
    kappa_dual = _kernels.eig2_ascending(
        shape_dual[..., 0, 0], shape_dual[..., 0, 1],
        shape_dual[..., 1, 0], shape_dual[..., 1, 1])

    # u = a / |a| with a the equatorial part of Q^T x_dual, so
    # |u_theta x u_phi| = |det(a, a_theta, a_phi)| / |a|^3
    S = field.shape_operator
    a_t, a_p = ((S[:, 0, i, None] * field.x_theta
                 + S[:, 1, i, None] * field.x_phi) @ Q[:, :3]
                for i in (0, 1))
    vol = np.einsum("ni,ni->n", std[:, :3], np.cross(a_t, a_p))
    area = field.grid.weights * np.abs(vol) / (
        equatorial**3 * field.grid.nodes.sin_theta)

    return DualSamples(theta=field.grid.theta, phi=field.grid.phi,
                       x_dual=x_dual, eta_theta=eta_theta, eta_phi=eta_phi,
                       r_star=r_star, kappa_dual=kappa_dual, pole=pole_dual,
                       weights=area)


def _dual_points(field: CurvatureField) -> np.ndarray:
    """The dual points, which are the outward unit normals of ``field``.

    Raises ConvexityError unless the field is strictly convex.
    """
    if field.kappa_min <= 0.0:
        raise ConvexityError(
            f"dual surface requires strict convexity: min principal "
            f"curvature {field.kappa_min:.6g}")
    return field.normal


def dual_as_graph(surface: GraphSurface, L_max: int,
                  sample_L: int) -> GraphSurface:
    """The polar dual of ``surface`` as a radial graph about its antipode.

    Let y(xi) = tan r(xi) omega(xi) be the gnomonic image of the source
    about its pole.  The dual's radius about the antipodal pole in the
    direction u is rho*(u) = arccot h(u), with
    h(u) = max_xi <y(xi), u> the support function of that image
    (Schneider, *Convex Bodies*, 2nd ed., section 1.6).  h is found at
    the nodes of ``build_grid(sample_L)`` by :func:`_support`; ``analyze``
    turns rho* = arctan2(1, h) into coefficients, one residual refinement
    ``analyze(grid, rho* - synthesize(grid, c))`` removes the rounding of
    that quadrature, and the result is truncated to ``L_max``.

    Raises
    ------
    ConvexityError
        If the surface is not strictly convex on its own grid.
    ResolutionError
        If the support points do not converge, or are not strict maxima,
        at some node (see :func:`_support`).
    """
    if L_max > sample_L:
        raise ValueError(f"L_max {L_max} exceeds sample_L {sample_L}")
    L = max(surface.L_max, 4)
    curvature_field(surface.padded_to(L), build_grid(L), require_convex=True)
    pole = -surface.pole
    grid = build_grid(sample_L)
    # the dual's chart directions in the source's pole frame
    directions = grid.nodes.w @ (frame_for_pole(pole)[:, :3].T
                                 @ frame_for_pole(surface.pole)[:, :3])
    rho = np.arctan2(1.0, _support(surface.radial, directions))
    coeffs = spectral.analyze(grid, rho)
    coeffs.values += spectral.analyze(
        grid, rho - spectral.synthesize(grid, coeffs)).values
    return GraphSurface(n=2, pole=pole,
                        radial=spectral.HarmonicCoeffs(
                            L_max, coeffs.values[:spectral.num_coeffs(L_max)]),
                        gauge_tau0=default_gauge_tau0())


def _support(radial: spectral.HarmonicCoeffs, u: np.ndarray) -> np.ndarray:
    """h(u) = max over xi of tan r(xi) <omega(xi), u>, per unit row of u.

    Each maximization starts at the best node of a coarse grid and takes
    Riemannian Newton steps in the orthonormal frame (e_theta, e_phi) on
    the parameter sphere, each one moving the point along a great circle,
    so no step is taken in chart coordinates.  The jets of r come from
    one double Fourier form of ``radial`` (:func:`spectral._fourier_form`),
    evaluated once at the coarse nodes, whose jets and frame fields give
    every point's first step, and then once after each step at the points
    that moved.  A point stops once its step d is below ``_STEP_TOL``; h
    is then the maximum of its last quadratic model,
    tan r <omega, u> + g.d / 2 with g the gradient, off by O(|d|^3), so
    the stopped points need no further evaluation.

    Raises ResolutionError if a point takes more than ``_NEWTON_STEPS``
    steps, or if the Hessian at its last step is not negative definite.
    The last step count is logged at DEBUG on this module's logger.
    """
    form = spectral._fourier_form(radial)
    coarse = build_grid(min(12, max(radial.L_max, 4)))
    jets = spectral._form_jets(form, coarse.theta, coarse.phi)
    best = np.argmax(u @ (np.tan(jets[0])[:, None] * coarse.nodes.w).T,
                     axis=1)
    jets = jets[:, best]
    nodes = _kernels.NodeGeometry(*(a[best] for a in coarse.nodes))
    h = np.empty(len(u))
    active = np.arange(len(u))
    for step in range(_NEWTON_STEPS):
        v = u[active]
        r, rt, rp, rtt, rtp, rpp = jets
        st, ct, w, e1 = (nodes.sin_theta, nodes.cos_theta, nodes.w,
                         nodes.w_theta)
        e2 = nodes.w_phi / st[:, None]
        s0, s1, s2 = (np.einsum("ni,ni->n", e, v) for e in (w, e1, e2))
        # tan r <omega, u> has gradient T' s0 grad r + T grad s0 and, with
        # T' = 1 + T^2, T'' = 2 T T' and Hess s0 = -s0, Hessian
        # s0 (T' Hess r + T'' grad r grad r) + T' (grad r grad s0 + its
        # transpose) - T s0
        T = np.tan(r)
        T1 = 1.0 + T * T
        a1, a2 = rt, rp / st
        g1, g2 = T1 * s0 * a1 + T * s1, T1 * s0 * a2 + T * s2
        c = s0 * T1
        h11 = c * (rtt + 2.0 * T * a1 * a1) + 2.0 * T1 * a1 * s1 - T * s0
        h12 = c * ((rtp - ct / st * rp) / st + 2.0 * T * a1 * a2) \
            + T1 * (a1 * s2 + a2 * s1)
        h22 = c * (rpp / (st * st) + ct / st * rt + 2.0 * T * a2 * a2) \
            + 2.0 * T1 * a2 * s2 - T * s0
        det = h11 * h22 - h12 * h12
        d1 = (h12 * g2 - h22 * g1) / det
        d2 = (h12 * g1 - h11 * g2) / det
        size = np.hypot(d1, d2)
        done = size < _STEP_TOL
        if not np.all((h11[done] < 0.0) & (det[done] > 0.0)):
            raise ResolutionError("a support point of the dual is not a "
                                  "strict maximum; the source is not "
                                  "strictly convex there")
        h[active[done]] = (T * s0 + 0.5 * (g1 * d1 + g2 * d2))[done]
        go = ~done
        active = active[go]
        if not active.size:
            break
        # along the great circle through the point in the step's direction
        size, d1, d2 = size[go, None], d1[go, None], d2[go, None]
        x = np.cos(size) * w[go] + np.sinc(size / np.pi) * (
            d1 * e1[go] + d2 * e2[go])
        theta = np.arctan2(np.hypot(x[:, 0], x[:, 1]), x[:, 2])
        phi = np.arctan2(x[:, 1], x[:, 0])
        jets = spectral._form_jets(form, theta, phi)
        nodes = _kernels._frame_fields(theta, phi)
    else:
        raise ResolutionError(
            f"support points of {active.size} dual directions did not "
            f"converge in {_NEWTON_STEPS} Newton steps")
    log.debug("support function: %d directions, L_max=%d, Newton steps %d",
              len(u), radial.L_max, step + 1)
    return h


def fit_residual(samples: DualSamples, surface: GraphSurface) -> float:
    """Max mismatch between the dual graph's radii and the sampled values.

    Raises ResolutionError if any sample or weight is not finite, where
    the maximum would otherwise be NaN.
    """
    if not all(np.isfinite(v).all() for v in (samples.eta_theta,
                                              samples.eta_phi,
                                              samples.r_star,
                                              samples.weights)):
        raise ResolutionError("dual samples are not finite; the dual graph "
                              "cannot be compared with them")
    fitted = spectral.synthesize_at(surface.radial, samples.eta_theta,
                                    samples.eta_phi)
    return float(np.max(np.abs(fitted - samples.r_star)))


def dual_surface(surface: GraphSurface, L_max: int | None = None,
                 sample_L: int | None = None) -> GraphSurface:
    """Polar dual of a surface as a radial graph, with oversampling.

    The dual of a band-limited surface is not itself band-limited, so by
    default the graph carries extra degrees (``L_max`` defaults to the
    source truncation plus 8) and its radii are sampled on a finer grid
    (``sample_L`` defaults to ``L_max`` plus 4).  Truncating at the bare
    source resolution leaves artifacts in the high degrees that later
    differentiation amplifies.  See :func:`dual_as_graph`.

    Raises
    ------
    ConvexityError
        If the surface is not strictly convex.
    ResolutionError
        If the support function cannot be inverted at some node.
    """
    if L_max is None:
        L_max = surface.L_max + 8
    if sample_L is None:
        sample_L = L_max + 4
    return dual_as_graph(surface, L_max, sample_L)


@dataclass
class SupportReport:
    """Support-number diagnostic over sampled node pairs.

    At matched nodes the inner product of surface point and dual point
    vanishes; at distinct nodes it must be strictly negative.
    """

    pair_count: int
    max_off_diagonal: float
    max_diagonal_abs: float

    @property
    def passed(self) -> bool:
        return self.max_off_diagonal < 0.0 and self.max_diagonal_abs <= 1e-10

    def as_dict(self) -> dict:
        return {"pair_count": self.pair_count,
                "max_off_diagonal": self.max_off_diagonal,
                "max_diagonal_abs": self.max_diagonal_abs,
                "passed": self.passed}


def support_test(field: CurvatureField, sample_count: int,
                 seed: int = 0) -> SupportReport:
    """Check the sign of <x(xi), x_dual(xi')> over random node pairs.

    Parameters
    ----------
    field : CurvatureField
        Sampled surface to test; ConvexityError unless strictly convex.
    sample_count : int
        Number of random off-diagonal node pairs.
    seed : int
        Seed for the pair sampler; fixed default for reproducible runs.
        The pairs of one node count, sample count and seed are drawn once
        per process and shared.
    """
    x_dual = _dual_points(field)
    i, j = _support_pairs(field.grid.n_nodes, sample_count, seed)
    off_diag = np.sum(field.x[i] * x_dual[j], axis=1)
    diag = np.abs(np.sum(field.x * x_dual, axis=1))
    return SupportReport(pair_count=int(sample_count),
                         max_off_diagonal=float(off_diag.max()),
                         max_diagonal_abs=float(diag.max()))


@lru_cache(maxsize=8)
def _support_pairs(n_nodes: int, sample_count: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded node pairs (i, j), i != j, as shared read-only arrays.

    The pairs of the last 8 distinct arguments are kept and handed out
    again.
    """
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n_nodes, size=sample_count)
    j = rng.integers(0, n_nodes - 1, size=sample_count)
    j[j >= i] += 1  # distinct partner for every pair
    for a in (i, j):
        a.flags.writeable = False
    return i, j


def transfer_problem(F: CurvatureFunction, f_values: np.ndarray
                     ) -> tuple[CurvatureFunction, np.ndarray]:
    """Convert prescribed data for a surface into data for its dual.

    A surface with curvature function value ``f`` at each normal
    direction corresponds to a dual surface on which the inverse
    curvature function takes the value ``1/f``.  Applying the transfer
    twice returns the original pair.

    Raises
    ------
    DataError
        If any prescribed value is nonpositive or not finite.
    """
    f = np.asarray(f_values, dtype=float)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise DataError("prescribed curvature values must be finite and "
                        "strictly positive to transfer to the dual problem")
    return F.inverse(), 1.0 / f
