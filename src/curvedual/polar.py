"""Polar duality for strictly convex radial graphs in the unit 3-sphere.

The outward unit normal of a strictly convex surface, read as a point of
the ambient sphere, traces out a second strictly convex surface.  This
module samples that dual surface node by node, refits it as a radial
graph about the antipodal pole, runs support-number diagnostics, and
converts prescribed-curvature data into the reciprocal problem that the
dual surface solves.

Dual curvatures are computed intrinsically at the source nodes, from the
dual metric and second fundamental form, so the reciprocal pairing with
the source curvatures is a genuine cross-check rather than a definition.
Refitting through least squares is needed only to produce a standalone
:class:`~curvedual.geometry.GraphSurface`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral
from .curvature import CurvatureFunction
from .errors import ConvexityError, DataError, ResolutionError
from .geometry import (CurvatureField, GraphSurface, curvature_field,
                       default_gauge_tau0, frame_for_pole)
from .spectral import build_grid

log = logging.getLogger(__name__)

_CONDITION_LIMIT = 1e8
_SV_CUTOFF = 1e-12


@dataclass
class DualSamples:
    """Pointwise dual surface data at the source grid nodes.

    ``theta`` and ``phi`` are the source chart coordinates of each node;
    ``x_dual`` is the dual point (the source unit normal) in world
    coordinates; ``eta_theta``, ``eta_phi`` and ``r_star`` locate that
    point in the graph chart about ``pole``, which is the antipode of the
    source pole.  ``kappa_dual`` holds the dual principal curvatures in
    ascending order.
    """

    theta: np.ndarray       # (N,)
    phi: np.ndarray         # (N,)
    x_dual: np.ndarray      # (N, 4)
    eta_theta: np.ndarray   # (N,)
    eta_phi: np.ndarray     # (N,)
    r_star: np.ndarray      # (N,)
    kappa_dual: np.ndarray  # (N, 2)
    pole: np.ndarray        # (4,) pole of the dual graph chart

    @property
    def n_nodes(self) -> int:
        return len(self.theta)


def _inv2(a: np.ndarray) -> np.ndarray:
    """Batched inverse of 2 x 2 matrices, shape (..., 2, 2)."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / det[..., None, None]


def gauss_map(field: CurvatureField) -> DualSamples:
    """Map a strictly convex surface to its polar dual, node by node.

    The dual point at each node is the outward unit normal.  Dual
    principal curvatures are obtained by solving the eigenproblem of the
    dual shape operator, built from the dual metric h g^{-1} h and the
    shared second fundamental form; they come out as the reciprocals of
    the source curvatures with the order reversed.

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
    if field.kappa_min <= 0.0:
        raise ConvexityError(
            f"dual surface requires strict convexity: min principal "
            f"curvature {field.kappa_min:.6g}")
    x_dual = field.normal
    pole_dual = -field.surface.pole
    Q = frame_for_pole(pole_dual)
    std = x_dual @ Q  # rows are Q^T x_dual, chart components about pole_dual

    # chart angles via arctangents, stable near the chart axis
    planar = np.hypot(std[:, 0], std[:, 1])
    r_star = np.arctan2(np.hypot(planar, std[:, 2]), std[:, 3])
    eta_theta = np.arctan2(planar, std[:, 2])
    eta_phi = np.mod(np.arctan2(std[:, 1], std[:, 0]), 2.0 * np.pi)

    g_dual = field.h @ _inv2(field.g) @ field.h
    shape_dual = _inv2(g_dual) @ field.h
    kappa_dual = _kernels.eig2_ascending(
        shape_dual[..., 0, 0], shape_dual[..., 0, 1],
        shape_dual[..., 1, 0], shape_dual[..., 1, 1])

    return DualSamples(theta=field.grid.theta, phi=field.grid.phi,
                       x_dual=x_dual, eta_theta=eta_theta, eta_phi=eta_phi,
                       r_star=r_star, kappa_dual=kappa_dual, pole=pole_dual)


def dual_as_graph(samples: DualSamples, L_max: int) -> GraphSurface:
    """Fit the dual samples as a radial graph about the antipodal pole.

    A least-squares spherical-harmonic fit of ``r_star`` over the
    scattered dual directions.  Degrees of freedom whose singular values
    fall below 1e-12 of the largest are discarded; the dual directions
    cluster where the source curvature is large, and the cutoff keeps the
    fit stable there.

    Raises
    ------
    ResolutionError
        If the condition number of the fit exceeds 1e8.  The caller
        should raise the source grid density.
    """
    B = spectral.basis_matrix(L_max, samples.eta_theta, samples.eta_phi)
    coeffs, _, _, sv = np.linalg.lstsq(B, samples.r_star, rcond=_SV_CUTOFF)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if cond > _CONDITION_LIMIT:
        raise ResolutionError(
            f"dual graph fit is ill conditioned (condition number "
            f"{cond:.3g}); raise the sampling grid density")
    residual = float(np.max(np.abs(B @ coeffs - samples.r_star)))
    log.debug("dual graph fit: %d samples, L_max=%d, condition %.3g, "
              "max residual %.3g", samples.n_nodes, L_max, cond, residual)
    return GraphSurface(n=2, pole=samples.pole.copy(),
                        radial=spectral.HarmonicCoeffs(L_max, coeffs),
                        gauge_tau0=default_gauge_tau0())


def fit_residual(samples: DualSamples, surface: GraphSurface) -> float:
    """Max mismatch between fitted dual radii and the sampled values."""
    fitted = spectral.synthesize_at(surface.radial, samples.eta_theta,
                                    samples.eta_phi)
    return float(np.max(np.abs(fitted - samples.r_star)))


def dual_surface(surface: GraphSurface, L_max: int | None = None,
                 sample_L: int | None = None) -> GraphSurface:
    """Polar dual of a surface as a radial graph, with oversampling.

    The dual of a band-limited surface is not itself band-limited, so by
    default the fit carries extra degrees (``L_max`` defaults to the
    source truncation plus 8) and the samples are taken on a finer grid
    (``sample_L`` defaults to ``L_max`` plus 4).  Fitting at the bare
    source resolution leaves truncation artifacts in the high degrees
    that later differentiation amplifies.

    Raises
    ------
    ConvexityError
        If the surface is not strictly convex.
    ResolutionError
        If the least-squares fit is ill conditioned.
    """
    if L_max is None:
        L_max = surface.L_max + 8
    if sample_L is None:
        sample_L = L_max + 4
    grid = build_grid(sample_L)
    field = curvature_field(surface.padded_to(sample_L), grid,
                            require_convex=True)
    return dual_as_graph(gauss_map(field), L_max=L_max)


def antipodal_samples(samples: DualSamples) -> DualSamples:
    """Dual samples of the source's image under the parameter antipode.

    The antipodal map of the parameter sphere extends to the ambient
    reflection through the pole axis, which commutes with the normal
    map.  For a source invariant under that map these are exact extra
    samples of the same dual surface; appending them makes a subsequent
    fit respect the symmetry to rounding accuracy.
    """
    p = samples.pole
    A = 2.0 * np.outer(p, p) - np.eye(4)
    return DualSamples(theta=np.pi - samples.theta,
                       phi=np.mod(samples.phi + np.pi, 2.0 * np.pi),
                       x_dual=samples.x_dual @ A,
                       eta_theta=np.pi - samples.eta_theta,
                       eta_phi=np.mod(samples.eta_phi + np.pi, 2.0 * np.pi),
                       r_star=samples.r_star.copy(),
                       kappa_dual=samples.kappa_dual.copy(),
                       pole=samples.pole.copy())


def concat_samples(a: DualSamples, b: DualSamples) -> DualSamples:
    """Concatenate two sample sets over the same dual chart."""
    if not np.allclose(a.pole, b.pole):
        raise ValueError("sample sets use different dual poles")
    cat = np.concatenate
    return DualSamples(theta=cat([a.theta, b.theta]),
                       phi=cat([a.phi, b.phi]),
                       x_dual=cat([a.x_dual, b.x_dual]),
                       eta_theta=cat([a.eta_theta, b.eta_theta]),
                       eta_phi=cat([a.eta_phi, b.eta_phi]),
                       r_star=cat([a.r_star, b.r_star]),
                       kappa_dual=cat([a.kappa_dual, b.kappa_dual]),
                       pole=a.pole.copy())


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


def support_test(surface: GraphSurface, sample_count: int,
                 seed: int = 0) -> SupportReport:
    """Check the sign of <x(xi), x_dual(xi')> over random node pairs.

    Parameters
    ----------
    surface : GraphSurface
        Strictly convex surface to test.
    sample_count : int
        Number of random off-diagonal node pairs.
    seed : int
        Seed for the pair sampler; fixed default for reproducible runs.
    """
    grid = build_grid(surface.L_max)
    field = curvature_field(surface, grid, require_convex=True)
    samples = gauss_map(field)

    rng = np.random.default_rng(seed)
    N = grid.n_nodes
    i = rng.integers(0, N, size=sample_count)
    j = rng.integers(0, N - 1, size=sample_count)
    j[j >= i] += 1  # distinct partner for every pair
    off_diag = np.sum(field.x[i] * samples.x_dual[j], axis=1)
    diag = np.abs(np.sum(field.x * samples.x_dual, axis=1))
    return SupportReport(pair_count=int(sample_count),
                         max_off_diagonal=float(off_diag.max()),
                         max_diagonal_abs=float(diag.max()))


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
