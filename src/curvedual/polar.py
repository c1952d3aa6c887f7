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
:class:`~curvedual.geometry.GraphSurface`.  The fit solves the normal
equations only when a Cholesky factor of the diagonally shifted Gram
matrix certifies that the basis matrix has condition number below 1e3,
by the Cholesky backward-error bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., Thm 10.3), and an SVD solve otherwise.
The certificate is sufficient, not necessary: a fit with condition number
between about 700 and 1e3 may take the SVD solve.
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
# relative diagonal shift whose Cholesky factor certifies kappa_2(B) < 1e3
_CHOLESKY_SHIFT = 2e-6


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

    g_dual = field.h @ _kernels.inv2(field.g) @ field.h
    shape_dual = _kernels.inv2(g_dual) @ field.h
    kappa_dual = _kernels.eig2_ascending(
        shape_dual[..., 0, 0], shape_dual[..., 0, 1],
        shape_dual[..., 1, 0], shape_dual[..., 1, 1])

    return DualSamples(theta=field.grid.theta, phi=field.grid.phi,
                       x_dual=x_dual, eta_theta=eta_theta, eta_phi=eta_phi,
                       r_star=r_star, kappa_dual=kappa_dual, pole=pole_dual)


def dual_as_graph(samples: DualSamples, L_max: int) -> GraphSurface:
    """Fit the dual samples as a radial graph about the antipodal pole.

    A least-squares spherical-harmonic fit of ``r_star`` over the
    scattered dual directions, with basis matrix B (n columns) and Gram
    matrix G = B^T B.  When kappa_2(B) <= 1e3 the least-squares solution
    is unique, and the normal equations G c = B^T r_star reach it with
    relative error about eps * kappa^2 <= 1e-10 (Golub & Van Loan, *Matrix
    Computations*, 4th ed., section 5.3) for about a third of the flops
    of an SVD solve.

    The gate is a certificate, not a measurement.  With s = ||G||_1,
    which bounds lambda_max(G) because G is symmetric, and the shift
    mu = 2e-6 s, the fit takes the normal equations only when the
    Cholesky factorization of G - mu I completes with a finite diagonal.
    By the backward-error bound of Cholesky factorization (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3;
    Demmel 1989) that factor is exact for G - mu I + E with
    ||E||_2 <= n(n+1) u s, u the unit roundoff.  Hence
    lambda_min(G) >= mu - n(n+1) u s > 1e-6 lambda_max(G) whenever
    n(n+1) u < 1e-6 (n below about 9e4), so kappa_2(B) < 1e3: no fit
    above 1e3 takes the normal equations.  The test is sufficient, not
    necessary.  The factor can fail once kappa_2(B) exceeds about
    sqrt(lambda_max / mu) <= 707, and such a fit takes the SVD solve.

    The SVD solve, taken whenever the certificate fails, discards the
    degrees of freedom whose singular values fall below 1e-12 of the
    largest; the dual directions cluster where the source curvature is
    large, and the cutoff keeps the fit stable there.

    Raises
    ------
    ResolutionError
        If any sample is not finite, before any factorization, or if the
        condition number of the fit, measured by the SVD on the fallback
        path, exceeds 1e8.  The caller should raise the source grid
        density.
    """
    if not all(np.isfinite(v).all() for v in (samples.eta_theta,
                                              samples.eta_phi,
                                              samples.r_star)):
        raise ResolutionError("dual samples are not finite; the source "
                              "surface cannot be fitted")
    B = spectral.basis_matrix(L_max, samples.eta_theta, samples.eta_phi)
    G = B.T @ B  # numpy sends this form to syrk
    if _certifies_normal_equations(G):
        coeffs = np.linalg.solve(G, B.T @ samples.r_star)
        method = "normal equations, condition < 1e3"
    else:
        coeffs, _, _, sv = np.linalg.lstsq(B, samples.r_star,
                                           rcond=_SV_CUTOFF)
        cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        if cond > _CONDITION_LIMIT:
            raise ResolutionError(
                f"dual graph fit is ill conditioned (condition number "
                f"{cond:.3g}); raise the sampling grid density")
        method = f"SVD, condition {cond:.3g}"
    residual = float(np.max(np.abs(B @ coeffs - samples.r_star)))
    log.debug("dual graph fit: %d samples, L_max=%d, %s, max residual %.3g",
              samples.n_nodes, L_max, method, residual)
    return GraphSurface(n=2, pole=samples.pole.copy(),
                        radial=spectral.HarmonicCoeffs(L_max, coeffs),
                        gauge_tau0=default_gauge_tau0())


def _certifies_normal_equations(G: np.ndarray) -> bool:
    """True when a shifted Cholesky factor proves kappa_2 of G below 1e6.

    The shift is applied to G's diagonal in place and undone exactly, so
    the test costs one factor and no copy of G (see :func:`dual_as_graph`).
    """
    s = np.linalg.norm(G, 1)
    if not np.isfinite(s):
        return False
    diagonal = G.diagonal().copy()
    np.fill_diagonal(G, diagonal - _CHOLESKY_SHIFT * s)
    try:
        factor = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(G, diagonal)
    # cholesky returns NaN factors of a NaN matrix rather than raising
    return bool(np.isfinite(factor.diagonal()).all())


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
    """
    samples = gauss_map(field)

    rng = np.random.default_rng(seed)
    N = field.grid.n_nodes
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
