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
:class:`~curvedual.geometry.GraphSurface`.  The fit weights each sample
by its area on the dual chart sphere, which the Weingarten relation gives
from data the curvature field already holds, so its normal matrix is a
quadrature of the identity Gram matrix of the orthonormal basis; the
square roots of the weights scale the basis rows as
:func:`~curvedual.spectral.basis_matrix` builds them.  Two
certificates bound its condition number: a Frobenius-norm distance from
the identity, and failing that a shifted Cholesky factor (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3).
Conjugate gradients solve every fit that one of them clears.  A fit that
neither clears is resampled once on a denser source grid and refitted;
with no certificate after that resample the fit fails with a
:class:`~curvedual.errors.ResolutionError` (see :func:`dual_surface`).
"""

from __future__ import annotations

import logging
import math
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

# relative diagonal shift whose Cholesky factor certifies kappa_2(B) < 1e3
_CHOLESKY_SHIFT = 2e-6
# largest ||A - I||_F that certifies the fit: kappa_2(A) <= 9 there
_FROBENIUS_MAX = 0.8
# relative residual at which conjugate gradients stops
_CG_TOL = 1e-14
# relative residual at which the refinement of a Cholesky-certified fit
# stops
_REFINE_TOL = 1e-4


class _UncertifiedFit(ResolutionError):
    """A dual fit that no certificate clears at its sample density."""


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
    Gauss map read in that chart, so it sums to 4 pi up to quadrature
    error.
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


def dual_as_graph(samples: DualSamples, L_max: int) -> GraphSurface:
    """Fit the dual samples as a radial graph about the antipodal pole.

    A weighted least-squares spherical-harmonic fit of ``r_star`` over the
    scattered dual directions: with B the basis matrix (n columns) and W
    the diagonal of ``samples.weights``, the rows of B and ``r_star`` are
    scaled by sqrt(W); B comes weighted from
    :func:`~curvedual.spectral.basis_matrix`, which folds sqrt(W) into its
    longitude rows, so no pass over B scales it afterwards.  The weights
    are the samples' areas on the dual chart sphere, so A = B^T W B is a
    quadrature of the Gram matrix of an orthonormal basis and close to
    the identity, and B^T W r_star is the quadrature of the coefficient
    integrals (Driscoll & Healy 1994).  The solve stays an exact
    least-squares solve of the weighted rows.

    Two outcomes:

    * **Certified: conjugate gradients.**  When a certificate bounds the
      condition number of A, conjugate gradients from the quadrature
      coefficients solve A c = B^T W r_star to relative residual 1e-14,
      within n steps (Golub & Van Loan, *Matrix Computations*, 4th ed.,
      section 11.3).  The certificates, the first that applies:

      - *Frobenius.*  With eta an upper bound on ||A - I||_F that
        includes the rounding of forming A, every eigenvalue of A lies
        in [1 - eta, 1 + eta].  When eta <= 0.8, kappa_2(A) <=
        (1 + eta) / (1 - eta) <= 9, so each step cuts the CG error bound
        by at least half.  Every fit of the benchmark ``dual`` inputs of
        seeds 0, 3 and 7 is cleared here (eta at most 0.56).
      - *Shifted Cholesky.*  With s = ||A||_1 >= lambda_max(A) and the
        shift mu = 2e-6 s, the Cholesky factorization of A - mu I
        completes with a finite diagonal.  By the backward-error bound of
        Cholesky factorization (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., Thm 10.3; Demmel 1989) that
        factor is exact for A - mu I + E with ||E||_2 <= n(n+1) u s, u the
        unit roundoff, so lambda_min(A) > 1e-6 lambda_max(A) whenever
        n(n+1) u < 1e-6 (n below about 9e4): the weighted basis has
        kappa_2 < 1e3.  The normal equations alone reach the
        least-squares solution with relative error about
        eps * kappa^2 <= 1e-10 (Golub & Van Loan, section 5.3); one step
        of iterative refinement with the least-squares residual
        B^T W (r_star - B c) takes it to about 1e-14 on the squeezed test
        fits (Bjorck, *Numerical Methods for Least Squares Problems*,
        1996).  The correction is needed to a few digits only, so its CG
        stops at relative residual 1e-4; an early stop is safe, since
        each CG iterate from zero has a smaller A-norm error than no
        correction.  The first legs of the canonical solve output and of
        acceptance 03 are cleared here and take 3 and 14 steps.  The test
        is sufficient, not necessary: it can fail once kappa_2 exceeds
        about sqrt(lambda_max / mu) <= 707.

    * **Uncertified.**  A fit that no certificate clears, or whose CG
      misses its tolerance, is not solved: it raises.  The dual
      directions cluster where the source curvature is large, and the
      cure is denser samples there, which :func:`dual_surface` takes.

    The path taken is logged at DEBUG on this module's logger.

    Raises
    ------
    ResolutionError
        If any sample or weight is not finite, before any factorization,
        or if the fit is uncertified as above, as a private subclass
        that :func:`dual_surface` answers with one resample; with no
        certificate after one resample, it raises the base class.
    """
    if not all(np.isfinite(v).all() for v in (samples.eta_theta,
                                              samples.eta_phi,
                                              samples.r_star,
                                              samples.weights)):
        raise ResolutionError("dual samples are not finite; the source "
                              "surface cannot be fitted")
    root = np.sqrt(samples.weights)
    B = spectral.basis_matrix(L_max, samples.eta_theta, samples.eta_phi,
                              root)
    rhs = root * samples.r_star
    A = B.T @ B  # numpy sends this form to syrk
    quadrature = B.T @ rhs
    n = A.shape[0]
    eta = _distance_from_identity(A, samples.n_nodes)
    frobenius = eta <= _FROBENIUS_MAX
    converged = False
    if frobenius or _certifies_normal_equations(A):
        method = f"||A - I||_F <= {eta:.3g}" if frobenius else \
            "shifted Cholesky"
        coeffs, steps, converged = _cg_steps(A, quadrature, quadrature.copy(),
                                             _CG_TOL, n)
        method += f", CG steps {steps}" + ("" if converged else
                                            " short of tolerance")
        if converged and not frobenius:
            # one step of refinement with the least-squares residual
            residual = B.T @ (rhs - B @ coeffs)
            correction, steps, _ = _cg_steps(A, residual,
                                             np.zeros_like(residual),
                                             _REFINE_TOL, n)
            coeffs += correction
            method += f", refinement steps {steps}"
    else:
        method = "no certificate"
    log.debug("dual graph fit: %d samples, L_max=%d, %s",
              samples.n_nodes, L_max, method)
    if not converged:
        raise _UncertifiedFit(f"dual graph fit at L_max {L_max} is "
                              f"uncertified at {samples.n_nodes} samples: "
                              f"{method}")
    return GraphSurface(n=2, pole=samples.pole.copy(),
                        radial=spectral.HarmonicCoeffs(L_max, coeffs),
                        gauge_tau0=default_gauge_tau0())


def _distance_from_identity(A: np.ndarray, n_samples: int) -> float:
    """Upper bound on ||A - I||_F for the exact A = B^T B of rounded B.

    The norm is taken with the diagonal shifted in place and then
    restored, so no copy of A is made; the form
    vdot(A, A) - 2 tr A + n would cancel.  Each entry of the computed A
    is a sum of ``n_samples`` products, in error by at most
    gamma_N ||b_i|| ||b_j|| (Higham, Sec. 3.1), so ||E||_F <= gamma_N tr A;
    the norm's own rounding is covered by gamma over the entries of A.
    """
    diagonal = A.diagonal().copy()
    np.fill_diagonal(A, diagonal - 1.0)
    eta = float(np.linalg.norm(A))
    np.fill_diagonal(A, diagonal)
    trace = float(diagonal.sum())
    return eta * (1.0 + _gamma(A.size)) + _gamma(n_samples) * trace


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    nu = n * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


def _cg_steps(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float,
              cap: int) -> tuple[np.ndarray, int, bool]:
    """At most ``cap`` conjugate-gradient steps on A c = b, updating c.

    Stops once ||b - A c|| <= tol ||b||.  Returns c, the steps taken and
    whether that tolerance was met.
    """
    r = b - A @ c
    p = r.copy()
    rr = float(r @ r)
    stop = (tol * float(np.linalg.norm(b))) ** 2
    for step in range(cap):
        if rr <= stop:
            return c, step, True
        q = A @ p
        alpha = rr / float(p @ q)
        c += alpha * p
        r -= alpha * q
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    return c, cap, rr <= stop


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

    A fit that no certificate clears (see :func:`dual_as_graph`) is
    resampled once, at ``max(sample_L + 4, ceil((L_max + 4) sqrt(J_max)))``
    with J = ``samples.weights / grid.weights`` the area ratio of the
    Gauss map at the first samples, and refitted; the resample is logged at DEBUG.  The dual samples lie
    sparsest where J is largest, and the resample spaces them there about
    as ``build_grid(L_max + 4)`` spaces its nodes: the density that
    spherical Marcinkiewicz-Zygmund inequalities ask of a sample set
    (Mhaskar, Narcowich & Ward, Math. Comp. 70, 2001).

    Raises
    ------
    ConvexityError
        If the surface is not strictly convex.
    ResolutionError
        If the samples are not finite, or if the fit has no certificate
        after one resample; the message names both ``sample_L``.
    """
    if L_max is None:
        L_max = surface.L_max + 8
    if sample_L is None:
        sample_L = L_max + 4
    samples = _samples(surface, sample_L)
    try:
        return dual_as_graph(samples, L_max=L_max)
    except _UncertifiedFit:
        pass  # resampled below, once the failed fit's arrays are freed
    ratio = samples.weights / build_grid(sample_L).weights
    dense = max(sample_L + 4,
                math.ceil((L_max + 4) * math.sqrt(float(ratio.max()))))
    log.debug("dual graph fit uncertified at sample_L=%d; resampling at "
              "sample_L=%d", sample_L, dense)
    try:
        return dual_as_graph(_samples(surface, dense), L_max=L_max)
    except _UncertifiedFit:
        raise ResolutionError(
            f"dual graph fit at L_max {L_max} has no certificate at "
            f"sample_L {sample_L}, nor after one resample at sample_L "
            f"{dense}") from None


def _samples(surface: GraphSurface, sample_L: int) -> DualSamples:
    """The dual samples of ``surface`` at the nodes of ``build_grid``."""
    field = curvature_field(surface.padded_to(sample_L), build_grid(sample_L),
                            require_convex=True)
    return gauss_map(field)


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
