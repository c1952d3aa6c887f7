"""Homotopy continuation for prescribed-curvature graphs over the sphere.

The equation solved is, per quadrature node,

    residual(u, t) = F(principal curvatures of graph u) - (t f + (1 - t) c)

with ``f`` the prescribed positive data and ``c`` a constant chosen below
its minimum.  At t = 0 the exact solution is a geodesic sphere; the path
is followed to t = 1 by damped quasi-Newton steps in the radial coefficient
vector, each solve started from the secant extrapolation of the last two
points on the path, restricted to the subspace invariant under a
symmetry group that acts freely on the sphere.  The only such group
besides the trivial one is the antipodal group, whose invariant subspace
is the even-degree coefficients.  Restricting to it removes the
three-dimensional kernel of the linearization spanned by the degree-1
harmonics, which otherwise makes the Newton system singular at every
solution.

With the antipodal group the solve runs on half the sphere.  For an
invariant iterate and invariant data the residual is even,
lambda(-xi) = lambda(xi), because xi -> -xi is an isometry of the
parameter sphere that carries the surface to itself.  The run grid is
then the folded grid of ``spectral.build_folded_grid``: the Gauss-Legendre
rows north of the equator at doubled weights, the equator row once, and
2 L_max + 2 longitudes, so that every dropped node is the antipode of a
kept one.  Its node maximum of the residual and its projection onto the
even-degree basis equal those of the full grid with the same longitudes,
so the iterates are that grid's, to rounding, at half the nodes of every
state, assembly and projection.  The trivial group runs on the full grid.

The residual at a node depends only on the radial jet (r, r_t, r_p,
r_tt, r_tp, r_pp) at that node, so a state is one product of the stacked
synthesis matrices with the coefficients, and the Newton matrix factors
through six per-node partial derivatives.  These are central finite
differences on the jets, evaluated in one batch through the curvature
kernel, and the matrix follows from them by one contraction with the
stacked synthesis matrices.  The matrix is rarely assembled: Newton
steps apply an approximate inverse held across iterations and homotopy
steps and corrected by Broyden updates, and the matrix is assembled and
inverted again only when the residual stops contracting fast enough.
The LU inverse also bounds the condition number; singular values are
computed only when that bound cannot clear the matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _kernels, spectral
from .curvature import CurvatureFunction, class_K_check
from .errors import (ConfigError, DataError, DomainError, GroupError,
                     NewtonError, SingularJacobianError)
from .geometry import (HEMISPHERE_MARGIN, CurvatureField, GraphSurface,
                       check_annulus, curvature_field, sphere_surface)
from .spectral import HarmonicCoeffs, QuadratureGrid, build_grid, num_coeffs

_MATCH_TOL = 1e-12
_SOLVE_RCOND = 1e-12
_JET_STEP = 1e-6  # central-difference step on each radial jet component
_KERNEL_RCOND = 1e-8
# quasi-Newton refresh rules: a projected-residual contraction worse than
# _THETA_MAX, or |s^T X y| <= _BROYDEN_RCOND |s| |X y| (a near-singular
# update), assembles the Newton matrix again
_THETA_MAX = 0.25
_BROYDEN_RCOND = 1e-8


# ------------------------------------------------------------- symmetry

@dataclass
class SymmetryGroup:
    """Finite group of orthogonal transformations of the parameter sphere.

    Elements are 3 x 3 orthogonal matrices.  ``validate`` checks the
    group axioms on the element list and that no element other than the
    identity fixes a direction, the condition that keeps degree-1
    harmonics out of the invariant subspace.  Only two groups pass:
    the trivial group and the antipodal group.
    """

    name: str
    elements: list

    def __post_init__(self):
        self.elements = [np.asarray(A, dtype=float) for A in self.elements]
        for A in self.elements:
            if A.shape != (3, 3):
                raise GroupError(f"group element has shape {A.shape}, "
                                 "expected (3, 3)")

    @classmethod
    def antipodal(cls) -> "SymmetryGroup":
        """The two-element group generated by xi -> -xi."""
        return cls(name="antipodal", elements=[np.eye(3), -np.eye(3)])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def has_antipode(self) -> bool:
        """Whether xi -> -xi is an element."""
        return self._index_of(-np.eye(3)) >= 0

    def _index_of(self, M: np.ndarray) -> int:
        for k, A in enumerate(self.elements):
            if np.max(np.abs(A - M)) <= _MATCH_TOL:
                return k
        return -1

    def validate(self) -> None:
        """Check orthogonality, distinct elements, the group axioms, and
        freeness.

        A group that passes is {I} or {I, -I}: a rotation other than I
        fixes its axis, so G meets SO(3), the kernel of det on G, only in
        I and |G| <= 2; and the only orthogonal involution with no
        eigenvalue 1 is -I.

        Raises
        ------
        GroupError
            With a diagnostic naming the failing element; for a fixed
            direction the offending unit vector is included.
        """
        for k, A in enumerate(self.elements):
            if np.max(np.abs(A.T @ A - np.eye(3))) > 1e-10:
                raise GroupError(f"element {k} is not orthogonal")
            first = self._index_of(A)
            if first < k:
                raise GroupError(f"element {k} repeats element {first}; "
                                 "list each group element once")
        if self._index_of(np.eye(3)) < 0:
            raise GroupError("identity element missing")
        for k, A in enumerate(self.elements):
            if self._index_of(A.T) < 0:
                raise GroupError(f"inverse of element {k} not in the group")
            for kk, B in enumerate(self.elements):
                if self._index_of(A @ B) < 0:
                    raise GroupError(
                        f"product of elements {k} and {kk} not in the group")
        for k, A in enumerate(self.elements):
            if np.max(np.abs(A - np.eye(3))) <= _MATCH_TOL:
                continue
            if abs(np.linalg.det(A - np.eye(3))) < 1e-12:
                vals, vecs = np.linalg.eig(A)
                j = int(np.argmin(np.abs(vals - 1.0)))
                v = np.real(vecs[:, j])
                v /= np.linalg.norm(v)
                raise GroupError(
                    f"element {k} fixes the direction {v.tolist()}; the "
                    "group must act freely on the parameter sphere")


@dataclass
class InvariantBasis:
    """Orthonormal basis of an invariant coefficient subspace.

    ``matrix`` has one column per basis vector; ``degrees`` labels each
    column with the spherical-harmonic degree it lives in, which the
    construction preserves.
    """

    L_max: int
    matrix: np.ndarray   # (num_coeffs, dim)
    degrees: np.ndarray  # (dim,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def columns_of_degree(self, l: int) -> np.ndarray:
        return np.nonzero(self.degrees == l)[0]

    def stray(self, values: np.ndarray) -> float:
        """Largest coefficient of ``values`` outside the subspace."""
        B = self.matrix
        return float(np.max(np.abs(values - B @ (B.T @ values))))


def full_basis(L_max: int) -> InvariantBasis:
    """Identity basis of the whole coefficient space (no symmetry)."""
    l = np.arange(L_max + 1)
    return InvariantBasis(L_max=L_max, matrix=np.eye(num_coeffs(L_max)),
                          degrees=np.repeat(l, 2 * l + 1))


def invariant_projector(group: SymmetryGroup, grid: QuadratureGrid
                        ) -> InvariantBasis:
    """Basis B of the group-invariant coefficients; the projector is B B^T.

    After ``group.validate`` the group G is {I} or {I, -I}: a rotation
    other than I fixes its axis, so G meets SO(3), the kernel of det on
    G, only in I and |G| <= 2; and the only orthogonal involution with
    no eigenvalue 1 is -I.  Since Y_lm(-xi) = (-1)^l Y_lm(xi), the
    invariant coefficients are all of them for {I} and those of even
    degree for {I, -I}, up to the truncation of ``grid``; B holds the
    matching columns of the identity.
    """
    group.validate()
    basis = full_basis(grid.L_max)
    if not group.has_antipode:
        return basis
    even = basis.degrees % 2 == 0
    return InvariantBasis(L_max=grid.L_max, matrix=basis.matrix[:, even],
                          degrees=basis.degrees[even])


# ------------------------------------------------------------ input data

@dataclass
class PrescribedData:
    """Prescribed positive data f and the homotopy base constant c.

    The data factorizes as f(r, xi) = exp(a(r)) * exp(b(xi)) with ``a``
    a polynomial in the radial coordinate (coefficients in ascending
    order) and ``b`` a band-limited field supported on group-invariant
    harmonics.  The exponential form keeps f positive by construction.
    """

    a_poly: np.ndarray
    b: HarmonicCoeffs
    c: float

    def __post_init__(self):
        self.a_poly = np.atleast_1d(np.asarray(self.a_poly, dtype=float))
        self.c = float(self.c)

    def radial_factor(self, r: np.ndarray) -> np.ndarray:
        return np.exp(npoly.polyval(np.asarray(r, dtype=float), self.a_poly))

    def min_f(self) -> float:
        """Minimum of f over the open hemisphere annulus, by dense sampling."""
        r = np.linspace(HEMISPHERE_MARGIN, np.pi / 2 - HEMISPHERE_MARGIN,
                        4097)
        b = spectral.synthesize_product(
            self.b, np.linspace(0.0, np.pi, 181),
            np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
        return float(self.radial_factor(r).min() * np.exp(b.min()))

    def validate(self, basis: InvariantBasis) -> None:
        """Check positivity of the margin to c and group invariance.

        Raises
        ------
        DataError
            If c is not strictly between 0 and the minimum of f, if the
            angular factor is truncated above ``basis.L_max``, or if its
            coefficients leave the invariant subspace ``basis`` spans
            (tolerance 1e-12).
        """
        if not np.all(np.isfinite(self.a_poly)):
            raise DataError("radial polynomial has non-finite coefficients")
        if not np.all(np.isfinite(self.b.values)):
            raise DataError("angular field has non-finite coefficients")
        if not 0.0 < self.c < np.inf:
            raise DataError("homotopy base constant must be positive and "
                            f"finite, got {self.c!r}")
        fmin = self.min_f()
        if self.c >= fmin:
            raise DataError(
                f"homotopy base constant c = {self.c:.6g} must be strictly "
                f"below the minimum of the prescribed data, min f = "
                f"{fmin:.6g}")
        if self.b.L_max > basis.L_max:
            raise DataError(
                f"angular field has L_max = {self.b.L_max}, above the run "
                f"truncation L_max = {basis.L_max}")
        err = basis.stray(self.b.pad_to(basis.L_max).values)
        if err > 1e-12:
            raise DataError(
                f"prescribed data is not invariant under the symmetry "
                f"group: coefficient content {err:.3g} outside the "
                "invariant subspace")


def default_base_constant(data_min: float) -> float:
    """Default homotopy constant: 90 percent of the data minimum."""
    return 0.9 * data_min


# ---------------------------------------------------------------- solver

@dataclass
class SolverOptions:
    """Tolerances and step-control constants for Newton and continuation."""

    L_max: int = 24
    tol: float = 1e-10
    kappa_floor: float = 1e-4
    kappa_ceil: float = 1e4
    dt0: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.25
    max_newton: int = 25
    max_halvings: int = 20

    def validate(self) -> None:
        """Raise ConfigError for a truncation no grid takes and for step
        controls that stall or fake a run."""
        if not isinstance(self.L_max, (int, np.integer)):
            raise ConfigError(
                f'"L_max" must be an integer, got {self.L_max!r}')
        if self.L_max < 4:
            raise ConfigError(f"L_max must be at least 4, got {self.L_max}")
        # zero, negative or NaN steps never advance t; an infinite or NaN
        # tolerance accepts every iterate
        for key in ("dt0", "dt_min", "dt_max"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ConfigError(f'"{key}" must be finite and positive, got '
                                  f"{getattr(self, key)!r}")
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError(
                f'"tol" must be finite and nonnegative, got {self.tol!r}')
        if self.max_newton < 0:
            raise ConfigError(
                f'"max_newton" must be nonnegative, got {self.max_newton}')
        # a nonpositive floor lets a non-convex iterate through the line
        # search; an empty band rejects every trial as a numerical failure
        if not 0.0 < self.kappa_floor < self.kappa_ceil < np.inf:
            raise ConfigError(
                '"kappa_floor" and "kappa_ceil" must satisfy 0 < '
                f'"kappa_floor" < "kappa_ceil" < inf, got '
                f"{self.kappa_floor!r} and {self.kappa_ceil!r}")
        if self.max_halvings < 0:
            raise ConfigError(
                f'"max_halvings" must be nonnegative, got {self.max_halvings}')


def initial_sphere(F: CurvatureFunction, c: float, L_max: int = 24,
                   pole: np.ndarray | None = None) -> GraphSurface:
    """Geodesic sphere solving F = c exactly.

    On a sphere of radius r every principal curvature is cot r, so by
    degree-one homogeneity F = cot r * F(1, ..., 1); the radius solving
    F = c follows from inverting the cotangent.
    """
    if c <= 0.0:
        raise DataError(f"base constant must be positive, got {c!r}")
    f_unit = float(F(np.ones(F.n)))
    radius = np.arctan2(f_unit, c)
    return sphere_surface(radius, L_max=L_max, pole=pole)


@dataclass
class _State:
    """Residual field, curvature bounds and radial bounds at one iterate."""

    lam: np.ndarray
    norm: float
    kappa_min: float
    kappa_max: float
    r_min: float
    r_max: float


class NewtonWorkspace:
    """Precomputed matrices for residual and Jacobian evaluation.

    Radial synthesis restricted to the invariant basis is six dense
    matrices, one per chart derivative, stacked in one (6, N, M) array;
    residual projection is one more.
    All Newton work is matrix products against these, and one workspace
    serves every Newton solve of a continuation run.  So does the
    approximate inverse Newton matrix ``inverse`` (None until the first
    assembly, and after a failed solve); ``refreshes`` counts the
    assemblies that produced it.
    """

    def __init__(self, grid: QuadratureGrid, basis: InvariantBasis,
                 data: PrescribedData, F: CurvatureFunction):
        if basis.L_max != grid.L_max:
            raise ValueError("basis truncation does not match grid")
        self.grid = grid
        self.basis = basis
        self.synth = spectral._synthesis(grid.ops, basis.matrix)
        self.project = self.synth[0].T * grid.weights
        self.exp_b = np.exp(spectral.synthesize_product(data.b, *grid.axes))
        self.data = data
        self.F = F
        self.inverse: np.ndarray | None = None
        self.refreshes = 0

    def _lambda_of_jets(self, jets, t: float):
        """Residual fields and principal curvatures, each (N, nb).

        ``jets`` are the six radial jet fields; DomainError is raised if
        any field leaves the hemisphere annulus.
        """
        R, RT, RP, RTT, RTP, RPP = jets
        check_annulus(R)
        K1, K2 = _kernels.kappa_batch(self.grid.theta, self.grid.phi,
                                      R, RT, RP, RTT, RTP, RPP)
        kappa = np.stack([K1, K2], axis=-1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            Fv = self.F(kappa)
            fv = self.data.radial_factor(R) * self.exp_b[:, None]
            lam = Fv - (t * fv + (1.0 - t) * self.data.c)
        return lam, K1, K2

    def _jets(self, z: np.ndarray) -> np.ndarray:
        """The six radial jet fields of ``z``, (6, N), in one product."""
        return (self.synth.reshape(-1, len(z)) @ z).reshape(6, -1)

    def state(self, z: np.ndarray, t: float) -> _State:
        jets = self._jets(z)[:, :, None]
        lam, K1, K2 = self._lambda_of_jets(jets, t)
        lam = lam[:, 0]
        return _State(lam=lam, norm=float(np.max(np.abs(lam))),
                      kappa_min=float(K1.min()), kappa_max=float(K2.max()),
                      r_min=float(jets[0].min()), r_max=float(jets[0].max()))

    def residual_vector(self, state: _State) -> np.ndarray:
        return self.project @ state.lam

    def jacobian(self, z: np.ndarray, t: float) -> np.ndarray:
        """Newton matrix of the projected residual with respect to z.

        The residual at node q depends only on the jet at q, so
        J = project @ sum_k diag(d lambda / d jet_k) @ synth_k.  Each
        partial is a central difference on one jet component; the twelve
        perturbed copies of the jets share one kernel call.
        """
        jets = np.repeat(self._jets(z)[:, :, None], 12, axis=2)  # (6, N, 12)
        for k in range(6):
            jets[k, :, 2 * k] += _JET_STEP
            jets[k, :, 2 * k + 1] -= _JET_STEP
        lam = self._lambda_of_jets(jets, t)[0]
        d = (lam[:, 0::2] - lam[:, 1::2]) / (2.0 * _JET_STEP)  # (N, 6)
        return self.project @ np.einsum("nk,knm->nm", d, self.synth)

    def refresh(self, z: np.ndarray, t: float) -> None:
        """Assemble the Newton matrix at (z, t) and hold its gated inverse."""
        self.inverse = _gated_inverse(self.jacobian(z, t))
        self.refreshes += 1


def _gated_inverse(J: np.ndarray) -> np.ndarray:
    """Inverse of the Newton matrix J, rejecting numerically singular J.

    A matrix is rejected when its smallest singular value is below 1e-12
    times its largest.  The LU inverse gives the 1-norm condition number
    kappa_1; since kappa_2 <= M kappa_1 for an M x M matrix,
    M kappa_1 < 1e12 proves the matrix passes without computing a
    singular value.  Otherwise the singular values decide; an exactly
    zero LU pivot counts as singular.
    """
    M = len(J)
    try:
        X = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        X = None
    if X is not None:
        kappa1 = np.abs(J).sum(axis=0).max() * np.abs(X).sum(axis=0).max()
        if M * kappa1 * _SOLVE_RCOND < 1.0:
            return X
    s = np.linalg.svd(J, compute_uv=False)
    if X is None or s[0] == 0.0 or s[-1] < _SOLVE_RCOND * s[0]:
        dim = int(np.sum(s < _KERNEL_RCOND * s[0])) if s[0] > 0 else len(s)
        raise SingularJacobianError(
            f"Newton system is numerically singular (smallest relative "
            f"singular value {s[-1] / max(s[0], 1e-300):.3g}); the "
            "symmetry restriction may be missing or misconfigured",
            null_dimension=dim)
    return X


def near_kernel(J: np.ndarray, rcond: float = _KERNEL_RCOND):
    """Dimension and directions of the near-null space of a Jacobian.

    Returns (dim, rows) where rows holds the right singular vectors with
    singular value below ``rcond`` times the largest.
    """
    _, s, Vt = np.linalg.svd(J)
    mask = s < rcond * s[0]
    return int(np.sum(mask)), Vt[mask]


def linear_system(F: CurvatureFunction, data: PrescribedData, t: float,
                  surface: GraphSurface, basis: InvariantBasis | None = None):
    """Assembled Newton matrix and residual at a surface, for diagnostics.

    Returns (J, residual_vector, degrees) in ``basis``, or in the full
    coefficient basis when no basis is given.
    """
    basis = basis if basis is not None else full_basis(surface.L_max)
    ws = NewtonWorkspace(build_grid(surface.L_max), basis, data, F)
    z = basis.matrix.T @ surface.radial.values
    state = ws.state(z, t)
    J = ws.jacobian(z, t)
    return J, ws.residual_vector(state), basis.degrees


def _line_search(ws: NewtonWorkspace, t: float, z: np.ndarray,
                 delta: np.ndarray, state: _State, opts: SolverOptions,
                 halvings: int):
    """First of z + delta, z + delta / 2, ... that lowers the residual.

    A trial must also keep the curvature within [kappa_floor,
    kappa_ceil] and the radius in the hemisphere annulus.  Returns
    (z_try, trial state), or None after ``halvings`` halvings.
    """
    scale = 1.0
    for _ in range(halvings + 1):
        z_try = z + scale * delta
        try:
            trial = ws.state(z_try, t)
        except DomainError:
            trial = None
        if (trial is not None and trial.norm < state.norm
                and trial.kappa_min >= opts.kappa_floor
                and trial.kappa_max <= opts.kappa_ceil):
            return z_try, trial
        scale *= 0.5
    return None


def newton_solve(ws: NewtonWorkspace, t: float, z: np.ndarray,
                 opts: SolverOptions | None = None):
    """Damped quasi-Newton iteration at fixed homotopy parameter t.

    The unknown ``z`` is the radial coefficient vector in the invariant
    basis of ``ws``; the residual is collocated at its quadrature nodes
    and projected back onto that basis.  ``ws`` holds every operator, so
    nothing is built here.  Convergence is measured by the infinity norm
    of the residual over the grid nodes.  A step is accepted only if the
    residual decreases and the iterate stays strictly convex, with
    halving up to ``opts.max_halvings``.  A starting residual that is
    not finite, as F gives on a non-convex iterate, raises NewtonError
    before any linear algebra.

    Each step applies ``ws.inverse``, an approximate inverse Newton
    matrix kept across iterations and across solves, and is followed by
    the "good" Broyden update X <- X + (s - X y)(s^T X) / (s^T X y) for
    the step s and the change y of the projected residual (the
    quasi-Newton corrector QNERR of Deuflhard, *Newton Methods for
    Nonlinear Problems*, 2004, ch. 2).  The matrix is assembled and
    inverted again (a refresh) when none is held, when the contraction
    ||r_new|| / ||r|| of the projected residual exceeds ``_THETA_MAX``,
    when s^T X y is negligible, and when a reused inverse fails its first
    line-search trial; that refresh takes the place of the first
    halving.  A failed solve leaves ``ws.inverse`` at None.

    Returns
    -------
    (ndarray, int, _State)
        The solved coefficients, the number of Newton steps taken, and
        the state at the solution (residual and curvature and radial
        bounds).

    Raises
    ------
    SingularJacobianError, NewtonError, DomainError
    """
    opts = opts or SolverOptions()
    try:
        return _quasi_newton(ws, t, z, opts)
    except (NewtonError, SingularJacobianError, DomainError):
        ws.inverse = None  # an inverse that led to a failure is not reused
        raise


def _quasi_newton(ws: NewtonWorkspace, t: float, z: np.ndarray,
                  opts: SolverOptions):
    state = ws.state(z, t)
    if not np.isfinite(state.norm):
        # e.g. F of a non-convex start; a NaN matrix would only fail
        # later inside LAPACK
        raise NewtonError(
            f"residual is not finite at t = {t:g}; kappa_min "
            f"{state.kappa_min:.6g}")
    r = ws.residual_vector(state)
    for iteration in range(opts.max_newton + 1):
        if state.norm <= opts.tol:
            return z, iteration, state
        if iteration == opts.max_newton:
            raise NewtonError(
                f"no convergence within {opts.max_newton} Newton steps; "
                f"residual {state.norm:.3e} at t = {t:g}")
        accepted = None
        if ws.inverse is not None:  # a reused inverse gets its full step
            accepted = _line_search(ws, t, z, -(ws.inverse @ r), state,
                                    opts, 0)
        if accepted is None:
            ws.refresh(z, t)
            accepted = _line_search(ws, t, z, -(ws.inverse @ r), state,
                                    opts, opts.max_halvings)
        if accepted is None:
            raise NewtonError(
                f"line search failed after {opts.max_halvings} halvings "
                f"at t = {t:g}; residual {state.norm:.3e}")
        z_new, state = accepted
        r_new = ws.residual_vector(state)
        s, X = z_new - z, ws.inverse
        Xy = X @ (r_new - r)
        sXy = s @ Xy
        if (np.linalg.norm(r_new) > _THETA_MAX * np.linalg.norm(r)
                or abs(sXy) <= _BROYDEN_RCOND * np.linalg.norm(s)
                * np.linalg.norm(Xy)):
            ws.inverse = None  # refreshed where the next step needs it
        else:
            X += np.outer(s - Xy, (s @ X) / sXy)
        z, r = z_new, r_new


# ---------------------------------------------------------- continuation

@dataclass
class ContinuationStep:
    """Accepted homotopy step with its convergence and bound monitors."""

    t: float
    iterations: int
    residual: float
    kappa_min: float
    kappa_max: float
    r_min: float
    r_max: float

    def as_dict(self) -> dict:
        return {"t": self.t, "iterations": self.iterations,
                "residual": self.residual, "kappa_min": self.kappa_min,
                "kappa_max": self.kappa_max, "r_min": self.r_min,
                "r_max": self.r_max}


@dataclass
class ContinuationReport:
    """Outcome of a continuation run; ``status`` is converged or failed.

    ``grid`` is the run grid every step was solved on.  With -I in the
    group it is folded and covers half the sphere; sample the surface on
    ``build_grid(L_max)`` for whole-sphere diagnostics.
    """

    steps: list
    final_surface: GraphSurface
    grid: QuadratureGrid
    status: str
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def as_dict(self) -> dict:
        return {"status": self.status, "message": self.message,
                "steps": [s.as_dict() for s in self.steps]}


def _step_record(t, iterations, state: _State) -> ContinuationStep:
    return ContinuationStep(t=float(t), iterations=int(iterations),
                            residual=state.norm, kappa_min=state.kappa_min,
                            kappa_max=state.kappa_max, r_min=state.r_min,
                            r_max=state.r_max)


def continuation(F: CurvatureFunction, data: PrescribedData,
                 opts: SolverOptions | None = None,
                 group: SymmetryGroup | None = None,
                 start: GraphSurface | None = None) -> ContinuationReport:
    """Follow the homotopy from the geodesic sphere to the full problem.

    Adaptive stepping in t: start with ``opts.dt0``; halve on Newton
    failure down to ``opts.dt_min``; grow by 1.5 up to ``opts.dt_max``
    after a solve that assembled the Newton matrix at most once (the
    quasi-Newton iteration count says little about the step's
    difficulty, its refreshes do).  Newton at t_try starts
    from the secant predictor z + (t_try - t) / (t - t_prev) (z - z_prev)
    through the last two accepted points (from z itself on the first
    step after t = 0), rebuilt for every tried t_try.  Every accepted
    step logs residual, curvature bounds and radial bounds.  The run either
    reaches t = 1 at full tolerance or reports the failure point with
    the last good surface.  The iterate is held as its coefficients in
    the invariant basis throughout; the start surface must carry the
    run truncation and lie in that basis's span (tolerance 1e-8).  The
    run grid, returned as the report's ``grid``, is the folded grid when
    -I is in ``group`` and ``build_grid(opts.L_max)`` otherwise.
    """
    opts = opts or SolverOptions()
    opts.validate()
    group = group or SymmetryGroup.antipodal()
    rep = class_K_check(F, n_samples=2000, seed=0)
    if not (rep.monotone and rep.weight_ordering):
        warnings.warn(
            f"curvature function {F.name!r} fails the admissibility "
            "checks (monotonicity or weight ordering); continuation may "
            "lose convexity", stacklevel=2)
    # an iterate invariant under -I has an antipodally even residual
    grid = (spectral.build_folded_grid if group.has_antipode
            else build_grid)(opts.L_max)
    basis = invariant_projector(group, grid)
    data.validate(basis)

    surface = start if start is not None else \
        initial_sphere(F, data.c, L_max=opts.L_max)
    if surface.L_max != opts.L_max:
        raise ValueError(
            f"start surface L_max={surface.L_max} does not match "
            f"options L_max={opts.L_max}")
    stray = basis.stray(surface.radial.values)
    if stray > 1e-8:
        raise DataError(
            f"start surface has coefficient content {stray:.3g} outside "
            "the invariant subspace")
    ws = NewtonWorkspace(grid, basis, data, F)

    z = basis.matrix.T @ surface.radial.values
    steps: list[ContinuationStep] = []
    try:
        z, iters, state = newton_solve(ws, 0.0, z, opts)
    except (NewtonError, SingularJacobianError, DomainError) as exc:
        return ContinuationReport(steps=steps, final_surface=surface,
                                  grid=grid, status="failed",
                                  message=f"t = 0 solve failed: {exc}")
    steps.append(_step_record(0.0, iters, state))

    t, t_prev, z_prev = 0.0, None, None
    dt = opts.dt0
    status, message = "converged", ""
    while t < 1.0:
        t_try = min(1.0, t + dt)
        # secant predictor through the last two accepted points
        z_start = z if z_prev is None else \
            z + (t_try - t) / (t - t_prev) * (z - z_prev)
        refreshes = ws.refreshes
        try:
            z_try, iters, state = newton_solve(ws, t_try, z_start, opts)
        except (NewtonError, SingularJacobianError, DomainError) as exc:
            dt *= 0.5
            if dt < opts.dt_min:
                status = "failed"
                message = f"step size underflow at t = {t_try:g}: {exc}"
                break
            continue
        z_prev, t_prev = z, t
        z, t = z_try, t_try
        steps.append(_step_record(t, iters, state))
        if ws.refreshes - refreshes <= 1:
            dt = min(dt * 1.5, opts.dt_max)
    final = GraphSurface(n=surface.n, pole=surface.pole.copy(),
                         radial=HarmonicCoeffs(opts.L_max, basis.matrix @ z),
                         gauge_tau0=surface.gauge_tau0)
    return ContinuationReport(steps=steps, final_surface=final, grid=grid,
                              status=status, message=message)


# -------------------------------------------------------------- barriers

@dataclass
class BarrierReport:
    """Pointwise barrier verification margins (nonnegative means valid).

    ``passed`` allows a rounding-level shortfall so that a surface can
    serve as its own barrier pair.
    """

    lower_margin: float
    upper_margin: float
    lower_worst_node: int
    upper_worst_node: int

    @property
    def passed(self) -> bool:
        slack = -1e-12
        return self.lower_margin >= slack and self.upper_margin >= slack

    def as_dict(self) -> dict:
        return {"lower_margin": self.lower_margin,
                "upper_margin": self.upper_margin,
                "lower_worst_node": self.lower_worst_node,
                "upper_worst_node": self.upper_worst_node,
                "passed": self.passed}


def data_on_field(f_values, field: CurvatureField) -> np.ndarray:
    """``f_values`` (PrescribedData, scalar or per-node array) at the nodes."""
    if isinstance(f_values, PrescribedData):
        return f_values.radial_factor(field.r) * np.exp(
            spectral.synthesize_product(f_values.b, *field.grid.axes))
    arr = np.asarray(f_values, dtype=float)
    if arr.ndim == 0:
        return np.full_like(field.r, float(arr))
    if arr.shape != field.r.shape:
        raise DataError(
            f"prescribed values shape {arr.shape} does not match the "
            f"{field.r.shape} grid")
    return arr


def check_barriers(F: CurvatureFunction, f_values, lower: GraphSurface,
                   upper: GraphSurface) -> BarrierReport:
    """Verify a barrier pair for the prescribed-curvature problem.

    The lower barrier must satisfy F <= f on its surface and the upper
    barrier F >= f; the upper barrier must be enclosed by the lower one.
    Smaller radius means larger curvature, so the enclosed surface is
    the one with the pointwise smaller radial function.

    ``f_values`` may be a PrescribedData, a scalar, or a per-node array.

    Raises
    ------
    DataError
        If the surfaces are not nested (pointwise r_upper <= r_lower).
    ConvexityError
        If either surface is not strictly convex.
    """
    L = max(lower.L_max, upper.L_max)
    grid = build_grid(L)
    low = curvature_field(lower.padded_to(L), grid, require_convex=True)
    up = curvature_field(upper.padded_to(L), grid, require_convex=True)

    gap = low.r - up.r
    if gap.min() < -1e-12:
        q = int(np.argmin(gap))
        raise DataError(
            f"barrier surfaces are not nested: r_upper > r_lower by "
            f"{-gap.min():.3g} at node {q} "
            f"(theta = {grid.theta[q]:.4f}, phi = {grid.phi[q]:.4f})")

    f_low = data_on_field(f_values, low)
    f_up = data_on_field(f_values, up)
    lower_gap = f_low - F(low.kappa)
    upper_gap = F(up.kappa) - f_up
    return BarrierReport(
        lower_margin=float(lower_gap.min()),
        upper_margin=float(upper_gap.min()),
        lower_worst_node=int(np.argmin(lower_gap)),
        upper_worst_node=int(np.argmin(upper_gap)))
