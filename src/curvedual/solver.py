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
harmonics, which otherwise makes the Newton system singular at the
geodesic spheres the path starts from.

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
state and projection.  The trivial group runs on the full grid.

The residual at a node depends only on the radial jet (r, r_t, r_p,
r_tt, r_tp, r_pp) at that node.  A state is one factored synthesis of
the jets from the 1-D basis tables and its residual vector one factored
analysis, so neither touches a points x coefficients matrix.  The Newton
matrix factors through six per-node partial derivatives.  These are
central finite differences on the jets, evaluated in one batch through
the curvature kernel.  Each jet of a basis function is a colatitude
table column times a longitude table column, so the matrix is assembled
one colatitude row of nodes at a time from the gathered table columns
and then projected; no jets of the whole basis are formed.

Newton steps never assemble that matrix.  They apply an approximate
inverse held across iterations and homotopy steps and corrected by
Broyden updates, kept as vector pairs beside a base inverse, so an
iteration costs matrix-vector products.  The base is the inverse of a
diagonal: at a geodesic sphere the Newton matrix is diagonal by degree,
with entries A l(l+1) + C, and two zonal probes at the current iterate
give A and C without any M x M matrix.  An entry that is negligible
beside the largest, as degree 1 is at a sphere without the symmetry
restriction, inverts to 0, so the step leaves that near-kernel alone.
The assembled matrix serves only :func:`linear_system`, for the
spectrum and kernel diagnostics.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _kernels, spectral
from .curvature import CurvatureFunction, class_K_check
from .errors import (ConfigError, DataError, DomainError, NewtonError,
                     SingularJacobianError)
from .geometry import (HEMISPHERE_MARGIN, CurvatureField, GraphSurface,
                       check_annulus, curvature_field, sphere_surface)
from .spectral import HarmonicCoeffs, QuadratureGrid, build_grid, num_coeffs

log = logging.getLogger(__name__)

_JET_STEP = 1e-6  # central-difference step on each radial jet component
_KERNEL_RCOND = 1e-8  # relative size of a near-kernel entry or singular value
# quasi-Newton rules: a projected-residual contraction worse than
# _THETA_MAX, or |s^T X y| <= _BROYDEN_RCOND |s| |X y| (a near-singular
# update), drops the base
_THETA_MAX = 0.75
_BROYDEN_RCOND = 1e-8
_MAX_HALVINGS = 20  # line-search halvings after a refresh
_MAX_NEWTON = 25  # Newton steps one solve may take
# a line-search trial must keep every principal curvature in this band
_KAPPA_FLOOR, _KAPPA_CEIL = 1e-4, 1e4
_DT_MIN = 1e-4  # a run fails once a halved homotopy step is shorter


# ------------------------------------------------------------- symmetry

@dataclass
class InvariantBasis:
    """The coefficients an invariant subspace keeps.

    The subspace is spanned by the basis functions of the sorted flat
    coefficient indices ``index``; its orthogonal projector keeps those
    coefficients and zeroes the rest.
    """

    L_max: int
    index: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        """Spherical-harmonic degree of each kept coefficient."""
        return np.floor(np.sqrt(self.index)).astype(int)  # exact: < 2**52

    def stray(self, values: np.ndarray) -> float:
        """Largest coefficient of ``values`` outside the subspace."""
        rest = np.ones(len(values), dtype=bool)
        rest[self.index] = False
        return float(np.max(np.abs(values[rest]), initial=0.0))

    def scatter(self, z: np.ndarray) -> np.ndarray:
        """The coefficient vector whose kept coefficients are ``z``."""
        values = np.zeros(num_coeffs(self.L_max))
        values[self.index] = z
        return values


def invariant_projector(antipodal: bool, L_max: int) -> InvariantBasis:
    """The coefficients invariant under {I, -I}, or all of them under {I}.

    The solve needs a finite group G of orthogonal maps acting freely on
    the sphere, so that no degree-1 harmonic is invariant.  Only {I} and
    {I, -I} do: a rotation other than I fixes its axis, so G meets
    SO(3), the kernel of det on G, only in I and |G| <= 2; and the only
    orthogonal involution with no eigenvalue 1 is -I.  Since
    Y_lm(-xi) = (-1)^l Y_lm(xi), the invariant coefficients through
    degree ``L_max`` are those of even degree when ``antipodal`` and all
    of them otherwise.
    """
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    keep = l % 2 == 0 if antipodal else np.ones(len(l), dtype=bool)
    return InvariantBasis(L_max=L_max, index=np.flatnonzero(keep))


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
        if self.a_poly.ndim != 1 or self.a_poly.size == 0:
            raise DataError(
                "a_poly must be a nonempty 1-D list of coefficients, got "
                f"shape {self.a_poly.shape}")
        self.c = float(self.c)

    def radial_factor(self, r: np.ndarray) -> np.ndarray:
        return np.exp(npoly.polyval(np.asarray(r, dtype=float), self.a_poly))

    def min_f(self) -> float:
        """Minimum of f over the open hemisphere annulus.

        The radial factor's minimum is exact: it is attained at an end of
        [margin, pi/2 - margin] or at a root of a' inside (the real parts
        of complex roots are points of the interval too, so they do no
        harm).  The angular factor is sampled on a 181 x 360 product grid.
        """
        lo, hi = HEMISPHERE_MARGIN, np.pi / 2 - HEMISPHERE_MARGIN
        r = np.array([lo, hi])
        if np.all(np.isfinite(self.a_poly)):  # else the eigensolver raises
            crit = npoly.polyroots(npoly.polyder(self.a_poly)).real
            r = np.concatenate([r, crit[(lo < crit) & (crit < hi)]])
        with np.errstate(over="ignore"):  # a steep a_poly may reach inf
            radial = self.radial_factor(r).min()
        b = spectral.synthesize_product(
            self.b, np.linspace(0.0, np.pi, 181),
            np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
        return float(radial * np.exp(b.min()))

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
    """The truncation degree of a run and its node residual tolerance.

    Everything else about a run is fixed: the homotopy step rule of
    :func:`continuation`, the one quasi-Newton base (the truncated
    degree-diagonal inverse of :meth:`NewtonWorkspace.refresh`) and its
    contraction bound ``_THETA_MAX``, the Newton step budget
    ``_MAX_NEWTON``, the line search's curvature band [``_KAPPA_FLOOR``,
    ``_KAPPA_CEIL``] and halvings ``_MAX_HALVINGS``, and the shortest
    step ``_DT_MIN``.
    """

    L_max: int = 24
    tol: float = 1e-10

    def validate(self) -> None:
        """Raise ConfigError for a truncation no grid takes and for a
        tolerance that fakes a run."""
        if not isinstance(self.L_max, (int, np.integer)):
            raise ConfigError(
                f'"L_max" must be an integer, got {self.L_max!r}')
        if self.L_max < 4:
            raise ConfigError(f"L_max must be at least 4, got {self.L_max}")
        # an infinite or NaN tolerance accepts every iterate
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError(
                f'"tol" must be finite and nonnegative, got {self.tol!r}')


def initial_sphere(F: CurvatureFunction, c: float,
                   L_max: int = 24) -> GraphSurface:
    """Geodesic sphere solving F = c exactly, about the default pole.

    On a sphere of radius r both principal curvatures are cot r, so by
    degree-one homogeneity F = cot r * F(1, 1); the radius solving
    F = c follows from inverting the cotangent.
    """
    if c <= 0.0:
        raise DataError(f"base constant must be positive, got {c!r}")
    f_unit = float(F(np.ones(2)))
    radius = float(np.arctan2(f_unit, c))
    if not 0.0 < radius < np.pi / 2:  # c below what a double resolves
        raise DataError(
            f"base constant c = {c:.6g} gives a start sphere of radius "
            f"{radius!r}, outside (0, pi/2)")
    return sphere_surface(radius, L_max=L_max)


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
    """Tables, the held inverse and its refreshes for Newton work on one grid.

    A state synthesizes the six radial jets from the grid's 1-D basis
    tables, and its residual vector is the tables' analysis of the
    weighted residual, gathered to the invariant basis.  One workspace
    serves every Newton solve of a continuation run.  So does the
    approximate inverse Newton matrix: a base ``inverse`` (None until the
    first refresh, and after a failed solve) plus the "good" Broyden
    corrections made since, kept as vector pairs (u_j, v_j) so that
    X = inverse + sum_j u_j v_j^T is applied by :meth:`apply_inverse` and
    never formed.  The base is a vector, the truncated inverse of the
    degree-diagonal model of the Newton matrix (:meth:`refresh`).
    Assigning ``inverse`` drops the pairs; ``diagonal_refreshes`` counts
    the refreshes and ``iterations`` the accepted Newton steps, across
    every solve.

    The assembled Newton matrix (:meth:`jacobian`, for
    :func:`linear_system`) reads the table columns of the kept basis
    functions, colatitude (n_theta, 4, M) and longitude (2, n_phi, M), and
    the weighted projection ``project`` (M, N), its only dense matrix
    besides the (N, M) block it projects.  They are gathered on the first
    assembly (``_assembly_tables``), so a Newton solve never builds them.
    """

    def __init__(self, grid: QuadratureGrid, basis: InvariantBasis,
                 data: PrescribedData, F: CurvatureFunction):
        if basis.L_max != grid.L_max:
            raise ValueError("basis truncation does not match grid")
        self.grid = grid
        self.ops = grid.ops  # the 1-D tables of every state, built here
        self.basis = basis
        self.exp_b = np.exp(spectral.synthesize_product(data.b, *grid.axes))
        self.data = data
        self.F = F
        # rows [:_pairs] of _U and _V are the pairs (u_j, v_j)
        self._U = np.empty((0, len(basis.index)))
        self._V = np.empty((0, len(basis.index)))
        self.inverse = None
        self.diagonal_refreshes = 0
        self.iterations = 0

    @functools.cached_property
    def _assembly_tables(self):
        """The kept columns of the tables and the weighted projection.

        The colatitude factors of u, u_t, u_tt and u_pp, (n_theta, 4, M),
        the longitude factors of u and u_p, (2, n_phi, M), and ``project``;
        u_pp takes u's longitude factor, as d^2/dphi^2 of cos or sin(m phi)
        is -m^2 times itself.
        """
        ops, index, grid = self.ops, self.basis.index, self.grid
        m = ops.orders[index]
        colat = [T[:, index] for T in ops.colat]
        lon = np.stack([T[:, ops.L_max + m] for T in ops.lon[:2]])
        values = colat[0][:, None] * lon[0]  # (n_theta, n_phi, M)
        values *= grid.weights.reshape(grid.n_theta, -1, 1)
        project = values.reshape(grid.n_nodes, -1).T
        return np.stack(colat + [-(m * m) * colat[0]], axis=1), lon, project

    @property
    def project(self) -> np.ndarray:
        """The weighted projection (M, N) onto the invariant basis."""
        return self._assembly_tables[2]

    @property
    def inverse(self) -> np.ndarray | None:
        """The base the Broyden pairs correct, as its diagonal, or None."""
        return self._inverse

    @inverse.setter
    def inverse(self, X: np.ndarray | None) -> None:
        self._inverse = X
        self._pairs = 0

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """X r = inverse * r + sum_j u_j (v_j . r)."""
        k = self._pairs
        return self._inverse * r + self._U[:k].T @ (self._V[:k] @ r)

    def broyden_update(self, s: np.ndarray, Xy: np.ndarray) -> None:
        """X <- X + (s - X y)(s^T X) / (s^T X y), appended as one pair.

        ``Xy`` is X y for the step s and the change y of the residual
        vector; the pair is u = (s - X y) / (s^T X y), v = X^T s.
        """
        k = self._pairs
        if k == len(self._U):
            grow = np.empty((max(2 * k, 8), self._U.shape[1]))
            self._U = np.concatenate([self._U, grow])
            self._V = np.concatenate([self._V, grow])
        self._V[k] = s * self._inverse + (self._U[:k] @ s) @ self._V[:k]
        self._U[k] = (s - Xy) / (s @ Xy)
        self._pairs = k + 1

    def _lambda_of_jets(self, jets, t: float):
        """Residual fields and principal curvatures, each (N, nb).

        ``jets`` are the six radial jet fields; DomainError is raised if
        any field leaves the hemisphere annulus.
        """
        R, RT, RP, RTT, RTP, RPP = jets
        check_annulus(R)
        nodes = self.grid.nodes
        K1, K2 = _kernels.kappa_batch(nodes.sin_theta, nodes.cos_theta,
                                      R, RT, RP, RTT, RTP, RPP)
        kappa = np.stack([K1, K2], axis=-1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            Fv = self.F(kappa)
            fv = self.data.radial_factor(R) * self.exp_b[:, None]
            lam = Fv - (t * fv + (1.0 - t) * self.data.c)
        return lam, K1, K2

    def _jets(self, z: np.ndarray) -> np.ndarray:
        """The six radial jet fields of ``z``, (6, N)."""
        return spectral._synthesis(self.ops, self.basis.scatter(z))

    def state(self, z: np.ndarray, t: float) -> _State:
        jets = self._jets(z)[:, :, None]
        lam, K1, K2 = self._lambda_of_jets(jets, t)
        lam = lam[:, 0]
        return _State(lam=lam, norm=float(np.max(np.abs(lam))),
                      kappa_min=float(K1.min()), kappa_max=float(K2.max()),
                      r_min=float(jets[0].min()), r_max=float(jets[0].max()))

    def residual_vector(self, state: _State) -> np.ndarray:
        """The residual field projected onto the invariant basis."""
        weighted = self.grid.weights * state.lam
        return spectral._analysis(self.ops, weighted)[self.basis.index]

    def jacobian(self, z: np.ndarray, t: float) -> np.ndarray:
        """Newton matrix of the projected residual with respect to z.

        The residual at node q depends only on the jet at q, so
        J = project @ E with E = sum_k diag(d_k) S_k, d_k the partial of
        the residual in jet k and S_k the (N, M) jet k of the kept basis
        functions.  Each partial is a central difference on one jet
        component; the twelve perturbed copies of the jets share one
        kernel call.  S_k at node (i, j) is a colatitude factor at row i
        times a longitude factor at column j, and the six jets take only
        two longitude factors, so the n_phi rows of E at colatitude i are
        two products of the partials of a factor's jets with their
        colatitude factors, (n_phi, 4) @ (4, M) and (n_phi, 2) @ (2, M),
        each times its longitude factor.  S_k itself is never formed.
        """
        jets = np.repeat(self._jets(z)[:, :, None], 12, axis=2)  # (6, N, 12)
        for k in range(6):
            jets[k, :, 2 * k] += _JET_STEP
            jets[k, :, 2 * k + 1] -= _JET_STEP
        lam = self._lambda_of_jets(jets, t)[0]
        d = (lam[:, 0::2] - lam[:, 1::2]) / (2.0 * _JET_STEP)  # (N, 6)
        # by longitude factor: u, u_t, u_tt, u_pp | u_p, u_tp
        d = d[:, [0, 1, 3, 5, 2, 4]].reshape(self.grid.n_theta, -1, 6)
        colat, lon, project = self._assembly_tables
        E = np.empty(d.shape[:2] + lon.shape[2:])
        for E_i, d_i, colat_i in zip(E, d, colat):
            np.multiply(d_i[:, :4] @ colat_i, lon[0], out=E_i)
            E_i += (d_i[:, 4:] @ colat_i[:2]) * lon[1]
        return project @ E.reshape(self.grid.n_nodes, -1)

    def degree_diagonal(self, z: np.ndarray, t: float) -> np.ndarray:
        """The model d_l = A l(l+1) + C of the Newton matrix's diagonal.

        One entry per kept coefficient, by its degree l.  At a geodesic
        sphere the Newton matrix is diagonal by degree with these entries.
        A and C fit the diagonal entries of the zonal basis functions of
        degrees 0 and 2 at (z, t): each is the central difference, by
        ``_JET_STEP`` in its own coefficient, of the residual's projection
        onto that function, from two width-1 kernel calls.  No (N, M) or
        M x M array is formed.
        """
        jets = self._jets(z)
        d = []
        for e in self._zonal_jets:
            lam = [self._lambda_of_jets((jets + h * e)[:, :, None], t)[0]
                   for h in (_JET_STEP, -_JET_STEP)]
            d.append((self.grid.weights * e[0]) @ (lam[0] - lam[1])[:, 0]
                     / (2.0 * _JET_STEP))
        l = self.basis.degrees
        return (d[1] - d[0]) / 6.0 * (l * (l + 1)) + d[0]

    @functools.cached_property
    def _zonal_jets(self) -> list:
        """The six jets of the zonal basis functions of degrees 0 and 2."""
        units = np.zeros((2, num_coeffs(self.grid.L_max)))
        units[0, 0] = units[1, spectral.lm_index(2, 0)] = 1.0
        return [spectral._synthesis(self.ops, a) for a in units]

    def refresh(self, z: np.ndarray, t: float) -> int:
        """Hold the truncated inverse of the degree diagonal at (z, t).

        The Broyden pairs are dropped.  An entry of :meth:`degree_diagonal`
        at most ``_KERNEL_RCOND`` times the largest in magnitude, as
        degree 1 is at a sphere without the symmetry restriction, inverts
        to 0; every other entry d to 1 / d.  Returns the number of entries
        left out that way.

        Raises
        ------
        SingularJacobianError
            If an entry of the diagonal is not finite.
        """
        d = self.degree_diagonal(z, t)
        if not np.all(np.isfinite(d)):
            raise SingularJacobianError(
                f"degree-diagonal Newton model is not finite at t = {t:g}")
        size = np.abs(d)
        kept = size > _KERNEL_RCOND * size.max()
        self.inverse = np.divide(1.0, d, out=np.zeros_like(d), where=kept)
        self.diagonal_refreshes += 1
        return len(d) - int(np.count_nonzero(kept))


def near_kernel(J: np.ndarray):
    """Dimension and directions of the near-null space of a Jacobian.

    Returns (dim, rows) where rows holds the right singular vectors with
    singular value below ``_KERNEL_RCOND`` (1e-8) times the largest.
    """
    _, s, Vt = np.linalg.svd(J)
    mask = s < _KERNEL_RCOND * s[0]
    return int(np.sum(mask)), Vt[mask]


def linear_system(F: CurvatureFunction, data: PrescribedData, t: float,
                  surface: GraphSurface, basis: InvariantBasis | None = None):
    """Assembled Newton matrix and residual at a surface, for diagnostics.

    Returns (J, residual_vector, degrees) in ``basis``, or in the full
    coefficient basis when no basis is given.
    """
    basis = basis if basis is not None else \
        invariant_projector(False, surface.L_max)
    ws = NewtonWorkspace(build_grid(surface.L_max), basis, data, F)
    z = surface.radial.values[basis.index]
    state = ws.state(z, t)
    J = ws.jacobian(z, t)
    return J, ws.residual_vector(state), basis.degrees


def _line_search(ws: NewtonWorkspace, t: float, z: np.ndarray,
                 delta: np.ndarray, state: _State, halvings: int):
    """First of z + delta, z + delta / 2, ... that lowers the residual.

    A trial must also keep the curvature within [_KAPPA_FLOOR,
    _KAPPA_CEIL] and the radius in the hemisphere annulus.  Returns
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
                and trial.kappa_min >= _KAPPA_FLOOR
                and trial.kappa_max <= _KAPPA_CEIL):
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
    of the residual over the grid nodes, against ``opts.tol``, within
    ``_MAX_NEWTON`` steps.  A step is accepted only if the residual
    decreases and the iterate stays strictly convex, with halving up to
    ``_MAX_HALVINGS`` times.  A starting residual that is not finite, as
    F gives on a non-convex iterate, raises NewtonError before any linear
    algebra.

    Each step applies the approximate inverse Newton matrix X of ``ws``,
    kept across iterations and across solves, and is followed by the
    "good" Broyden update X <- X + (s - X y)(s^T X) / (s^T X y) for the
    step s and the change y of the projected residual, stored as one
    vector pair (the quasi-Newton corrector QNERR of Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004, ch. 2).  The base of X is the
    truncated degree-diagonal inverse of :meth:`NewtonWorkspace.refresh`.
    It is refreshed when none is held, when the contraction
    theta = ||r_new|| / ||r|| of the projected residual exceeds
    ``_THETA_MAX`` = 0.75, when s^T X y is negligible, and when a held
    base fails its first line-search trial; that refresh takes the place
    of the first halving.  A line search that fails after a refresh that
    left diagonal entries out says how many in its NewtonError.  A failed
    solve leaves ``ws.inverse`` at None.

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
        # e.g. F of a non-convex start
        raise NewtonError(
            f"residual is not finite at t = {t:g}; kappa_min "
            f"{state.kappa_min:.6g}")
    r = ws.residual_vector(state)
    for iteration in range(_MAX_NEWTON + 1):
        if state.norm <= opts.tol:
            return z, iteration, state
        if iteration == _MAX_NEWTON:
            raise NewtonError(
                f"no convergence within {_MAX_NEWTON} Newton steps; "
                f"residual {state.norm:.3e} at t = {t:g}")
        accepted = None
        if ws.inverse is not None:  # a held base gets its full step
            accepted = _line_search(ws, t, z, -ws.apply_inverse(r), state, 0)
        if accepted is None:
            left_out = ws.refresh(z, t)
            accepted = _line_search(ws, t, z, -ws.apply_inverse(r), state,
                                    _MAX_HALVINGS)
            if accepted is None:
                raise NewtonError(
                    f"line search failed after {_MAX_HALVINGS} halvings "
                    f"at t = {t:g}; residual {state.norm:.3e}"
                    + (f"; the base left out {left_out} near-zero "
                       "degree-diagonal entries" if left_out else ""))
        z_new, state = accepted
        ws.iterations += 1
        r_new = ws.residual_vector(state)
        s = z_new - z
        Xy = ws.apply_inverse(r_new - r)
        theta = np.linalg.norm(r_new) / np.linalg.norm(r)
        if theta > _THETA_MAX or abs(s @ Xy) <= \
                _BROYDEN_RCOND * np.linalg.norm(s) * np.linalg.norm(Xy):
            ws.inverse = None  # refreshed where the next step needs it
        else:
            ws.broyden_update(s, Xy)
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

    ``grid`` is the run grid every step was solved on.  With the antipodal
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


def _logged_try(ws: NewtonWorkspace, t: float, z: np.ndarray,
                opts: SolverOptions):
    """``newton_solve`` at t, logged at DEBUG with its outcome and work."""
    before = ws.iterations, ws.diagonal_refreshes
    outcome = "aborted"  # by an exception continuation does not handle
    try:
        result = newton_solve(ws, t, z, opts)
        outcome = "accepted"
        return result
    except (NewtonError, SingularJacobianError, DomainError) as exc:
        outcome = f"failed ({exc})"
        raise
    finally:
        log.debug("homotopy try t = %.6g: %s; %d iterations, %d diagonal "
                  "refreshes", t, outcome, ws.iterations - before[0],
                  ws.diagonal_refreshes - before[1])


def continuation(F: CurvatureFunction, data: PrescribedData,
                 opts: SolverOptions | None = None,
                 antipodal: bool = True,
                 start: GraphSurface | None = None) -> ContinuationReport:
    """Follow the homotopy from the geodesic sphere to the full problem.

    Adaptive stepping in t: the first try after t = 0 goes to t = 1,
    since a mild problem converges in one step from the sphere.  A Newton
    failure halves the step that failed; the run fails once that half
    drops below ``_DT_MIN``.  An accepted step doubles dt, except right
    after a failed try, when the next step keeps the length that just
    succeeded; every try is clipped to t = 1.
    Newton at t_try starts from the secant predictor
    z + (t_try - t) / (t - t_prev) (z - z_prev) through the last two
    accepted points (from z itself on the first step after t = 0),
    rebuilt for every tried t_try.  Every accepted step records residual,
    curvature bounds and radial bounds; every try, the t = 0 solve
    included, is logged at DEBUG with its outcome, Newton steps and
    degree-diagonal refreshes.  The run either reaches t = 1 at full
    tolerance or reports the failure point with the last good surface.
    The iterate is held as its coefficients in the invariant basis
    throughout; the start surface must carry the run truncation and lie
    in that basis's span (tolerance 1e-8).  The run grid, returned as the report's ``grid``,
    is the folded grid when ``antipodal`` (the group {I, -I}) and
    ``build_grid(opts.L_max)`` otherwise (the trivial group).
    """
    opts = opts or SolverOptions()
    opts.validate()
    rep = class_K_check(F, n_samples=2000, seed=0)
    if not (rep.monotone and rep.weight_ordering):
        warnings.warn(
            f"curvature function {F.name!r} fails the admissibility "
            "checks (monotonicity or weight ordering); continuation may "
            "lose convexity", stacklevel=2)
    # an iterate invariant under -I has an antipodally even residual
    grid = (spectral.build_folded_grid if antipodal
            else build_grid)(opts.L_max)
    basis = invariant_projector(antipodal, opts.L_max)
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

    z = surface.radial.values[basis.index]
    steps: list[ContinuationStep] = []
    try:
        z, iters, state = _logged_try(ws, 0.0, z, opts)
    except (NewtonError, SingularJacobianError, DomainError) as exc:
        return ContinuationReport(steps=steps, final_surface=surface,
                                  grid=grid, status="failed",
                                  message=f"t = 0 solve failed: {exc}")
    steps.append(_step_record(0.0, iters, state))

    t, t_prev, z_prev = 0.0, None, None
    dt, grow = 1.0, True
    status, message = "converged", ""
    while t < 1.0:
        t_try = min(1.0, t + dt)
        # secant predictor through the last two accepted points
        z_start = z if z_prev is None else \
            z + (t_try - t) / (t - t_prev) * (z - z_prev)
        try:
            z_try, iters, state = _logged_try(ws, t_try, z_start, opts)
        except (NewtonError, SingularJacobianError, DomainError) as exc:
            dt, grow = 0.5 * (t_try - t), False
            if dt < _DT_MIN:
                status = "failed"
                message = f"step size underflow at t = {t_try:g}: {exc}"
                break
            continue
        z_prev, t_prev = z, t
        z, t = z_try, t_try
        steps.append(_step_record(t, iters, state))
        if grow:
            dt *= 2.0
        grow = True
    final = GraphSurface(n=surface.n, pole=surface.pole.copy(),
                         radial=HarmonicCoeffs(opts.L_max, basis.scatter(z)),
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
