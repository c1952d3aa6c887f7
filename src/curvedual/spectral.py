"""Spectral machinery on the unit 2-sphere.

Real, fully normalized spherical harmonics on a Gauss-Legendre (colatitude)
x uniform (longitude) product grid.  The basis is orthonormal with respect
to the round metric, so analysis is plain weighted inner products and
synthesis is dense matrix evaluation.  Each basis function separates into
a colatitude factor (an associated Legendre function) times a longitude
factor (cos or sin of m phi), as in Driscoll & Healy, "Computing Fourier
transforms and convolutions on the 2-sphere" (1994).  The evaluation
matrices and their chart derivatives are therefore built from factors
tabulated once per distinct colatitude and longitude, once per grid.

Conventions
-----------
* Basis ordering is lexicographic in (l, m) with m running -l..l, so the
  coefficient index of (l, m) is l*l + l + m.
* Y_{l,0}(theta, phi)   = K_{l0} P_l^0(cos theta)
  Y_{l,m}(theta, phi)   = sqrt(2) K_{lm} P_l^m(cos theta) cos(m phi),  m > 0
  Y_{l,-m}(theta, phi)  = sqrt(2) K_{lm} P_l^m(cos theta) sin(m phi),  m > 0
  with K_{lm} = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)) and P_l^m including the
  Condon-Shortley phase (scipy convention).
* Covariant derivatives are taken with respect to the round metric
  sigma = d theta^2 + sin^2 theta d phi^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import assoc_legendre_p_all

__all__ = [
    "QuadratureGrid",
    "HarmonicCoeffs",
    "build_grid",
    "num_coeffs",
    "lm_index",
    "index_lm",
    "basis_matrix",
    "analyze",
    "synthesize",
    "synthesize_at",
    "surface_gradient",
    "surface_hessian",
    "chart_second_partials",
    "laplace_beltrami",
]


def num_coeffs(L_max: int) -> int:
    """Number of real basis functions through degree L_max."""
    return (L_max + 1) ** 2


def lm_index(l: int, m: int) -> int:
    """Flat coefficient index of the (l, m) basis function."""
    if abs(m) > l:
        raise ValueError(f"invalid order m={m} for degree l={l}")
    return l * l + l + m


def index_lm(idx: int) -> tuple[int, int]:
    """Inverse of :func:`lm_index`."""
    l = int(np.floor(np.sqrt(idx)))
    return l, idx - l * l - l


def _norm_constant(l: int, m: int) -> float:
    from math import lgamma, pi, sqrt, exp

    # sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) via log-gamma for stability
    logfact = lgamma(l - m + 1) - lgamma(l + m + 1)
    return sqrt((2 * l + 1) / (4 * pi)) * exp(0.5 * logfact)


def _basis_tables(L_max: int, theta: np.ndarray, phi: np.ndarray,
                  derivatives: bool) -> list[np.ndarray]:
    """Basis matrices at the points (theta[q], phi[q]), each (len(theta), K).

    Returns [Y], or with ``derivatives`` [Y, Yt, Yp, Ytt, Ytp, Ypp].  Each
    column is a colatitude factor c_lm P_l^|m|(cos theta) times a
    longitude factor cos(m phi) or sin(|m| phi), so the factors are
    tabulated once per distinct angle and every matrix is one
    gather-multiply.  Without derivatives the path is safe at the exact
    poles, where dP/dx diverges for some orders.
    """
    K = num_coeffs(L_max)
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    m = np.arange(K) - l * l - l
    am = np.abs(m)
    # scalar math-module constants: numpy's vector exp may differ in the
    # last bit
    c = np.vectorize(_norm_constant, otypes=[float])(l, am)
    c = np.where(m != 0, c * np.sqrt(2.0), c)

    th, it = np.unique(theta, return_inverse=True)
    ph, ip = np.unique(phi, return_inverse=True)
    # layout [diff, l, m, point] with the Condon-Shortley phase; orders
    # m >= 0 sit at index m.  Reorder to C-contiguous [diff, point, column]
    # so the row gathers below read whole rows.
    tables = assoc_legendre_p_all(L_max, L_max, np.cos(th),
                                  diff_n=int(derivatives))
    P = tables.reshape(len(tables), -1, len(th)).take(
        l * (2 * L_max + 1) + am, axis=1)
    del tables  # before the copy, so the peak stays at table + gather
    P = P.transpose(0, 2, 1).copy()
    pl = P[0]
    pl *= c
    j = np.arange(L_max + 1)
    angle = np.outer(ph, j)
    cos, sin = np.cos(angle), np.sin(angle)

    def by_order(neg, pos):
        # columns of negative order take neg[:, |m|], the others pos[:, m]
        signed = np.concatenate([neg[:, :0:-1], pos], axis=1)
        return signed.take(ip, axis=0).take(L_max + m, axis=1)

    def times(a, b):
        # a[it] * b, multiplied in place in the gathered copy
        out = a.take(it, axis=0)
        out *= b
        return out

    tp = by_order(sin, cos)
    Y = times(pl, tp)
    if not derivatives:
        return [Y]

    st = np.sin(th)[:, None]
    cot = np.cos(th)[:, None] / st
    inv_s2 = 1.0 / st**2
    # d/dtheta = -sin(theta) d/dx
    dpl = P[1]
    dpl *= -st
    dpl *= c
    # associated Legendre ODE gives the second theta derivative from
    # (P, P') without further recurrences
    d2pl = -cot * dpl - (l * (l + 1) - am * am * inv_s2) * pl
    Yt, Ytt, Ypp = [times(a, tp) for a in (dpl, d2pl, -(m * m) * pl)]
    del tp  # one gathered N x K longitude factor alive at a time
    dtp = by_order(j * cos, -j * sin)
    return [Y, Yt, times(pl, dtp), Ytt, times(dpl, dtp), Ypp]


class _BasisOps:
    """Dense evaluation matrices for the basis and its chart derivatives.

    Each matrix has shape (n_nodes, num_coeffs).  Columns follow the
    lexicographic (l, m) ordering.  ``Yt``/``Yp`` are partial derivatives in
    theta/phi, ``Ytt``/``Ytp``/``Ypp`` raw chart second partials.
    """

    def __init__(self, L_max: int, theta: np.ndarray, phi: np.ndarray):
        (self.Y, self.Yt, self.Yp, self.Ytt, self.Ytp,
         self.Ypp) = _basis_tables(L_max, theta, phi, derivatives=True)


@dataclass
class QuadratureGrid:
    """Product quadrature grid: Gauss-Legendre colatitudes x uniform longitudes.

    Nodes avoid the poles.  The weight vector integrates band-limited
    products exactly: polynomials of degree <= 2*n_theta - 1 in cos(theta)
    and trigonometric polynomials of order < n_phi in phi.
    """

    L_max: int
    n_theta: int
    n_phi: int
    theta: np.ndarray      # (N,) flattened, node q = i_theta * n_phi + j_phi
    phi: np.ndarray        # (N,)
    weights: np.ndarray    # (N,), sums to 4 pi
    _ops: _BasisOps | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.theta)

    @property
    def ops(self) -> _BasisOps:
        if self._ops is None:
            self._ops = _BasisOps(self.L_max, self.theta, self.phi)
        return self._ops


def build_grid(L_max: int) -> QuadratureGrid:
    """Build the quadrature grid for transforms through degree ``L_max``.

    Parameters
    ----------
    L_max : int
        Truncation degree, at least 4.
    """
    if L_max < 4:
        raise ValueError(f"L_max must be at least 4, got {L_max}")
    n_theta = L_max + 1
    n_phi = 2 * L_max + 1
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)            # theta ascending (x = cos theta descending)
    theta_1d = np.arccos(x[order])
    wt_1d = w[order]
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(wt_1d, n_phi) * (2.0 * np.pi / n_phi)
    return QuadratureGrid(L_max=L_max, n_theta=n_theta, n_phi=n_phi,
                          theta=theta, phi=phi, weights=weights)


@dataclass
class HarmonicCoeffs:
    """Real spherical-harmonic coefficient vector through degree ``L_max``."""

    L_max: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (num_coeffs(self.L_max),):
            raise ValueError(
                f"expected {num_coeffs(self.L_max)} coefficients for "
                f"L_max={self.L_max}, got shape {self.values.shape}")

    @classmethod
    def zeros(cls, L_max: int) -> "HarmonicCoeffs":
        return cls(L_max, np.zeros(num_coeffs(L_max)))

    @classmethod
    def from_dict(cls, L_max: int, entries: dict[tuple[int, int], float]) -> "HarmonicCoeffs":
        c = cls.zeros(L_max)
        for (l, m), v in entries.items():
            c[l, m] = v
        return c

    def __getitem__(self, lm: tuple[int, int]) -> float:
        return float(self.values[lm_index(*lm)])

    def __setitem__(self, lm: tuple[int, int], v: float):
        self.values[lm_index(*lm)] = v

    def copy(self) -> "HarmonicCoeffs":
        return HarmonicCoeffs(self.L_max, self.values.copy())

    def pad_to(self, L_max: int) -> "HarmonicCoeffs":
        """Zero-pad to a higher truncation; the function is unchanged."""
        if L_max < self.L_max:
            raise ValueError(
                f"cannot pad from L_max={self.L_max} down to {L_max}")
        out = np.zeros(num_coeffs(L_max))
        out[:len(self.values)] = self.values
        return HarmonicCoeffs(L_max, out)

    def degree_slice(self, l: int) -> np.ndarray:
        return self.values[l * l:(l + 1) * (l + 1)]


def basis_matrix(L_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at arbitrary points.

    Returns the (len(theta), num_coeffs) evaluation matrix.  Points may lie
    anywhere on the sphere including the poles (where only m = 0 columns
    are nonzero).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return _basis_tables(L_max, theta, phi, derivatives=False)[0]


def analyze(grid: QuadratureGrid, values: np.ndarray) -> HarmonicCoeffs:
    """Forward transform: quadrature inner products against the basis.

    Exact for fields band-limited to ``grid.L_max``; general smooth fields
    incur the usual aliasing of their super-truncation content.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values, got {values.shape}")
    coeffs = grid.ops.Y.T @ (grid.weights * values)
    return HarmonicCoeffs(grid.L_max, coeffs)


def synthesize(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Inverse transform: evaluate the expansion at the grid nodes."""
    if coeffs.L_max != grid.L_max:
        raise ValueError("coefficient truncation does not match grid")
    return grid.ops.Y @ coeffs.values


def synthesize_at(coeffs: HarmonicCoeffs, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate the expansion at arbitrary points."""
    return basis_matrix(coeffs.L_max, theta, phi) @ coeffs.values


def surface_gradient(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Covariant gradient components (u_theta, u_phi) at the grid nodes.

    These are the components of the differential in the (theta, phi) chart;
    shape (N, 2).
    """
    if coeffs.L_max != grid.L_max:
        raise ValueError("coefficient truncation does not match grid")
    a = coeffs.values
    return np.stack([grid.ops.Yt @ a, grid.ops.Yp @ a], axis=-1)


def chart_second_partials(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Raw chart second partials (u_tt, u_tp, u_pp) at the nodes, shape (N, 3)."""
    if coeffs.L_max != grid.L_max:
        raise ValueError("coefficient truncation does not match grid")
    a = coeffs.values
    o = grid.ops
    return np.stack([o.Ytt @ a, o.Ytp @ a, o.Ypp @ a], axis=-1)


def surface_hessian(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Covariant Hessian with respect to the round metric, shape (N, 2, 2).

    Components: H[:,0,0] = u_;tt, H[:,0,1] = H[:,1,0] = u_;tp,
    H[:,1,1] = u_;pp.  Built from the chart partials and the round-metric
    Christoffel symbols, so the matrix is symmetric by construction.
    """
    grad = surface_gradient(grid, coeffs)
    raw = chart_second_partials(grid, coeffs)
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    cot = ct / st
    H = np.empty((grid.n_nodes, 2, 2))
    H[:, 0, 0] = raw[:, 0]
    H[:, 0, 1] = raw[:, 1] - cot * grad[:, 1]
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] = raw[:, 2] + st * ct * grad[:, 0]
    return H


def laplace_beltrami(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Laplace-Beltrami of the expansion at the nodes (round metric)."""
    H = surface_hessian(grid, coeffs)
    inv_s2 = 1.0 / np.sin(grid.theta) ** 2
    return H[:, 0, 0] + inv_s2 * H[:, 1, 1]
