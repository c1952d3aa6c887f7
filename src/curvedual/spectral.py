"""Spectral machinery on the unit 2-sphere.

Real, fully normalized spherical harmonics on a Gauss-Legendre (colatitude)
x uniform (longitude) product grid.  The basis is orthonormal with respect
to the round metric, so analysis is plain weighted inner products.  Each
basis function separates into a colatitude factor (an associated Legendre
function) times a longitude factor (cos or sin of m phi), as in Driscoll &
Healy, "Computing Fourier transforms and convolutions on the 2-sphere"
(1994).  A grid is represented only by these 1-D factor tables: synthesis
of values and chart derivatives is one product of each colatitude table
with the coefficients laid out by order, then one product in longitude
per jet; analysis is its transpose (Schaeffer, 2013).
The Legendre tables are computed degree-major, one contiguous row per basis
function, so each step of the recurrence reads and writes whole rows; they
are exposed as (colatitudes x coefficients) transposed views.
Both the product tables and ``basis_matrix`` take their longitude factors
from one routine, :func:`_longitude_rows`, which turns each block of eight
orders into the next with the angle-addition formulas instead of calling
libm at the rounded argument m phi.  ``basis_matrix`` runs the same
Legendre recurrence straight at its points and multiplies each degree's
rows in place by that longitude table, whose columns carry optional
per-point row weights, so it gathers nothing, makes no second pass for the
weights, and returns the transposed view of a degree-major array; it is
the only routine that forms a points x coefficients matrix, and no
computation uses it.

At scattered points an expansion is read as a double Fourier series
(Townsend, Wilber & Wright, SIAM J. Sci. Comput. 38, 2016): each
colatitude factor, with sin theta read signed, is a trigonometric
polynomial in theta, so the coefficients fold into a small theta-by-order
matrix, and :func:`jets_at` evaluates values and chart jets with one
product against the longitude rows of the points and one elementwise
contraction against their theta rows.

A grid is built once per process: :func:`build_grid` and
:func:`build_folded_grid` hand every caller the same read-only
:class:`QuadratureGrid`, and keep the grids of the last 8 sizes asked for,
so the factor tables of a size in use are computed once, and so is its
node geometry (``QuadratureGrid.nodes``: sin and cos of each colatitude
and the chart frame fields that the curvature kernels read).

Conventions
-----------
* Basis ordering is lexicographic in (l, m) with m running -l..l, so the
  coefficient index of (l, m) is l*l + l + m.
* Y_{l,0}(theta, phi)   = K_{l0} P_l^0(cos theta)
  Y_{l,m}(theta, phi)   = sqrt(2) K_{lm} P_l^m(cos theta) cos(m phi),  m > 0
  Y_{l,-m}(theta, phi)  = sqrt(2) K_{lm} P_l^m(cos theta) sin(m phi),  m > 0
  with K_{lm} = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)) and
  P_l^m(x) = (-1)^m (1 - x^2)^(m/2) d^m/dx^m P_l(x), the Condon-Shortley
  phase included.  The products K_{lm} P_l^m come straight from the fully
  normalized recurrence, never from P_l^m and K_{lm} apart.
* Covariant derivatives are taken with respect to the round metric
  sigma = d theta^2 + sin^2 theta d phi^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels

__all__ = [
    "QuadratureGrid",
    "HarmonicCoeffs",
    "build_grid",
    "build_folded_grid",
    "num_coeffs",
    "lm_index",
    "index_lm",
    "basis_matrix",
    "analyze",
    "synthesize",
    "synthesize_at",
    "jets_at",
    "synthesize_product",
    "chart_jets",
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


def _legendre(L_max: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """c_lm P_l^|m| at cos/sin of the colatitudes, degree-major (K, len(ct)).

    The fully normalized recurrence (Holmes & Featherstone, 2002): the
    sectoral P_mm, then P_{m+1,m}, then three terms in l, all orders of
    one degree per step; sqrt(2) for m != 0 enters at P_mm.  Each step
    reads and writes whole contiguous rows.
    """
    j = np.arange(1, L_max + 1)[:, None]
    sect = np.cumprod(-np.sqrt((2 * j + 1) / (2 * j)) * st, axis=0)
    sect = np.vstack([np.ones_like(st), np.sqrt(2.0) * sect])
    sect /= np.sqrt(4.0 * np.pi)
    P = np.empty((num_coeffs(L_max), len(ct)))
    for d in range(L_max + 1):
        # rows of order 0 at degrees d, d - 1 and d - 2
        z, z1, z2 = d * d + d, d * d - d, (d - 1) * (d - 1) - (d - 1)
        P[z + d] = sect[d]
        if d >= 1:
            P[z + d - 1] = np.sqrt(2 * d + 1) * ct * P[z1 + d - 1]
        if d >= 2:
            k = np.arange(d - 1)[:, None]
            a = np.sqrt((4 * d * d - 1) / (d * d - k * k))
            b = np.sqrt(((d - 1) ** 2 - k * k) / (4 * (d - 1) ** 2 - 1))
            P[z:z + d - 1] = a * (ct * P[z1:z1 + d - 1]
                                  - b * P[z2:z2 + d - 1])
        P[z - d:z] = P[z + d:z:-1]  # m < 0 repeats |m|
    return P


def _longitude_rows(L_max: int, phi: np.ndarray) -> np.ndarray:
    """The longitude factor of every signed order, (2L+1, len(phi)).

    Row L + m holds sin(|m| phi) for m < 0, else cos(m phi).  Only the
    orders b < 8 and the step 8 phi go through libm; each further block of
    eight orders is the block before it turned by 8 phi with the
    angle-addition formulas,

        cos((k + 8) phi) = cos(k phi) cos(8 phi) - sin(k phi) sin(8 phi),
        sin((k + 8) phi) = sin(k phi) cos(8 phi) + cos(k phi) sin(8 phi),

    so no order reads libm at the rounded argument m phi, whose error
    grows with m.  Each point's rows depend on its own phi alone.
    """
    n = L_max + 1
    cos, sin = np.empty((2, n, len(phi)))
    b = np.arange(min(n, 8))[:, None] * phi
    cos[:8], sin[:8] = np.cos(b), np.sin(b)
    if n > 8:
        c8, s8 = np.cos(8.0 * phi), np.sin(8.0 * phi)
        for k in range(8, n, 8):
            # the last block may be short
            c, s = cos[k - 8:min(k, n - 8)], sin[k - 8:min(k, n - 8)]
            cos[k:k + 8] = c * c8 - s * s8
            sin[k:k + 8] = s * c8 + c * s8
    return np.concatenate([sin[:0:-1], cos])


class _ProductTables:
    """Basis factor tables on the product of colatitudes x longitudes.

    ``colat``: c_lm P_l^|m|(cos theta_i) per column, (n_theta, K), and with
    ``derivatives`` its theta-derivatives (unsafe at the exact poles).
    Each is the transposed view of a degree-major (K, n_theta) array, so
    that a gather of basis columns reads contiguous rows.  ``lon``:
    sin(|m| phi) for m < 0, else cos(m phi), per signed order -L..L, from
    :func:`_longitude_rows`, and its two phi-derivatives, (n_phi, 2L+1).
    ``orders``: the signed order m of each coefficient.  Every table is
    read-only.
    """

    def __init__(self, L_max: int, theta: np.ndarray, phi: np.ndarray,
                 derivatives: bool = True):
        self.L_max = L_max
        l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
        self.orders = m = np.arange(len(l)) - l * l - l
        ct = np.cos(theta)
        # sqrt((1-x)(1+x)) rather than sin(theta): exact zeros at both poles
        st = np.sqrt((1.0 - ct) * (1.0 + ct))
        P = _legendre(L_max, ct, st)
        self.Y = P.T
        self.colat = [self.Y]
        if derivatives:
            am = np.abs(m)
            prev = np.where(am < l, l * l - l + m, 0)  # row of (l - 1, m)
            l, am = l[:, None], am[:, None]
            # sin(theta) dP_lm/dtheta = l cos(theta) P_lm - e_lm P_{l-1,m}
            e = np.sqrt((2 * l + 1) * (l * l - am * am)
                        / np.maximum(2 * l - 1, 1))
            dpl = (l * ct * P - e * P[prev]) / st
            # the associated Legendre ODE gives the second derivative
            self.colat += [dpl.T, (-ct / st * dpl
                                   - (l * (l + 1) - am * am / st**2) * P).T]
        # a C-ordered copy keeps the layout the transforms' BLAS calls see
        f = np.ascontiguousarray(_longitude_rows(L_max, phi).T)
        # d/dphi takes cos(m phi) to -m sin(m phi) and sin(m phi) to
        # m cos(m phi): column L + m of the derivative is -m times column
        # L - m of f
        s = np.arange(-L_max, L_max + 1)
        self.lon = [f, -s * f[:, ::-1], -(s * s) * f]
        for a in (m, *self.colat, *self.lon):
            a.flags.writeable = False


# (colatitude, longitude) table of u, u_t, u_p, u_tt, u_tp, u_pp
_JET_TABLES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _synthesis(tables: _ProductTables, a: np.ndarray) -> np.ndarray:
    """[u] or [u, u_t, u_p, u_tt, u_tp, u_pp] of coefficients ``a``, (K,).

    ``a`` is scattered into the (K, 2L+1) order matrix Z whose row i holds
    a_i in column L + m_i; G_k = colat_k @ Z is then the Legendre sum of
    every order at once, and each jet is one longitude product G_k @
    lon_j^T, written into one (1 or 6, N) array; point q = i_theta * n_phi
    + j_phi.
    """
    Z = np.zeros((len(a), 2 * tables.L_max + 1))
    Z[np.arange(len(a)), tables.L_max + tables.orders] = a
    G = [T @ Z for T in tables.colat]
    jets = _JET_TABLES[:6 if len(G) > 1 else 1]
    out = np.empty((len(jets), len(tables.Y), len(tables.lon[0])))
    for i, (k, j) in enumerate(jets):
        np.matmul(G[k], tables.lon[j].T, out=out[i])
    return out.reshape(len(jets), -1)


def _analysis(tables: _ProductTables, W: np.ndarray) -> np.ndarray:
    """Transpose of the value synthesis, applied to weighted values ``W``.

    ``W`` is (N,) or an (N, c) block.  One longitude product per row
    gives every order's sum; each coefficient then contracts the Legendre
    column with its own order's sums.
    """
    H = np.matmul(tables.lon[0].T,
                  W.reshape(len(tables.Y), -1, W.size // len(W)))
    out = np.einsum("ik,ikc->kc", tables.Y,
                    H[:, tables.L_max + tables.orders])
    return out.reshape((tables.Y.shape[1],) + W.shape[1:])


@dataclass
class QuadratureGrid:
    """Product quadrature grid: Gauss-Legendre colatitudes x uniform longitudes.

    Nodes avoid the poles.  The weight vector integrates band-limited
    products exactly: polynomials of degree <= 2*(L_max + 1) - 1 in
    cos(theta) and trigonometric polynomials of order < n_phi in phi.

    A folded grid (``folded``, from :func:`build_folded_grid`) keeps only
    the rows north of the equator, at doubled weights, and the equator row
    once; its n_phi is even, so each dropped node is the antipode of a
    kept one.  It integrates exactly only integrands that are even under
    xi -> -xi, such as the product of two even-degree fields.
    """

    L_max: int
    n_theta: int           # rows held, L_max + 1 unless folded
    n_phi: int
    theta: np.ndarray      # (N,) flattened, node q = i_theta * n_phi + j_phi
    phi: np.ndarray        # (N,)
    weights: np.ndarray    # (N,), sums to 4 pi
    folded: bool = False
    _ops: _ProductTables | None = field(default=None, repr=False,
                                        compare=False)
    _nodes: _kernels.NodeGeometry | None = field(default=None, repr=False,
                                                 compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.theta)

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The colatitude and longitude lists whose product is the grid."""
        return self.theta[::self.n_phi], self.phi[:self.n_phi]

    @property
    def ops(self) -> _ProductTables:
        """Basis factor tables of the grid, built on first use."""
        if self._ops is None:
            self._ops = _ProductTables(self.L_max, *self.axes)
        return self._ops

    @property
    def nodes(self) -> _kernels.NodeGeometry:
        """sin theta, cos theta and chart frame fields at the nodes.

        Built on first use by :func:`curvedual._kernels._frame_fields`;
        every array is read-only.
        """
        if self._nodes is None:
            nodes = _kernels._frame_fields(self.theta, self.phi)
            for a in nodes:
                a.flags.writeable = False
            self._nodes = nodes
        return self._nodes


@lru_cache(maxsize=8)
def _product_grid(L_max: int, n_phi: int, folded: bool) -> QuadratureGrid:
    """Gauss-Legendre rows of degree L_max + 1 times n_phi longitudes.

    With ``folded``, only the rows of :func:`build_folded_grid`.  The
    grids of the last 8 distinct arguments are kept and handed out again,
    with their node arrays read-only.
    """
    if L_max < 4:
        raise ValueError(f"L_max must be at least 4, got {L_max}")
    n_theta = L_max + 1
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)            # theta ascending (x = cos theta descending)
    theta_1d = np.arccos(x[order])
    wt_1d = w[order]
    if folded:
        # rows i and n_theta - 1 - i are mirror images: keep the north
        # ones at twice their weight and the equator row (odd n_theta) once
        keep = (n_theta + 1) // 2
        theta_1d, wt_1d = theta_1d[:keep], 2.0 * wt_1d[:keep]
        wt_1d[n_theta // 2:] /= 2.0
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, len(theta_1d))
    weights = np.repeat(wt_1d, n_phi) * (2.0 * np.pi / n_phi)
    for a in (theta, phi, weights):
        a.flags.writeable = False
    return QuadratureGrid(L_max=L_max, n_theta=len(theta_1d), n_phi=n_phi,
                          theta=theta, phi=phi, weights=weights,
                          folded=folded)


def build_grid(L_max: int) -> QuadratureGrid:
    """The quadrature grid for transforms through degree ``L_max``.

    The grid is shared per process: every call with the same ``L_max``
    returns the same object, whose node arrays, node geometry and factor
    tables are read-only, while it is among the last 8 grid sizes asked
    for.

    Parameters
    ----------
    L_max : int
        Truncation degree, at least 4.
    """
    return _product_grid(L_max, 2 * L_max + 1, folded=False)


def build_folded_grid(L_max: int) -> QuadratureGrid:
    """Half of the grid for antipodally even integrands through ``L_max``.

    The full grid would have 2 L_max + 2 longitudes, so that phi + pi is
    a node with phi; the antipode (pi - theta, phi + pi) of every node
    south of the equator is then a kept node, and each kept row off the
    equator carries the weight of its mirror row too.  For a field even
    under xi -> -xi the maximum over the nodes and every quadrature sum
    of an even integrand equal those of that full grid.  It is shared and
    read-only like the grids of :func:`build_grid`, and counts among the
    last 8 sizes kept.

    Parameters
    ----------
    L_max : int
        Truncation degree, at least 4.
    """
    return _product_grid(L_max, 2 * L_max + 2, folded=True)


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


def basis_matrix(L_max: int, theta: np.ndarray, phi: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Evaluate all basis functions at arbitrary points.

    Returns the (len(theta), num_coeffs) evaluation matrix, with row q
    scaled by ``weights[q]`` when weights are given.  ``theta``, ``phi``
    and ``weights`` are 1-D arrays of one length; anything else raises
    ValueError.  Points may lie anywhere on the sphere including the
    poles (where only m = 0 columns are nonzero).  The Legendre rows are
    evaluated straight at the points, degree-major, and each degree's
    block is multiplied in place by the rows of orders -l..l of the
    (2L+1, points) longitude table of :func:`_longitude_rows`, which
    carries the weights; the result is the transposed view of that
    (num_coeffs, points) array.  No
    computation of the package forms it; to evaluate an expansion at
    points, :func:`jets_at` needs no points x coefficients array.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.ndim != 1 or phi.shape != theta.shape:
        raise ValueError(f"theta and phi must be 1-D arrays of one length, "
                         f"got shapes {theta.shape} and {phi.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != theta.shape:
            raise ValueError(f"expected weights of shape {theta.shape}, got "
                             f"shape {weights.shape}")
    ct = np.cos(theta)
    P = _legendre(L_max, ct, np.sqrt((1.0 - ct) * (1.0 + ct)))
    lon = _longitude_rows(L_max, phi)
    if weights is not None:
        lon *= weights
    for l in range(L_max + 1):
        P[l * l:(l + 1) * (l + 1)] *= lon[L_max - l:L_max + l + 1]
    return P.T


@lru_cache(maxsize=8)
def _theta_series(L_max: int) -> np.ndarray:
    """The theta series of every colatitude factor, read-only (K, 2L+1).

    With sin(theta) read signed, c_lm P_l^|m|(cos theta) is a cosine
    series for even |m| and a sine series for odd |m|, in the k <= l of
    the parity of l only.  Row i holds it in the layout of
    :func:`_longitude_rows`: the cos(k theta) coefficient in column L + k,
    the sin(k theta) one in column L - k, exact zeros wherever the series
    has no term.  The coefficients are a real DFT, one matrix product, of
    the recurrence at 2L + 2 equispaced angles, refined once by the DFT of
    the residual at those angles; c_00 then comes out exact, where the
    one-shot sum is 6 ulps off.  The tables of the last 8 truncations are
    kept and handed out again.
    """
    n = 2 * L_max + 2
    t = 2.0 * np.pi * np.arange(n) / n
    trig = _longitude_rows(L_max, t)
    dft = trig * (2.0 / n)
    dft[L_max] /= 2.0  # the constant term
    P = _legendre(L_max, np.cos(t), np.sin(t))
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)[:, None]
    m = np.arange(len(l))[:, None] - l * l - l
    k = np.arange(-L_max, L_max + 1)
    terms = (abs(k) <= l) & ((l - k) % 2 == 0) & ((m % 2 == 1) == (k < 0))
    series = np.where(terms, P @ dft.T, 0.0)
    series += np.where(terms, (P - series @ trig) @ dft.T, 0.0)
    series.flags.writeable = False
    return series


def _power_rows(L_max: int, angle: np.ndarray) -> np.ndarray:
    """cos and sin of k angle in the layout of :func:`_longitude_rows`.

    The powers of exp(i angle) are formed by doubling, each block the
    block below it times one power, so libm is read once per point; the
    rounding grows about linearly with k: 7.1e-15 from an 80-bit long
    double evaluation at k <= 64, where :func:`_longitude_rows` is off by
    3.9e-15.  At scattered points, where every call has new angles, that
    routine's libm calls at eight orders take 2.3-2.8 ms for 3321 points
    at L 24-32, these rows 0.45 ms.
    """
    z = np.empty((L_max + 1, len(angle)), complex)
    z[0] = 1.0
    z[1:2] = np.exp(1j * angle)
    n = 1
    while n < L_max:
        m = min(n, L_max - n)
        np.multiply(z[1:m + 1], z[n], out=z[n + 1:n + m + 1])
        n += m
    return np.concatenate([z[:0:-1].imag, z.real])


def _fourier_form(coeffs: "HarmonicCoeffs") -> np.ndarray:
    """The double Fourier form of an expansion and its phi-derivatives.

    The coefficients fold into E, (2L+1 theta rows, 2L+1 orders) in the
    layout of :func:`_theta_series`; E_phi and E_phiphi follow it, so the
    result is the (3 (2L+1), 2L+1) stack [E; E_phi; E_phiphi] that
    :func:`_form_jets` evaluates at any number of point sets.
    """
    L = coeffs.L_max
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    i = np.arange(len(l))
    Z = np.zeros((len(l), 2 * L + 1))
    Z[i, L + i - l * l - l] = coeffs.values
    E = _theta_series(L).T @ Z
    # d/dphi takes column L + m to m times column L - m, as in
    # _ProductTables
    s = np.arange(-L, L + 1)
    return np.concatenate([E, s * E[:, ::-1], -(s * s) * E])


def _form_jets(form: np.ndarray, theta: np.ndarray, phi: np.ndarray,
               derivatives: bool = True) -> np.ndarray:
    """[u] or [u, u_t, u_p, u_tt, u_tp, u_pp] of a :func:`_fourier_form`.

    One product of the form (only E for values) with the longitude rows
    of the points, and one elementwise contraction per jet with their
    theta rows.  Returns (1 or 6, N).

    The longitude rows are padded with zero angles to a multiple of 16
    points.  OpenBLAS's Haswell dgemm kernel rounds the last N mod 8
    points of the product differently with 1 and 2 threads, as it splits
    the form's rows between them; padded, every point takes the main
    kernel (16 also covers kernels with 16-wide blocks), so a point's
    jets depend neither on the BLAS thread count nor, from two points
    up, on the other points of its batch.
    """
    n = form.shape[1]
    L = n // 2
    N = len(theta)
    rows = _power_rows(L, theta)
    lon = _power_rows(L, np.concatenate([phi, np.zeros(-N % 16)]))
    if not derivatives:
        return np.einsum("kn,kn->n", rows, (form[:n] @ lon)[:, :N])[None]
    G = (form @ lon)[:, :N].reshape(3, n, N)
    # d/dtheta takes row L + k to -k times row L - k
    s = np.arange(-L, L + 1)[:, None]
    T = [rows, -s * rows[::-1], -(s * s) * rows]
    return np.stack([np.einsum("kn,kn->n", T[k], G[j])
                     for k, j in _JET_TABLES])


def jets_at(coeffs: "HarmonicCoeffs", theta: np.ndarray, phi: np.ndarray,
            derivatives: bool = True) -> np.ndarray:
    """[u] or [u, u_t, u_p, u_tt, u_tp, u_pp] of an expansion at points.

    ``theta`` and ``phi`` are 1-D arrays of one length; anything else
    raises ValueError.  Points may lie anywhere, the poles included.  The
    coefficients fold into the double Fourier form of
    :func:`_fourier_form`, which :func:`_form_jets` evaluates with one
    product against the longitude rows of the points and one elementwise
    contraction per jet against their theta rows, so no points x
    coefficients array is formed.  A caller that evaluates one expansion
    at many point sets builds the form once and calls
    :func:`_form_jets`.  Returns (1 or 6, N).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.ndim != 1 or phi.shape != theta.shape:
        raise ValueError(f"theta and phi must be 1-D arrays of one length, "
                         f"got shapes {theta.shape} and {phi.shape}")
    return _form_jets(_fourier_form(coeffs), theta, phi, derivatives)


def analyze(grid: QuadratureGrid, values: np.ndarray) -> HarmonicCoeffs:
    """Forward transform: quadrature inner products against the basis.

    Exact for fields band-limited to ``grid.L_max``; general smooth fields
    incur the usual aliasing of their super-truncation content.  A folded
    grid is refused: it cannot separate odd-degree content from even.
    """
    if grid.folded:
        raise ValueError("analyze needs the whole sphere; a folded grid "
                         "integrates only antipodally even products")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values, got {values.shape}")
    return HarmonicCoeffs(grid.L_max,
                          _analysis(grid.ops, grid.weights * values))


def chart_jets(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Values and raw chart partials [u, u_t, u_p, u_tt, u_tp, u_pp] at the nodes."""
    if coeffs.L_max != grid.L_max:
        raise ValueError("coefficient truncation does not match grid")
    return _synthesis(grid.ops, coeffs.values)


def synthesize(grid: QuadratureGrid, coeffs: HarmonicCoeffs) -> np.ndarray:
    """Inverse transform: evaluate the expansion at the grid nodes."""
    return chart_jets(grid, coeffs)[0]


def synthesize_at(coeffs: HarmonicCoeffs, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate the expansion at arbitrary points (see :func:`jets_at`)."""
    return jets_at(coeffs, theta, phi, derivatives=False)[0]


def synthesize_product(coeffs: HarmonicCoeffs, theta: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """The expansion on colatitudes x longitudes (poles allowed), grid order."""
    tables = _ProductTables(coeffs.L_max, theta, phi, derivatives=False)
    return _synthesis(tables, coeffs.values)[0]
