import numpy as np
import pytest

from curvedual import geometry, spectral
from curvedual.errors import DomainError
from curvedual.geometry import (
    CurvatureField,
    GraphSurface,
    curvature_field,
    default_gauge_tau0,
    check_annulus,
    frame_for_pole,
    offset_sphere_surface,
    rho_from_r,
    sphere_surface,
    stereographic_project,
)
from curvedual.spectral import HarmonicCoeffs, analyze, build_grid, synthesize
from test_spectral import surface_hessian


@pytest.fixture(scope="module")
def grid():
    return build_grid(24)


@pytest.fixture(scope="module")
def perturbed(grid):
    c = HarmonicCoeffs.zeros(24)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[2, 0] = 0.05
    s4 = 0.02 / np.sqrt(3)
    c[4, 0] = s4
    c[4, 2] = s4
    c[4, -2] = s4
    return GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]),
                        radial=c, gauge_tau0=default_gauge_tau0())


# ---------------------------------------------------------------- embedding

def test_embed_sphere_constant_pole_angle(grid):
    s = sphere_surface(np.pi / 4)
    x = curvature_field(s, grid).x
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(x @ pole - np.cos(np.pi / 4))) <= 1e-12
    assert np.max(np.abs(np.einsum("ni,ni->n", x, x) - 1.0)) <= 1e-12


def test_embed_unit_norm_perturbed(grid, perturbed):
    x = curvature_field(perturbed, grid).x
    assert np.max(np.abs(np.einsum("ni,ni->n", x, x) - 1.0)) <= 1e-12


def test_embed_tilted_pole(grid):
    pole = np.array([0.3, -0.1, 0.2, 0.9])
    pole /= np.linalg.norm(pole)
    s = sphere_surface(np.pi / 6, pole=pole)
    x = curvature_field(s, grid).x
    assert np.max(np.abs(x @ pole - np.cos(np.pi / 6))) <= 1e-12


def test_embed_rejects_hemisphere_boundary(grid):
    c = HarmonicCoeffs.zeros(24)
    c[0, 0] = (np.pi / 2 - 1e-9) * np.sqrt(4 * np.pi)
    s = GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]), radial=c,
                     gauge_tau0=default_gauge_tau0())
    with pytest.raises(DomainError):
        curvature_field(s, grid)


def test_embed_rejects_nonpositive_radius(grid):
    c = HarmonicCoeffs.zeros(24)
    c[0, 0] = -0.2 * np.sqrt(4 * np.pi)
    s = GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]), radial=c,
                     gauge_tau0=default_gauge_tau0())
    with pytest.raises(DomainError):
        curvature_field(s, grid)


def test_check_annulus_rejects_nan():
    # every comparison with NaN is false, so the test must be written as
    # "not inside" rather than "outside"
    with pytest.raises(DomainError):
        check_annulus(np.array([0.5, np.nan, 0.6]))


def test_domain_messages_print_plain_floats():
    with pytest.raises(DomainError,
                       match=r"radius 2\.0 outside \(0, pi/2\)$"):
        sphere_surface(np.float64(2.0))
    with pytest.raises(ValueError, match=r"\|pole\| = 2\.0$"):
        frame_for_pole(np.array([0.0, 0.0, 0.0, 2.0]))


def test_frame_for_pole_orthogonal():
    for pole in [np.array([0.0, 0.0, 0.0, 1.0]),
                 np.array([1.0, 0.0, 0.0, 0.0]),
                 np.array([0.0, 0.0, 0.0, -1.0]),
                 np.array([0.5, 0.5, 0.5, 0.5])]:
        Q = frame_for_pole(pole)
        assert np.max(np.abs(Q.T @ Q - np.eye(4))) <= 1e-12
        assert np.max(np.abs(Q @ np.array([0, 0, 0, 1.0]) - pole)) <= 1e-12


@pytest.mark.parametrize("k", range(4))
def test_nan_pole_is_refused(k):
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    pole[k] = np.nan
    with pytest.raises(ValueError, match=r"\|pole\| = nan$"):
        frame_for_pole(pole)
    with pytest.raises(ValueError, match=r"\|pole\| = nan$"):
        GraphSurface(n=2, pole=pole, radial=HarmonicCoeffs.zeros(4),
                     gauge_tau0=default_gauge_tau0())
    assert geometry._pole_frame.cache_info().currsize == 0


def test_pole_frames_are_shared_and_read_only():
    pole = np.array([0.5, 0.5, 0.5, 0.5])
    Q = frame_for_pole(pole)
    assert frame_for_pole(pole.copy()) is Q
    assert frame_for_pole(list(pole)) is Q
    with pytest.raises(ValueError, match="read-only"):
        Q[0, 0] = 0.0
    # a pole with -0.0 components keeps a frame of its own
    plus = frame_for_pole(np.array([0.0, 0.0, 0.0, 1.0]))
    minus = frame_for_pole(np.array([-0.0, 0.0, -0.0, 1.0]))
    assert minus is not plus
    assert geometry._pole_frame.cache_info().currsize == 3


def test_pole_frame_memo_keeps_the_last_8_poles():
    poles = [np.array([np.sin(a), 0.0, 0.0, np.cos(a)])
             for a in np.linspace(0.0, 1.0, 10)]
    frames = [frame_for_pole(p) for p in poles]
    assert geometry._pole_frame.cache_info().currsize == 8
    assert all(frame_for_pole(p) is Q for p, Q in zip(poles[2:], frames[2:]))
    # the first pole was evicted: its frame is built anew, with the same
    # bytes
    again = frame_for_pole(poles[0])
    assert again is not frames[0]
    assert again.tobytes() == frames[0].tobytes()


SHARED_POLES = [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0),
                (-0.0, 0.0, -0.0, 1.0), (-0.0, -0.0, -0.0, -1.0)]


def _sampled_arrays(build, pole):
    c = HarmonicCoeffs.zeros(12)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[2, 0] = 0.05
    c[4, 2] = 0.02
    surface = GraphSurface(n=2, pole=np.array(pole), radial=c,
                           gauge_tau0=default_gauge_tau0())
    field = curvature_field(surface, build(12))
    st = stereographic_project(field)
    return [frame_for_pole(surface.pole), field.x, field.x_theta,
            field.x_phi, field.normal, field.g, field.h,
            field.shape_operator, field.kappa, st.y, st.shape_operator,
            st.gauss_curvature, st.area_jacobian, st.conformal_term]


def test_shared_geometry_matches_a_fresh_process():
    # each case first alone, as in a fresh process, then all of them again
    # on the grids, node geometry and pole frames that they share
    cases = [(build, pole)
             for build in (build_grid, spectral.build_folded_grid)
             for pole in SHARED_POLES]
    fresh = []
    for case in cases:
        spectral._product_grid.cache_clear()
        geometry._pole_frame.cache_clear()
        fresh.append(_sampled_arrays(*case))
    for case, arrays in zip(cases, fresh):
        shared = _sampled_arrays(*case)
        assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes()
                   for a, b in zip(shared, arrays))
    # both signs of zero, on both grids of L 12, are held side by side
    assert geometry._pole_frame.cache_info().currsize == 4
    assert spectral._product_grid.cache_info().currsize == 2


# ------------------------------------------------------------ curvature

def _fd_sphere_kappa(r0: float, t0: float, p0: float, h: float = 1e-5):
    """Independent oracle: curvature of r == const via FD on the embedding."""
    def X(t, p):
        w = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
        return np.append(np.sin(r0) * w, np.cos(r0))

    x = X(t0, p0)
    xt = (X(t0 + h, p0) - X(t0 - h, p0)) / (2 * h)
    xp = (X(t0, p0 + h) - X(t0, p0 - h)) / (2 * h)
    xtt = (X(t0 + h, p0) - 2 * x + X(t0 - h, p0)) / h**2
    xpp = (X(t0, p0 + h) - 2 * x + X(t0, p0 - h)) / h**2
    xtp = (X(t0 + h, p0 + h) - X(t0 + h, p0 - h)
           - X(t0 - h, p0 + h) + X(t0 - h, p0 - h)) / (4 * h**2)
    M = np.vstack([x, xt, xp])
    c = np.zeros(4)
    for a in range(4):
        cols = [i for i in range(4) if i != a]
        c[a] = (-1) ** a * np.linalg.det(M[:, cols])
    c /= np.linalg.norm(c)
    w = np.array([np.sin(t0) * np.cos(p0), np.sin(t0) * np.sin(p0), np.cos(t0)])
    dr = np.append(np.cos(r0) * w, -np.sin(r0))
    if c @ dr < 0:
        c = -c
    g11, g12, g22 = xt @ xt, xt @ xp, xp @ xp
    h11, h12, h22 = -(xtt @ c), -(xtp @ c), -(xpp @ c)
    detg = g11 * g22 - g12**2
    s11 = (g22 * h11 - g12 * h12) / detg
    s12 = (g22 * h12 - g12 * h22) / detg
    s21 = (g11 * h12 - g12 * h11) / detg
    s22 = (g11 * h22 - g12 * h12) / detg
    tr, disc = s11 + s22, (s11 - s22) ** 2 + 4 * s12 * s21
    sq = np.sqrt(max(disc, 0))
    return 0.5 * (tr - sq), 0.5 * (tr + sq)


def test_fd_oracle_matches_cot_r():
    for r0 in (np.pi / 6, np.pi / 3):
        k1, k2 = _fd_sphere_kappa(r0, 1.1, 0.7)
        assert abs(k1 - 1 / np.tan(r0)) <= 1e-5
        assert abs(k2 - 1 / np.tan(r0)) <= 1e-5


def test_sphere_curvature_is_cot_r(grid):
    for r0 in (np.pi / 6, np.pi / 4, np.pi / 3):
        f = curvature_field(sphere_surface(r0), grid)
        assert np.max(np.abs(f.kappa - 1 / np.tan(r0))) <= 1e-8


def test_sphere_umbilic(grid):
    f = curvature_field(sphere_surface(np.pi / 4), grid)
    assert np.max(np.abs(f.kappa[:, 1] - f.kappa[:, 0])) <= 1e-9


@pytest.mark.parametrize("tilt", [0.15, 0.3])
def test_offset_sphere_curvature_is_one(grid, tilt):
    # a round sphere of radius pi/4 about an off-axis center: its graph
    # coefficients are dense, so every radial jet is non-zero, yet
    # kappa = cot(pi/4) = 1 at every node
    f = curvature_field(offset_sphere_surface(np.pi / 4, tilt), grid)
    assert np.max(np.abs(f.kappa - 1.0)) <= 1e-9


def test_normal_orthogonality_and_orientation(grid, perturbed):
    f = curvature_field(perturbed, grid)
    assert np.max(np.abs(np.einsum("ni,ni->n", f.normal, f.x))) <= 1e-12
    assert np.max(np.abs(np.einsum("ni,ni->n", f.normal, f.x_theta))) <= 1e-10
    assert np.max(np.abs(np.einsum("ni,ni->n", f.normal, f.x_phi))) <= 1e-10
    assert np.max(np.abs(np.einsum("ni,ni->n", f.normal, f.normal) - 1)) <= 1e-12
    # outward: positive radial component
    w = np.stack([np.sin(grid.theta) * np.cos(grid.phi),
                  np.sin(grid.theta) * np.sin(grid.phi),
                  np.cos(grid.theta)], axis=-1)
    radial = np.concatenate([np.cos(f.r)[:, None] * w,
                             -np.sin(f.r)[:, None]], axis=1)
    assert np.min(np.einsum("ni,ni->n", f.normal, radial)) > 0


def test_metric_consistency(grid, perturbed):
    f = curvature_field(perturbed, grid)
    for i, j, a, b in ((0, 0, f.x_theta, f.x_theta),
                       (0, 1, f.x_theta, f.x_phi),
                       (1, 1, f.x_phi, f.x_phi)):
        gij = np.einsum("ni,ni->n", a, b)
        assert np.max(np.abs(gij - f.g[:, i, j])) <= 1e-12


def test_gauss_weingarten_consistency(grid, perturbed):
    # derivative of the normal field vs shape operator times tangents
    f = curvature_field(perturbed, grid)
    err = 0.0
    for comp in range(4):
        coeffs = analyze(grid, f.normal[:, comp])
        gradc_t, gradc_p = spectral.chart_jets(grid, coeffs)[1:3]
        # h^k_i x_k for i = theta, phi
        pred_t = (f.shape_operator[:, 0, 0] * f.x_theta[:, comp]
                  + f.shape_operator[:, 1, 0] * f.x_phi[:, comp])
        pred_p = (f.shape_operator[:, 0, 1] * f.x_theta[:, comp]
                  + f.shape_operator[:, 1, 1] * f.x_phi[:, comp])
        err = max(err, np.max(np.abs(gradc_t - pred_t)),
                  np.max(np.abs(gradc_p - pred_p)))
    assert err <= 1e-7


def second_fundamental_form_conformal(field: CurvatureField) -> np.ndarray:
    """Second fundamental form via the cylindrical conformal chart.

    Independent of the warped-chart kernel: writes the surface as a graph of
    the logarithmic radial coordinate u = tau(r) over the parameter sphere
    and applies the conformal relation between the product-chart and
    spherical fundamental forms,

        h_ij = e^psi ( -u_;ij / v + psi' (u_i u_j + sigma_ij) / v ),

    with v^2 = 1 + sigma^{ij} u_i u_j and psi evaluated on the surface.
    r and its gradient come from ``field``, the covariant Hessian is
    differentiated afresh.  Returns chart components (N, 2, 2).
    """
    grid = field.grid
    grad_r = np.stack([field.r_theta, field.r_phi], axis=-1)
    hess_r = surface_hessian(grid, field.surface.radial)
    sr, cr = np.sin(field.r), np.cos(field.r)
    # u = tau(r): du/dr = 1/sin r, d2u/dr2 = -cos r / sin^2 r
    u_i = grad_r / sr[:, None]
    u_hess = (hess_r / sr[:, None, None]
              - (cr / sr**2)[:, None, None]
              * np.einsum("ni,nj->nij", grad_r, grad_r))
    st = np.sin(grid.theta)
    sigma = np.zeros((grid.n_nodes, 2, 2))
    sigma[:, 0, 0] = 1.0
    sigma[:, 1, 1] = st**2
    sigma_inv_diag = np.stack([np.ones_like(st), 1.0 / st**2], axis=-1)
    v = np.sqrt(1.0 + np.einsum("ni,ni->n", sigma_inv_diag * u_i, u_i))
    g_chart = np.einsum("ni,nj->nij", u_i, u_i) + sigma
    # e^psi = sin r and psi' = cos r on the surface
    return (sr / v)[:, None, None] * (-u_hess + cr[:, None, None] * g_chart)


def test_conformal_chart_second_fundamental_form_agrees(grid, perturbed):
    f = curvature_field(perturbed, grid)
    h_alt = second_fundamental_form_conformal(f)
    assert np.max(np.abs(h_alt - f.h)) <= 1e-8


def test_conformal_chart_on_sphere_closed_form(grid):
    r0 = np.pi / 3
    h_alt = second_fundamental_form_conformal(
        curvature_field(sphere_surface(r0), grid))
    st = np.sin(grid.theta)
    expect = np.zeros_like(h_alt)
    expect[:, 0, 0] = np.sin(r0) * np.cos(r0)
    expect[:, 1, 1] = np.sin(r0) * np.cos(r0) * st**2
    assert np.max(np.abs(h_alt - expect)) <= 1e-10


def test_rotation_equivariance(grid, perturbed):
    # shifting longitude by a whole number of grid steps permutes nodes
    k = 5
    dphi = 2 * np.pi * k / grid.n_phi
    B = spectral.basis_matrix(24, grid.theta, grid.phi + dphi)
    shifted_vals = B @ perturbed.radial.values
    shifted = GraphSurface(n=2, pole=perturbed.pole,
                           radial=analyze(grid, shifted_vals),
                           gauge_tau0=perturbed.gauge_tau0)
    f0 = curvature_field(perturbed, grid)
    f1 = curvature_field(shifted, grid)
    # node (i, j) of the shifted surface sees node (i, j + k) of the source
    perm = (np.arange(grid.n_nodes).reshape(grid.n_theta, grid.n_phi))
    perm = np.roll(perm, -k, axis=1).ravel()
    assert np.max(np.abs(f1.kappa - f0.kappa[perm])) <= 1e-9


# ------------------------------------------------------- stereographic

def test_stereographic_sphere_radius(grid):
    s = sphere_surface(np.pi / 4)
    st = stereographic_project(curvature_field(s, grid))
    rho_expect = 2 * np.tan(np.pi / 8)
    assert np.max(np.abs(np.linalg.norm(st.y, axis=1) - rho_expect)) <= 1e-12


def test_stereographic_sphere_euclidean_curvature(grid):
    # image of a centered geodesic sphere is a Euclidean sphere: its
    # Gauss curvature is 1/rho^2 and shape operator (1/rho) I
    s = sphere_surface(np.pi / 3)
    st = stereographic_project(curvature_field(s, grid))
    rho = 2 * np.tan(np.pi / 6)
    assert np.max(np.abs(st.gauss_curvature - 1 / rho**2)) <= 1e-10
    eye = np.broadcast_to(np.eye(2), st.shape_operator.shape)
    assert np.max(np.abs(st.shape_operator - eye / rho)) <= 1e-10


def test_conformal_relation_between_charts(grid, perturbed):
    # e^psi h^j_i = euclidean h^j_i + (grad psi . normal) delta^j_i
    f = curvature_field(perturbed, grid)
    st = stereographic_project(f)
    e_psi = 1.0 / (1.0 + rho_from_r(f.r) ** 2 / 4.0)
    lhs = e_psi[:, None, None] * f.shape_operator
    eye = np.broadcast_to(np.eye(2), lhs.shape)
    rhs = st.shape_operator + st.conformal_term[:, None, None] * eye
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_conformal_relation_sphere_exact(grid):
    s = sphere_surface(0.7)
    f = curvature_field(s, grid)
    st = stereographic_project(f)
    e_psi = 1.0 / (1.0 + rho_from_r(f.r) ** 2 / 4.0)
    lhs = e_psi[:, None, None] * f.shape_operator
    eye = np.broadcast_to(np.eye(2), lhs.shape)
    rhs = st.shape_operator + st.conformal_term[:, None, None] * eye
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
