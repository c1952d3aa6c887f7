import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import assoc_legendre_p_all, eval_legendre

from curvedual import sphere_surface
from curvedual.geometry import curvature_field
from curvedual.spectral import (
    HarmonicCoeffs,
    _JET_TABLES,
    _analysis,
    _longitude_rows,
    _ProductTables,
    _product_grid,
    _synthesis,
    _theta_series,
    analyze,
    basis_matrix,
    build_folded_grid,
    build_grid,
    chart_jets,
    index_lm,
    jets_at,
    lm_index,
    num_coeffs,
    synthesize,
    synthesize_at,
    synthesize_product,
)


@pytest.fixture(scope="module")
def grid8():
    return build_grid(8)


@pytest.fixture(scope="module")
def grid24():
    return build_grid(24)


def _jet_columns(tables, index):
    """The six jets of the basis functions ``index``, (6, N, len(index)).

    Each basis function is a colatitude factor times a longitude factor,
    so its jets at the product nodes are outer products of gathered table
    columns; no sum is formed.  The reference for ``_synthesis``.
    """
    cols = tables.L_max + tables.orders[index]
    out = np.empty((6, len(tables.Y), len(tables.lon[0]), len(index)))
    for i, (k, j) in enumerate(_JET_TABLES):
        np.multiply(tables.colat[k][:, None, index],
                    tables.lon[j][None, :, cols], out=out[i])
    return out.reshape(6, -1, len(index))


def grid_basis(grid):
    """Every basis function at the grid nodes, (N, K), from the tables."""
    return _jet_columns(grid.ops, np.arange(num_coeffs(grid.L_max)))[0]


def point_jets(L_max, t0, p0, a):
    """The six jets of coefficients ``a`` at the single point (t0, p0)."""
    tables = _ProductTables(L_max, np.array([t0]), np.array([p0]))
    return [jet[0] for jet in _synthesis(tables, a.values)]


def surface_hessian(grid, coeffs):
    """Covariant Hessian with respect to the round metric, shape (N, 2, 2).

    Components: H[:,0,0] = u_;tt, H[:,0,1] = H[:,1,0] = u_;tp,
    H[:,1,1] = u_;pp.  Built from the chart partials and the round-metric
    Christoffel symbols, so the matrix is symmetric by construction.
    """
    _, ut, up, utt, utp, upp = chart_jets(grid, coeffs)
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    cot = ct / st
    H = np.empty((grid.n_nodes, 2, 2))
    H[:, 0, 0] = utt
    H[:, 0, 1] = utp - cot * up
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] = upp + st * ct * ut
    return H


def laplacian(grid, a):
    """Laplace-Beltrami at the nodes: the trace of the covariant Hessian."""
    H = surface_hessian(grid, a)
    return H[:, 0, 0] + H[:, 1, 1] / np.sin(grid.theta) ** 2


def test_indexing_roundtrip():
    for idx in range(num_coeffs(6)):
        l, m = index_lm(idx)
        assert lm_index(l, m) == idx
        assert abs(m) <= l


def test_grid_shapes_and_weights(grid24):
    assert grid24.n_theta == 25
    assert grid24.n_phi == 49
    assert grid24.n_nodes == 25 * 49
    assert abs(grid24.weights.sum() - 4 * np.pi) <= 1e-12
    # nodes avoid the poles
    assert grid24.theta.min() > 0
    assert grid24.theta.max() < np.pi


def test_build_grid_rejects_small_truncation():
    with pytest.raises(ValueError):
        build_grid(3)
    with pytest.raises(ValueError):
        build_folded_grid(3)


def _grid_bytes(grid):
    tables = grid.ops
    return [a.tobytes() for a in (grid.theta, grid.phi, grid.weights,
                                  tables.orders, *tables.colat, *tables.lon,
                                  *grid.nodes)]


def test_grids_are_shared_per_process():
    assert build_grid(8) is build_grid(8)
    assert build_grid(8).ops is build_grid(8).ops
    assert build_grid(8).nodes is build_grid(8).nodes
    assert build_folded_grid(8) is build_folded_grid(8)
    assert build_folded_grid(8) is not build_grid(8)


def test_shared_grid_arrays_are_read_only():
    grid = build_grid(8)
    tables = grid.ops
    before = _grid_bytes(grid)
    for a in (grid.theta, grid.phi, grid.weights, tables.orders,
              *tables.colat, *tables.lon, *grid.nodes):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        build_grid(8).weights *= 2.0
    assert _grid_bytes(build_grid(8)) == before


@pytest.mark.parametrize("build", [build_grid, build_folded_grid])
def test_node_geometry_is_the_frame_of_the_nodes(build):
    grid = build(9)
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    sp, cp = np.sin(grid.phi), np.cos(grid.phi)
    zero = np.zeros_like(st)
    expected = [st, ct,
                np.stack([st * cp, st * sp, ct], axis=-1),
                np.stack([ct * cp, ct * sp, -st], axis=-1),
                np.stack([-st * sp, st * cp, zero], axis=-1),
                np.stack([-ct * sp, ct * cp, zero], axis=-1),
                np.stack([-st * cp, -st * sp, zero], axis=-1)]
    assert len(grid.nodes) == len(expected)
    for got, want in zip(grid.nodes, expected):
        assert np.array_equal(got, want)


def test_grid_memo_keeps_the_last_8_sizes():
    grids = {L_max: build_grid(L_max) for L_max in range(4, 14)}
    assert _product_grid.cache_info().currsize == 8
    assert all(build_grid(L_max) is grids[L_max] for L_max in range(6, 14))
    # L 4 was evicted: it is built anew, with the same bytes
    again = build_grid(4)
    assert again is not grids[4]
    assert _grid_bytes(again) == _grid_bytes(grids[4])


@pytest.mark.parametrize("L_max, rows", [(8, 5), (9, 5), (24, 13)])
def test_folded_grid_keeps_north_rows_and_equator(L_max, rows):
    grid = build_folded_grid(L_max)
    full = build_grid(L_max)
    assert grid.folded and not full.folded
    assert (grid.L_max, grid.n_theta, grid.n_phi) == (L_max, rows,
                                                       2 * L_max + 2)
    assert grid.n_nodes == rows * grid.n_phi
    assert abs(grid.weights.sum() - 4 * np.pi) <= 1e-12
    theta, phi = grid.axes
    # the first rows of the full grid's colatitudes, and the equator
    # (odd L_max + 1) kept once at the full grid's weight
    assert np.array_equal(theta, full.axes[0][:rows])
    assert np.all(theta <= np.pi / 2)
    row_w = grid.weights[::grid.n_phi] * grid.n_phi / (2 * np.pi)
    full_w = full.weights[::full.n_phi] * full.n_phi / (2 * np.pi)
    north = (L_max + 1) // 2
    assert np.allclose(row_w[:north], 2 * full_w[:north], rtol=1e-14, atol=0)
    assert np.allclose(row_w[north:], full_w[north:rows], rtol=1e-14, atol=0)
    # phi + pi is a node with phi
    assert np.allclose(np.sort((phi + np.pi) % (2 * np.pi)), phi,
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("L_max", [8, 9])  # with and without equator row
def test_folded_grid_even_degree_gram_matrix_is_identity(L_max):
    grid = build_folded_grid(L_max)
    even = np.flatnonzero(np.repeat(np.arange(L_max + 1),
                                    2 * np.arange(L_max + 1) + 1) % 2 == 0)
    B = grid_basis(grid)[:, even]
    G = B.T @ (grid.weights[:, None] * B)
    assert np.max(np.abs(G - np.eye(len(even)))) <= 1e-13
    # an odd-degree integrand is not integrated: Y_10 Y_00 sums to a
    # nonzero value where the full grid gives zero
    odd = grid_basis(grid)[:, lm_index(1, 0)] * grid_basis(grid)[:, 0]
    assert abs(grid.weights @ odd) > 0.1


def test_constant_integrates_to_sphere_area(grid8):
    ones = np.ones(grid8.n_nodes)
    assert abs(grid8.weights @ ones - 4 * np.pi) <= 1e-12


def test_low_order_harmonics_match_closed_forms(grid8):
    # pins normalization and phase convention against explicit formulas
    t, p = grid8.theta, grid8.phi
    B = grid_basis(grid8)
    expected = {
        (0, 0): np.full_like(t, 1 / np.sqrt(4 * np.pi)),
        (1, 0): np.sqrt(3 / (4 * np.pi)) * np.cos(t),
        (1, 1): -np.sqrt(3 / (4 * np.pi)) * np.sin(t) * np.cos(p),
        (1, -1): -np.sqrt(3 / (4 * np.pi)) * np.sin(t) * np.sin(p),
        (2, 0): np.sqrt(5 / (16 * np.pi)) * (3 * np.cos(t) ** 2 - 1),
        (2, 2): np.sqrt(15 / (16 * np.pi)) * np.sin(t) ** 2 * np.cos(2 * p),
    }
    for (l, m), vals in expected.items():
        err = np.max(np.abs(B[:, lm_index(l, m)] - vals))
        assert err <= 1e-13, (l, m, err)


def test_gram_matrix_orthonormal(grid8):
    # oracle: dense Gram matrix from the quadrature rule itself
    B = grid_basis(grid8)
    G = B.T @ (grid8.weights[:, None] * B)
    assert np.max(np.abs(G - np.eye(num_coeffs(8)))) <= 1e-10


def test_gram_matrix_orthonormal_default_truncation(grid24):
    B = grid_basis(grid24)
    G = B.T @ (grid24.weights[:, None] * B)
    assert np.max(np.abs(G - np.eye(num_coeffs(24)))) <= 1e-10


def test_analyze_synthesize_roundtrip(grid24):
    rng = np.random.default_rng(7)
    a = HarmonicCoeffs(24, rng.standard_normal(num_coeffs(24)))
    back = analyze(grid24, synthesize(grid24, a))
    assert np.max(np.abs(back.values - a.values)) <= 1e-10


def test_analyze_zero_field(grid8):
    c = analyze(grid8, np.zeros(grid8.n_nodes))
    assert np.all(c.values == 0)


def test_analyze_picks_out_single_mode(grid8):
    # field built from an explicit closed form, not from synthesize
    t, p = grid8.theta, grid8.phi
    field = -np.sqrt(3 / (4 * np.pi)) * np.sin(t) * np.cos(p)  # Y_{1,1}
    c = analyze(grid8, field)
    expect = np.zeros(num_coeffs(8))
    expect[lm_index(1, 1)] = 1.0
    assert np.max(np.abs(c.values - expect)) <= 1e-12


def test_analyze_two_mode_combination(grid8):
    a = HarmonicCoeffs.zeros(8)
    a[1, 0] = 2.0
    a[2, 2] = -0.5
    c = analyze(grid8, synthesize(grid8, a))
    nz = np.nonzero(np.abs(c.values) > 1e-12)[0]
    assert set(nz) == {lm_index(1, 0), lm_index(2, 2)}


def test_parseval(grid24):
    rng = np.random.default_rng(3)
    a = HarmonicCoeffs(24, rng.standard_normal(num_coeffs(24)))
    vals = synthesize(grid24, a)
    quad = grid24.weights @ vals**2
    assert abs(quad - np.sum(a.values**2)) <= 1e-10 * max(1.0, np.sum(a.values**2))


def test_eigenrelation_all_modes(grid8):
    # Delta Y_lm = -l(l+1) Y_lm for every l <= L_max - 2
    for l in range(0, 8 - 1):
        for m in range(-l, l + 1):
            a = HarmonicCoeffs.zeros(8)
            a[l, m] = 1.0
            lap = laplacian(grid8, a)
            vals = synthesize(grid8, a)
            err = np.max(np.abs(lap + l * (l + 1) * vals))
            assert err <= 1e-8, (l, m, err)


def test_eigenrelation_spot_checks_default_truncation(grid24):
    for l, m in [(2, 0), (5, -3), (10, 7), (22, -22)]:
        a = HarmonicCoeffs.zeros(24)
        a[l, m] = 1.0
        lap = laplacian(grid24, a)
        vals = synthesize(grid24, a)
        assert np.max(np.abs(lap + l * (l + 1) * vals)) <= 1e-8


def test_laplacian_against_finite_difference_oracle(grid24):
    # oracle: centered finite differences of the synthesized field on a
    # refined lat-long stencil, evaluated off-grid through synthesize_at
    rng = np.random.default_rng(11)
    a = HarmonicCoeffs.zeros(24)
    for l in range(5):
        for m in range(-l, l + 1):
            a[l, m] = rng.standard_normal() * 0.3
    pts_t = np.array([0.7, 1.2, 1.9, 2.4])
    pts_p = np.array([0.3, 2.0, 4.4, 5.9])
    h = 1e-4

    def u(tt, pp):
        return synthesize_at(a, np.atleast_1d(tt), np.atleast_1d(pp))[0]

    lap_spec = None
    for t0, p0 in zip(pts_t, pts_p):
        utt = (u(t0 + h, p0) - 2 * u(t0, p0) + u(t0 - h, p0)) / h**2
        upp = (u(t0, p0 + h) - 2 * u(t0, p0) + u(t0, p0 - h)) / h**2
        ut = (u(t0 + h, p0) - u(t0 - h, p0)) / (2 * h)
        fd = utt + ut / np.tan(t0) + upp / np.sin(t0) ** 2
        # spectral value at the same off-grid point via a tiny one-point grid
        b = basis_matrix(24, np.array([t0]), np.array([p0]))
        # assemble Laplacian spectrally: -l(l+1) weighting
        lam = np.array([-l * (l + 1) for l in range(25) for _ in range(2 * l + 1)])
        lap_spec = b @ (lam * a.values)
        assert abs(fd - lap_spec[0]) <= 1e-5 * max(1.0, abs(lap_spec[0]))


def test_gradient_and_hessian_of_constant_vanish(grid8):
    a = HarmonicCoeffs.zeros(8)
    a[0, 0] = 3.7
    g = chart_jets(grid8, a)[1:3]
    H = surface_hessian(grid8, a)
    assert np.max(np.abs(g)) <= 1e-12
    assert np.max(np.abs(H)) <= 1e-12


def test_gradient_against_finite_difference_oracle(grid8):
    a = HarmonicCoeffs.zeros(8)
    a[2, 1] = 1.3
    a[3, -2] = -0.4
    h = 1e-5
    t0, p0 = 1.3, 2.1

    def u(tt, pp):
        return synthesize_at(a, np.atleast_1d(tt), np.atleast_1d(pp))[0]

    fd_t = (u(t0 + h, p0) - u(t0 - h, p0)) / (2 * h)
    fd_p = (u(t0, p0 + h) - u(t0, p0 - h)) / (2 * h)
    # evaluate the gradient spectrally at a node-free point: the point is
    # a one-by-one product of angle lists
    _, gt, gp, _, _, _ = point_jets(8, t0, p0, a)
    assert abs(gt - fd_t) <= 1e-8
    assert abs(gp - fd_p) <= 1e-8


def test_hessian_symmetric_and_trace_is_laplacian(grid8):
    rng = np.random.default_rng(5)
    a = HarmonicCoeffs(8, rng.standard_normal(num_coeffs(8)))
    H = surface_hessian(grid8, a)
    assert np.max(np.abs(H[:, 0, 1] - H[:, 1, 0])) <= 1e-12
    # Delta Y_lm = -l(l+1) Y_lm
    lam = np.array([-l * (l + 1) for l in range(9) for _ in range(2 * l + 1)])
    lap = synthesize(grid8, HarmonicCoeffs(8, lam * a.values))
    assert np.max(np.abs(laplacian(grid8, a) - lap)) <= 1e-12


def test_hessian_against_finite_difference_oracle(grid8):
    # covariant Hessian entries vs FD of chart partials plus Christoffels
    a = HarmonicCoeffs.zeros(8)
    a[3, 1] = 0.8
    t0, p0 = 1.1, 0.9
    h = 1e-4

    def u(tt, pp):
        return synthesize_at(a, np.atleast_1d(tt), np.atleast_1d(pp))[0]

    utt = (u(t0 + h, p0) - 2 * u(t0, p0) + u(t0 - h, p0)) / h**2
    upp = (u(t0, p0 + h) - 2 * u(t0, p0) + u(t0, p0 - h)) / h**2
    utp = (u(t0 + h, p0 + h) - u(t0 + h, p0 - h)
           - u(t0 - h, p0 + h) + u(t0 - h, p0 - h)) / (4 * h**2)
    ut = (u(t0 + h, p0) - u(t0 - h, p0)) / (2 * h)
    up = (u(t0, p0 + h) - u(t0, p0 - h)) / (2 * h)
    cot = 1 / np.tan(t0)
    fd_H = np.array([
        [utt, utp - cot * up],
        [utp - cot * up, upp + np.sin(t0) * np.cos(t0) * ut],
    ])
    _, *grad, rtt, rtp, rpp = point_jets(8, t0, p0, a)
    raw = [rtt, rtp, rpp]
    H = np.array([
        [raw[0], raw[1] - cot * grad[1]],
        [raw[1] - cot * grad[1], raw[2] + np.sin(t0) * np.cos(t0) * grad[0]],
    ])
    assert np.max(np.abs(H - fd_H)) <= 1e-6


def test_chart_partials_match_hessian_construction(grid8):
    a = HarmonicCoeffs.zeros(8)
    a[4, -3] = 1.1
    _, _, grad_p, raw_tt, raw_tp, _ = chart_jets(grid8, a)
    H = surface_hessian(grid8, a)
    cot = np.cos(grid8.theta) / np.sin(grid8.theta)
    assert np.max(np.abs(H[:, 0, 0] - raw_tt)) <= 1e-13
    assert np.max(np.abs(H[:, 0, 1] - (raw_tp - cot * grad_p))) <= 1e-13


def test_synthesize_at_matches_grid_synthesis(grid8):
    rng = np.random.default_rng(9)
    a = HarmonicCoeffs(8, rng.standard_normal(num_coeffs(8)))
    on_grid = synthesize(grid8, a)
    off = synthesize_at(a, grid8.theta, grid8.phi)
    assert np.max(np.abs(on_grid - off)) <= 1e-11


def test_coeff_container_validation():
    with pytest.raises(ValueError):
        HarmonicCoeffs(4, np.zeros(10))
    with pytest.raises(ValueError):
        lm_index(2, 3)


def test_grid_ops_rows_match_single_point_ops():
    # the grid shares each colatitude over a row of longitudes; a single
    # node has no repeated angle, so both paths of the tabulation meet
    grid = build_grid(12)
    B = basis_matrix(12, grid.theta, grid.phi)
    for q in (0, 7, grid.n_phi + 3, grid.n_nodes // 2, grid.n_nodes - 1):
        single = basis_matrix(12, grid.theta[q:q + 1], grid.phi[q:q + 1])
        assert np.array_equal(B[q:q + 1], single), q


def _fit_size_points():
    # both poles and the dual fit's 2701 scattered points
    rng = np.random.default_rng(13)
    theta = np.concatenate([[0.0, np.pi],
                            np.arccos(rng.uniform(-1.0, 1.0, 2701))])
    phi = np.concatenate([[0.4, 2.5], rng.uniform(0.0, 2.0 * np.pi, 2701)])
    return theta, phi


def test_basis_matrix_matches_product_tables():
    # the dual fit's size: 2701 scattered points at L 32, 23.5 MB per
    # points x coefficients array, plus both poles; the degree-major
    # product holds the result and two small tables, never a gather
    L = 32
    theta, phi = _fit_size_points()
    tracemalloc.start()
    try:
        B = basis_matrix(L, theta, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # point q pairs colatitude q with longitude q of the product tables
    tables = _ProductTables(L, theta, phi, derivatives=False)
    ref = tables.Y * tables.lon[0][:, L + tables.orders]
    assert np.array_equal(B, ref)
    assert peak <= 30e6, peak


def test_weighted_basis_matrix_scales_rows():
    # the weights enter through the longitude rows, so each entry is
    # P (lon w) where the scaled rows read (P lon) w: two roundings apart;
    # at the poles the non-zonal entries must stay exact zeros
    theta, phi = _fit_size_points()
    w = np.random.default_rng(14).uniform(0.0, 2.0, len(theta))
    got = basis_matrix(32, theta, phi, w)
    want = basis_matrix(32, theta, phi)
    want *= w[:, None]
    err = np.abs(got - want)
    assert np.all(err <= 4 * np.finfo(float).eps * np.abs(want))


@pytest.mark.parametrize("theta, phi", [
    (np.full((3, 2), 0.5), np.full((3, 2), 0.5)),
    (np.full(3, 0.5), np.full(1, 0.5)),
    (np.full(3, 0.5), np.full(4, 0.5)),
    (np.float64(0.5), np.float64(0.5)),
], ids=["2-D", "length-1 phi", "unequal lengths", "0-D"])
def test_mismatched_angle_arrays_are_refused(theta, phi):
    message = re.escape(f"got shapes {np.shape(theta)} and {np.shape(phi)}")
    with pytest.raises(ValueError, match=message):
        basis_matrix(4, theta, phi)
    with pytest.raises(ValueError, match=message):
        synthesize_at(HarmonicCoeffs.zeros(4), theta, phi)


@pytest.mark.parametrize("shape", [(2,), (3, 1), ()],
                         ids=["short", "2-D", "0-D"])
def test_weights_of_another_shape_are_refused(shape):
    angles = np.full(3, 0.5)
    message = re.escape(f"expected weights of shape (3,), got shape {shape}")
    with pytest.raises(ValueError, match=message):
        basis_matrix(4, angles, angles, np.ones(shape))


@pytest.mark.parametrize("L_max", [4, 9, 24, 32])
def test_jets_at_values_match_basis_matrix(L_max):
    # |u| <= ||c|| (L+1) / sqrt(4 pi) by the addition theorem; on that
    # scale the two paths agree within 1.3 ulps at L 24 and 32
    rng = np.random.default_rng(21)
    a = HarmonicCoeffs(L_max, rng.standard_normal(num_coeffs(L_max)))
    theta, phi = _fit_size_points()
    want = basis_matrix(L_max, theta, phi) @ a.values
    got = jets_at(a, theta, phi, derivatives=False)
    assert got.shape == (1, len(theta))
    scale = np.linalg.norm(a.values) * (L_max + 1) / np.sqrt(4.0 * np.pi)
    assert np.max(np.abs(got[0] - want)) <= 4 * np.finfo(float).eps * scale
    assert np.array_equal(synthesize_at(a, theta, phi), got[0])


@pytest.mark.parametrize("L_max", [4, 9, 24, 32])
def test_jets_at_match_chart_jets_at_grid_nodes(L_max):
    # the Gauss-Legendre nodes avoid the poles, where chart_jets' theta
    # derivative tables divide by sin theta; largest error seen 28 ulps of
    # a jet's largest value
    rng = np.random.default_rng(22)
    a = HarmonicCoeffs(L_max, rng.standard_normal(num_coeffs(L_max)))
    grid = build_grid(L_max)
    want = chart_jets(grid, a)
    got = jets_at(a, grid.theta, grid.phi)
    for k in range(6):
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(got[k] - want[k])) <= \
            64 * np.finfo(float).eps * scale, k


@pytest.mark.parametrize("derivatives", [True, False])
def test_jets_at_a_point_do_not_depend_on_its_batch(derivatives):
    # every point takes the same BLAS kernel whatever the batch size, so
    # its jets are the same bits in a short batch and in a long one;
    # unpadded, the last N mod 8 points of a batch took an edge kernel and
    # differed with 1 and 2 BLAS threads.  A lone point is not held to it:
    # numpy's contraction sums a single column in another order
    rng = np.random.default_rng(23)
    a = HarmonicCoeffs(32, rng.standard_normal(num_coeffs(32)))
    theta = np.arccos(rng.uniform(-1.0, 1.0, 3001))
    phi = rng.uniform(0.0, 2.0 * np.pi, 3001)
    full = jets_at(a, theta, phi, derivatives)
    for n in (2, 5, 8, 13, 2997):
        assert np.array_equal(jets_at(a, theta[-n:], phi[-n:], derivatives),
                              full[:, -n:]), n
        assert np.array_equal(jets_at(a, theta[:n], phi[:n], derivatives),
                              full[:, :n]), n


def test_theta_series_tables_are_shared_and_read_only():
    # one table per degree, handed out again while among the last 8
    table = _theta_series(12)
    assert _theta_series(12) is table
    assert table.shape == (num_coeffs(12), 25)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    assert _theta_series(13) is not table
    # the constant's series is its value, with exact zeros elsewhere
    assert table[0, 12] == 1.0 / np.sqrt(4.0 * np.pi)
    assert np.count_nonzero(table[0]) == 1


# largest error seen against 80-bit long double: 4.4e-15 up to L 96,
# where libm at the rounded arguments m phi is 1.4e-14 off at L 32 and
# 5.7e-14 at L 96
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("L_max", [4, 9, 32, 72, 96])
def test_longitude_rows_match_extended_precision(L_max):
    phi = np.random.default_rng(L_max).uniform(-1.0, 7.0, 2000)
    m = np.arange(-L_max, L_max + 1)[:, None]
    x = np.abs(m) * phi.astype(np.longdouble)
    want = np.where(m < 0, np.sin(x), np.cos(x))
    got = _longitude_rows(L_max, phi)
    assert got.shape == (2 * L_max + 1, len(phi))
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("build", [build_grid, build_folded_grid],
                         ids=["full", "folded"])
def test_longitude_derivative_tables_are_identities(build):
    # d/dphi cos(m phi) = -m sin(m phi), d/dphi sin(m phi) = m cos(m phi)
    tables = build(9).ops
    f, df, d2f = tables.lon
    m = np.arange(-9, 10)
    assert np.array_equal(df, -m * f[:, ::-1])
    assert np.array_equal(d2f, -(m * m) * f)
    assert np.array_equal(f, _longitude_rows(9, build(9).axes[1]).T)


def test_basis_matrix_at_poles_is_zonal_closed_form():
    L = 10
    theta = np.array([0.0, np.pi, 0.0])
    phi = np.array([0.4, 2.5, 5.0])
    B = basis_matrix(L, theta, phi)
    assert np.all(np.isfinite(B))
    for idx in range(num_coeffs(L)):
        l, m = index_lm(idx)
        if m != 0:
            assert np.all(B[:, idx] == 0.0), (l, m)
        else:
            # Y_l0 = sqrt((2l+1)/(4 pi)) P_l(cos theta), P_l(+-1) = (+-1)^l
            expect = np.sqrt((2 * l + 1) / (4 * np.pi)) * eval_legendre(
                l, np.cos(theta))
            assert np.max(np.abs(B[:, idx] - expect)) <= 1e-13, l


def _norm_constant(l, m):
    from math import exp, lgamma, pi, sqrt

    # sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) via log-gamma for stability
    logfact = lgamma(l - m + 1) - lgamma(l + m + 1)
    return sqrt((2 * l + 1) / (4 * pi)) * exp(0.5 * logfact)


def _reference_ops(L_max, theta, phi):
    """The six basis matrices column by column; Y in basis_matrix's order."""
    tables = assoc_legendre_p_all(L_max, L_max, np.cos(theta), diff_n=1)
    st = np.sin(theta)
    cot = np.cos(theta) / st
    inv_s2 = 1.0 / st**2
    out = np.empty((6, len(theta), num_coeffs(L_max)))
    for l in range(L_max + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            c = _norm_constant(l, am)
            if m != 0:
                c *= np.sqrt(2.0)
            pl = c * tables[0, l, am]
            dpl = c * (-st * tables[1, l, am])
            if m >= 0:
                tp, dtp = np.cos(m * phi), -m * np.sin(m * phi)
            else:
                tp, dtp = np.sin(am * phi), am * np.cos(am * phi)
            d2pl = -cot * dpl - (l * (l + 1) - am * am * inv_s2) * pl
            out[:, :, lm_index(l, m)] = [pl * tp, dpl * tp, pl * dtp,
                                         d2pl * tp, dpl * dtp,
                                         -(m * m) * pl * tp]
    return out


# largest |basis_matrix - column loop| seen: 7.8e-16 (L 4), 3.3e-15 (L 9)
# and 6.9e-14 (L 32, on the grid); each bound keeps a factor of 4 or more
@pytest.mark.parametrize("L_max, tol", [(4, 4e-15), (9, 1.5e-14), (32, 3e-13)],
                         ids=["4", "9", "32"])
def test_tabulated_ops_equal_column_loop(L_max, tol):
    # the recurrence tables against scipy's P_l^m times c_lm, column by
    # column, on the grid and at scattered points that include both poles
    rng = np.random.default_rng(L_max)
    grid = build_grid(L_max)
    scattered = (np.concatenate([[0.0, np.pi], rng.uniform(0.05, 3.1, 40)]),
                 rng.uniform(-1.0, 7.0, 42))
    for theta, phi in ((grid.theta, grid.phi), scattered):
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = _reference_ops(L_max, theta, phi)  # chart jets not at poles
        assert np.max(np.abs(basis_matrix(L_max, theta, phi) - ref[0])) <= tol


@pytest.mark.parametrize("L_max", [4, 9])
def test_grid_jets_match_column_loop(L_max):
    # the separable synthesis of coefficient vectors against the dense
    # column-loop matrices times the vectors
    grid = build_grid(L_max)
    A = np.random.default_rng(L_max).standard_normal((num_coeffs(L_max), 3))
    ref = _reference_ops(L_max, grid.theta, grid.phi)
    for a in A.T:
        jets = _synthesis(grid.ops, a)
        assert len(jets) == 6
        for k, jet in enumerate(jets):
            want = ref[k] @ a
            assert jet.shape == want.shape
            assert np.max(np.abs(jet - want)) <= \
                1e-13 * np.max(np.abs(want)), k


@pytest.mark.parametrize("build", [build_grid, build_folded_grid],
                         ids=["full", "folded"])
@pytest.mark.parametrize("parity", [2, 1], ids=["even", "all"])
def test_jet_columns_equal_synthesis_of_unit_vectors(build, parity):
    # a gathered product of table columns is the Legendre-and-longitude
    # synthesis of a unit coefficient vector, to the last bit
    grid = build(8)
    K = num_coeffs(8)
    index = np.array([i for i in range(K) if index_lm(i)[0] % parity == 0])
    jets = _jet_columns(grid.ops, index)
    assert jets.shape == (6, grid.n_nodes, len(index))
    for c, i in enumerate(index):
        assert np.array_equal(jets[:, :, c], _synthesis(grid.ops,
                                                        np.eye(K)[i])), i


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# largest relative error seen: 1.1e-15 (L 24, folded, analysis)
@pytest.mark.parametrize("build", [build_grid, build_folded_grid],
                         ids=["full", "folded"])
@pytest.mark.parametrize("L_max", [4, 9, 16, 24, 32])
def test_factored_transforms_equal_dense_products(build, L_max):
    # the two table products of a synthesis, and the analysis, against
    # basis_matrix and the stacked jet columns times the coefficients
    grid = build(L_max)
    K = num_coeffs(L_max)
    rng = np.random.default_rng(L_max)
    a = rng.standard_normal(K)
    B = basis_matrix(L_max, grid.theta, grid.phi)
    jets = _synthesis(grid.ops, a)
    assert relative_error(jets[0], B @ a) <= 1e-13
    # summed over blocks of columns, to keep the dense stack small
    want = sum(_jet_columns(grid.ops, cols) @ a[cols]
               for cols in np.array_split(np.arange(K), -(-K // 128)))
    for k in range(6):
        assert relative_error(jets[k], want[k]) <= 1e-13, k
    W = rng.standard_normal((grid.n_nodes, 3)) * grid.weights[:, None]
    assert relative_error(_analysis(grid.ops, W), B.T @ W) <= 1e-13
    assert relative_error(_analysis(grid.ops, W[:, 1]), B.T @ W[:, 1]) \
        <= 1e-13


@pytest.mark.parametrize("L_max", [4, 16, 32])
def test_product_synthesis_with_poles_equals_basis_matrix(L_max):
    rng = np.random.default_rng(L_max)
    a = HarmonicCoeffs(L_max, rng.standard_normal(num_coeffs(L_max)))
    theta = np.concatenate([[0.0], np.linspace(0.1, 3.0, 7), [np.pi]])
    phi = rng.uniform(-1.0, 7.0, 11)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    want = basis_matrix(L_max, T.ravel(), P.ravel()) @ a.values
    assert relative_error(synthesize_product(a, theta, phi), want) <= 1e-13


def test_analysis_inverts_synthesis_on_blocks():
    grid = build_grid(16)
    A = np.random.default_rng(2).standard_normal((num_coeffs(16), 4))
    values = np.stack([_synthesis(grid.ops, a)[0] for a in A.T], axis=1)
    back = _analysis(grid.ops, grid.weights[:, None] * values)
    assert np.max(np.abs(back - A)) <= 1e-12
    # a vector is the one-column case
    vec = _analysis(grid.ops, grid.weights * values[:, 1])
    assert np.max(np.abs(vec - back[:, 1])) <= 1e-13


def test_curvature_field_builds_no_dense_operators():
    # six dense (N, K) matrices at L_max 40 would take about 270 MB
    grid = build_grid(40)
    surface = sphere_surface(np.pi / 4, L_max=40)
    tracemalloc.start()
    try:
        field = curvature_field(surface, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(field.kappa, 1.0, atol=1e-12)
    assert peak <= 20e6, peak


def _point_major_tables(L_max, theta):
    """The Legendre recurrence and its theta-derivatives in (n_theta, K)
    layout, one column block per step: the reference for the degree-major
    tables, which perform the same operations on every element."""
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    m = np.arange(len(l)) - l * l - l
    ct = np.cos(theta)[:, None]
    st = np.sqrt((1.0 - ct) * (1.0 + ct))
    j = np.arange(1, L_max + 1)
    sect = np.cumprod(-np.sqrt((2 * j + 1) / (2 * j)) * st, axis=1)
    sect = np.hstack([np.ones_like(st), np.sqrt(2.0) * sect])
    sect /= np.sqrt(4.0 * np.pi)
    Y = np.empty((len(theta), len(l)))
    for d in range(L_max + 1):
        z, z1, z2 = d * d + d, d * d - d, (d - 1) * (d - 1) - (d - 1)
        Y[:, z + d] = sect[:, d]
        if d >= 1:
            Y[:, z + d - 1:z + d] = (np.sqrt(2 * d + 1) * ct
                                     * Y[:, z1 + d - 1:z1 + d])
        if d >= 2:
            k = np.arange(d - 1)
            a = np.sqrt((4 * d * d - 1) / (d * d - k * k))
            b = np.sqrt(((d - 1) ** 2 - k * k) / (4 * (d - 1) ** 2 - 1))
            Y[:, z:z + d - 1] = a * (ct * Y[:, z1:z1 + d - 1]
                                     - b * Y[:, z2:z2 + d - 1])
        Y[:, z - d:z] = Y[:, z + d:z:-1]
    am = np.abs(m)
    e = np.sqrt((2 * l + 1) * (l * l - am * am) / np.maximum(2 * l - 1, 1))
    dpl = (l * ct * Y - e * Y[:, np.where(am < l, l * l - l + m, 0)]) / st
    return [Y, dpl, -ct / st * dpl - (l * (l + 1) - am * am / st**2) * Y]


@pytest.mark.parametrize("L_max", [4, 8, 24, 32, 40])
def test_degree_major_tables_equal_point_major_recurrence(L_max):
    # bit for bit, on the grid colatitudes and on scattered ones with both
    # poles, where the derivative tables hold the same inf and NaN
    rng = np.random.default_rng(L_max)
    theta = np.concatenate([[0.0], np.sort(rng.uniform(0.0, np.pi, 60)),
                            [np.pi]])
    for th in (build_grid(L_max).axes[0], theta):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _point_major_tables(L_max, th)
            tables = _ProductTables(L_max, th, np.zeros(1))
        for got, ref in zip(tables.colat, want, strict=True):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
