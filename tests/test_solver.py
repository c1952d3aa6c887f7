"""Tests for the symmetry-restricted Newton and continuation solver."""

import numpy as np
import pytest

from curvedual.curvature import make_curvature_function
from curvedual.errors import DataError, GroupError, NewtonError
from curvedual.geometry import GraphSurface, sphere_surface
from curvedual.solver import (BarrierReport, PrescribedData, SolverOptions,
                              SymmetryGroup, check_barriers, continuation,
                              default_base_constant, full_basis,
                              initial_sphere, invariant_projector,
                              linear_system, near_kernel, newton_solve,
                              residual_field, rotate_angles)
from curvedual.spectral import (HarmonicCoeffs, analyze, build_grid, index_lm,
                                lm_index, num_coeffs, synthesize)

GAUSS = make_curvature_function("gauss_power", 2)
SQRT_4PI = np.sqrt(4.0 * np.pi)


def constant_data(f_value, c):
    return PrescribedData(a_poly=[np.log(f_value)],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))), c=c)


@pytest.fixture(scope="module")
def antipodal_projector():
    return invariant_projector(SymmetryGroup.antipodal(), 24)


# ------------------------------------------------------------- symmetry

def test_antipodal_group_validates():
    g = SymmetryGroup.antipodal()
    g.validate()
    assert g.order == 2


def test_rotation_group_has_fixed_directions():
    Rz = np.diag([-1.0, -1.0, 1.0])
    g = SymmetryGroup("rot180", [np.eye(3), Rz])
    with pytest.raises(GroupError, match="fixes the direction"):
        g.validate()


def test_group_missing_inverse_rejected():
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    R90 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    g = SymmetryGroup("broken", [np.eye(3), R90])
    with pytest.raises(GroupError):
        g.validate()


def test_group_non_orthogonal_rejected():
    g = SymmetryGroup("skew", [np.eye(3), np.diag([2.0, 1.0, 1.0])])
    with pytest.raises(GroupError, match="orthogonal"):
        g.validate()


def test_group_missing_identity_rejected():
    g = SymmetryGroup("noid", [-np.eye(3)])
    with pytest.raises(GroupError, match="identity"):
        g.validate()


def test_rotate_angles_antipodal():
    theta = np.array([0.3, 1.2, 2.8])
    phi = np.array([0.1, 3.0, 5.9])
    th2, ph2 = rotate_angles(-np.eye(3), theta, phi)
    assert np.allclose(th2, np.pi - theta, atol=1e-12)
    assert np.allclose(ph2, np.mod(phi + np.pi, 2 * np.pi), atol=1e-12)


def test_rotate_angles_identity():
    theta = np.array([0.3, 1.2])
    phi = np.array([0.1, 3.0])
    th2, ph2 = rotate_angles(np.eye(3), theta, phi)
    assert np.allclose(th2, theta, atol=1e-14)
    assert np.allclose(ph2, phi, atol=1e-14)


# ------------------------------------------------------------ projector

def test_projector_idempotent(antipodal_projector):
    P = antipodal_projector.matrix
    assert np.max(np.abs(P @ P - P)) <= 1e-12


def test_projector_keeps_even_kills_odd(antipodal_projector):
    P = antipodal_projector.matrix
    K = num_coeffs(24)
    for idx in [0, lm_index(2, 1), lm_index(4, -3), lm_index(24, 10)]:
        e = np.zeros(K)
        e[idx] = 1.0
        assert np.max(np.abs(P @ e - e)) <= 1e-12
    for idx in [lm_index(1, 0), lm_index(1, 1), lm_index(3, -2),
                lm_index(23, 5)]:
        e = np.zeros(K)
        e[idx] = 1.0
        assert np.max(np.abs(P @ e)) <= 1e-12


def test_projector_basis_dimension_and_degrees(antipodal_projector):
    basis = antipodal_projector.basis
    # even degrees 0..24: sum of (2l+1) over 13 degrees
    assert basis.dim == 325
    assert set(basis.degrees.tolist()) == set(range(0, 25, 2))
    B = basis.matrix
    assert np.max(np.abs(B.T @ B - np.eye(basis.dim))) <= 1e-12


def test_full_basis_is_identity():
    basis = full_basis(6)
    assert basis.dim == num_coeffs(6)
    assert np.array_equal(basis.matrix, np.eye(num_coeffs(6)))
    assert basis.degrees[lm_index(3, -1)] == 3
    assert len(basis.columns_of_degree(2)) == 5


# -------------------------------------------------------- initial sphere

def test_initial_sphere_closed_forms():
    for c, expected in [(2.0, np.pi / 4), (2.0 * np.sqrt(3.0), np.pi / 6)]:
        s = initial_sphere(GAUSS, c)
        assert abs(s.radial.values[0] / SQRT_4PI - expected) <= 1e-12
    tiny = initial_sphere(GAUSS, 200.0)
    assert abs(tiny.radial.values[0] / SQRT_4PI - 0.00999966668666524) <= 1e-12


def test_initial_sphere_rejects_nonpositive():
    with pytest.raises(DataError):
        initial_sphere(GAUSS, 0.0)


# ------------------------------------------------------- prescribed data

def test_data_values_product_form():
    b = np.zeros(num_coeffs(2))
    b[lm_index(2, 0)] = 0.3
    data = PrescribedData(a_poly=[0.1, 0.5], b=HarmonicCoeffs(2, b), c=0.5)
    r = np.array([0.4, 0.9])
    theta = np.array([0.7, 1.3])
    phi = np.array([0.0, 2.0])
    from curvedual.spectral import synthesize_at
    expected = np.exp(0.1 + 0.5 * r) * np.exp(
        synthesize_at(HarmonicCoeffs(2, b), theta, phi))
    assert np.allclose(data.values(r, theta, phi), expected, atol=1e-14)


def test_data_min_constant():
    data = constant_data(2.0, 1.0)
    assert abs(data.min_f() - 2.0) <= 1e-12


def test_default_base_constant():
    assert default_base_constant(2.0) == pytest.approx(1.8)


def test_data_rejects_base_above_minimum():
    data = constant_data(2.0, 2.0)
    with pytest.raises(DataError, match="strictly below the minimum"):
        data.validate(SymmetryGroup.antipodal())


def test_data_rejects_nonpositive_base():
    data = constant_data(2.0, -1.0)
    with pytest.raises(DataError, match="positive"):
        data.validate(SymmetryGroup.antipodal())


def test_data_rejects_noninvariant_angular_factor():
    b = np.zeros(num_coeffs(2))
    b[lm_index(1, 0)] = 0.1
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs(2, b), c=1.0)
    with pytest.raises(DataError, match="not invariant"):
        data.validate(SymmetryGroup.antipodal())


def test_data_accepts_even_angular_factor():
    b = np.zeros(num_coeffs(2))
    b[lm_index(2, -1)] = 0.2
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs(2, b), c=1.0)
    data.validate(SymmetryGroup.antipodal())


# ---------------------------------------------------------------- newton

def test_newton_exact_start(antipodal_projector):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    surf, iters, resid = newton_solve(GAUSS, data, 0.0, start,
                                      antipodal_projector)
    assert iters <= 1
    assert resid <= 1e-12


def test_newton_perturbed_start_returns_to_sphere(antipodal_projector):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    surf, iters, resid = newton_solve(GAUSS, data, 0.0, pert,
                                      antipodal_projector)
    assert resid <= 1e-10
    grid = build_grid(24)
    u = synthesize(grid, surf.radial)
    assert np.max(np.abs(u - np.pi / 4)) <= 1e-9


def test_newton_rejects_start_outside_subspace(antipodal_projector):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(1, 0)] += 0.01
    bad = GraphSurface(n=2, pole=start.pole.copy(),
                       radial=HarmonicCoeffs(24, a),
                       gauge_tau0=start.gauge_tau0)
    with pytest.raises(DataError, match="outside"):
        newton_solve(GAUSS, data, 0.0, bad, antipodal_projector)


def test_newton_iteration_budget_enforced(antipodal_projector):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    with pytest.raises(NewtonError, match="no convergence"):
        newton_solve(GAUSS, data, 0.0, pert, antipodal_projector,
                     SolverOptions(max_newton=1))


def test_newton_curvature_floor_blocks_steps(antipodal_projector):
    # the pi/4 sphere has kappa = 1; a floor above that rejects every trial
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    with pytest.raises(NewtonError, match="line search"):
        newton_solve(GAUSS, data, 0.0, pert, antipodal_projector,
                     SolverOptions(kappa_floor=2.0))


def test_newton_truncation_mismatch_rejected(antipodal_projector):
    data = constant_data(2.0, 2.0)
    start = sphere_surface(np.pi / 4, L_max=16)
    with pytest.raises(ValueError, match="does not match"):
        newton_solve(GAUSS, data, 0.0, start, antipodal_projector)


# ------------------------------------------------- linearization checks

def test_full_space_near_kernel_is_degree_one():
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    J, res, degrees = linear_system(GAUSS, data, 0.0, sphere)
    dim, directions = near_kernel(J)
    assert dim == 3
    for d in directions:
        support = np.nonzero(np.abs(d) > 1e-6)[0]
        assert set(degrees[support].tolist()) == {1}


def test_sphere_spectrum_ratios(antipodal_projector):
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    J, res, degrees = linear_system(GAUSS, data, 0.0, sphere,
                                    antipodal_projector)
    lam = {}
    for l in (0, 2, 4):
        cols = np.nonzero(degrees == l)[0]
        block = J[np.ix_(cols, cols)]
        lam[l] = float(np.mean(np.diag(block)))
        assert np.max(np.abs(block - lam[l] * np.eye(len(cols)))) <= 1e-8
    # eigenvalues proportional to l(l+1) - 2
    assert lam[2] / lam[0] == pytest.approx(-2.0, abs=1e-4)
    assert lam[4] / lam[0] == pytest.approx(-9.0, abs=1e-4)
    assert lam[4] / lam[2] == pytest.approx(4.5, abs=1e-4)


def test_jacobian_matches_directional_differences(antipodal_projector):
    from curvedual.solver import _Workspace
    data = PrescribedData(a_poly=[np.log(2.0), 0.3],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=2.0)
    grid = build_grid(24)
    ws = _Workspace(grid, antipodal_projector.basis, data, GAUSS)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.03
    a[lm_index(4, 2)] += 0.01
    z = antipodal_projector.basis.matrix.T @ a
    J = ws.jacobian(z, 0.6)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(20):
        d = rng.standard_normal(len(z))
        d /= np.linalg.norm(d)
        lam_p, _, _ = ws.lambda_batch((z + h * d)[:, None], 0.6)
        lam_m, _, _ = ws.lambda_batch((z - h * d)[:, None], 0.6)
        fd = ws.project @ ((lam_p[:, 0] - lam_m[:, 0]) / (2 * h))
        rel = np.linalg.norm(J @ d - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5


def test_residual_field_of_invariant_iterate_is_invariant():
    data = PrescribedData(a_poly=[np.log(2.0), 0.3],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.03
    a[lm_index(4, 2)] += 0.01
    surf = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    lam = residual_field(GAUSS, data, 0.6, surf)
    assert np.max(np.abs(lam)) > 0.01
    coeffs = analyze(build_grid(24), lam).values
    odd = [abs(coeffs[i]) for i in range(len(coeffs))
           if index_lm(i)[0] % 2 == 1]
    assert max(odd) <= 1e-10


def test_residual_field_vanishes_at_exact_solution():
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    lam = residual_field(GAUSS, data, 0.0, sphere)
    assert np.max(np.abs(lam)) <= 1e-12


# ---------------------------------------------------------- continuation

def test_continuation_constant_data_reaches_sphere():
    data = constant_data(2.0, 1.0)
    report = continuation(GAUSS, data)
    assert report.converged
    ts = [s.t for s in report.steps]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(s.residual <= 1e-10 for s in report.steps)
    u = synthesize(build_grid(24), report.final_surface.radial)
    assert np.max(np.abs(u - np.pi / 4)) <= 1e-10


def test_continuation_modulated_data(antipodal_projector):
    b = np.zeros(num_coeffs(2))
    b[lm_index(2, 0)] = 0.4 / np.sqrt(6.0)
    b[lm_index(2, 2)] = 0.2 / np.sqrt(6.0)
    b[lm_index(2, -1)] = -0.2 / np.sqrt(6.0)
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs(2, b),
                          c=1.0)
    report = continuation(GAUSS, data)
    assert report.converged
    last = report.steps[-1]
    assert last.t == 1.0
    assert last.residual <= 1e-8
    assert last.kappa_min > 0.05
    assert 0.0 < last.r_min <= last.r_max < np.pi / 2
    a = report.final_surface.radial.values
    odd = [abs(a[i]) for i in range(len(a)) if index_lm(i)[0] % 2 == 1]
    assert max(odd) <= 1e-10
    # invariance of the full coefficient vector
    P = antipodal_projector.matrix
    assert np.max(np.abs(P @ a - a)) <= 1e-10


def test_continuation_rejects_bad_base_constant():
    data = constant_data(2.0, 2.5)
    with pytest.raises(DataError, match="strictly below"):
        continuation(GAUSS, data)


def test_continuation_warns_for_inadmissible_function():
    data = constant_data(2.0, 1.0)
    mean = make_curvature_function("mean", 2)
    with pytest.warns(UserWarning, match="admissibility"):
        report = continuation(mean, data, opts=SolverOptions(L_max=8))
    assert report.converged


def test_continuation_report_dict():
    data = constant_data(2.0, 1.0)
    report = continuation(GAUSS, data, opts=SolverOptions(L_max=8))
    d = report.as_dict()
    assert d["status"] == "converged"
    assert d["steps"][0]["t"] == 0.0
    assert {"residual", "kappa_min", "kappa_max", "r_min",
            "r_max"} <= set(d["steps"][-1])


# -------------------------------------------------------------- barriers

def test_barriers_sphere_pair():
    lower = sphere_surface(np.pi / 3, L_max=8)
    upper = sphere_surface(np.pi / 6, L_max=8)
    report = check_barriers(GAUSS, 2.0, lower, upper)
    assert report.passed
    assert report.lower_margin == pytest.approx(2.0 - 2.0 / np.tan(np.pi / 3),
                                                abs=1e-12)
    assert report.upper_margin == pytest.approx(2.0 / np.tan(np.pi / 6) - 2.0,
                                                abs=1e-12)


def test_barriers_surface_is_its_own_pair():
    s = sphere_surface(np.pi / 4, L_max=8)
    report = check_barriers(GAUSS, 2.0, s, s)
    assert report.passed
    assert abs(report.lower_margin) <= 1e-12
    assert abs(report.upper_margin) <= 1e-12


def test_barriers_report_violation_with_node():
    s = sphere_surface(np.pi / 6, L_max=8)
    report = check_barriers(GAUSS, 2.0, s, s)
    assert not report.passed
    assert report.lower_margin == pytest.approx(2.0 - 2.0 * np.sqrt(3.0),
                                                abs=1e-12)
    assert 0 <= report.lower_worst_node < build_grid(8).n_nodes


def test_barriers_require_nesting():
    lower = sphere_surface(np.pi / 6, L_max=8)
    upper = sphere_surface(np.pi / 3, L_max=8)
    with pytest.raises(DataError, match="not nested"):
        check_barriers(GAUSS, 2.0, lower, upper)


def test_barriers_mixed_truncations():
    lower = sphere_surface(np.pi / 3, L_max=10)
    upper = sphere_surface(np.pi / 6, L_max=6)
    report = check_barriers(GAUSS, 2.0, lower, upper)
    assert report.passed


def test_barriers_accept_prescribed_data_values():
    data = constant_data(2.0, 1.0)
    lower = sphere_surface(np.pi / 3, L_max=8)
    upper = sphere_surface(np.pi / 6, L_max=8)
    report = check_barriers(GAUSS, data, lower, upper)
    assert report.passed


def test_barrier_report_dict_roundtrip():
    report = BarrierReport(lower_margin=0.5, upper_margin=0.25,
                           lower_worst_node=3, upper_worst_node=7)
    d = report.as_dict()
    assert d["passed"] is True
    assert d["lower_margin"] == 0.5
