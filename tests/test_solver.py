"""Tests for the symmetry-restricted Newton and continuation solver."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvedual import solver, spectral
from curvedual.curvature import make_curvature_function
from curvedual.errors import (ConfigError, DataError, NewtonError,
                              SingularJacobianError)
from curvedual.geometry import (HEMISPHERE_MARGIN, GraphSurface,
                                curvature_field, sphere_surface)
from curvedual.solver import (BarrierReport, NewtonWorkspace, PrescribedData,
                              SolverOptions, check_barriers,
                              continuation, data_on_field,
                              default_base_constant, initial_sphere,
                              invariant_projector, linear_system,
                              near_kernel, newton_solve)
from curvedual.spectral import (HarmonicCoeffs, analyze, basis_matrix,
                                build_folded_grid, build_grid, index_lm,
                                lm_index, num_coeffs, synthesize,
                                synthesize_at)

GAUSS = make_curvature_function("gauss_power")
SQRT_4PI = np.sqrt(4.0 * np.pi)


def constant_data(f_value, c):
    return PrescribedData(a_poly=[np.log(f_value)],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))), c=c)


@pytest.fixture(scope="module")
def antipodal_basis():
    return invariant_projector(True, 24)


def workspace(data, basis):
    return NewtonWorkspace(build_grid(basis.L_max), basis, data, GAUSS)


# ------------------------------------------------------------- symmetry

def rotation(axis, angle):
    """Rotation by ``angle`` about the unit vector ``axis`` (Rodrigues)."""
    k = np.cross(np.eye(3), axis)  # k @ v = axis x v
    return (np.cos(angle) * np.eye(3) + np.sin(angle) * k
            + (1.0 - np.cos(angle)) * np.outer(axis, axis))


def generated_group(generators):
    """Every product of the generators, by breadth-first closure."""
    elements = [np.eye(3)]
    frontier = elements[:]
    while frontier:
        found = []
        for A in frontier:
            for G in generators:
                P = G @ A
                if all(np.max(np.abs(P - E)) > 1e-9 for E in elements):
                    elements.append(P)
                    found.append(P)
        frontier = found
    return elements


def acts_freely(elements):
    """No element other than the identity fixes a direction."""
    return all(np.allclose(A, np.eye(3), atol=1e-12)
               or abs(np.linalg.det(A - np.eye(3))) >= 1e-12
               for A in elements)


def test_only_trivial_and_antipodal_groups_act_freely():
    # the premise of invariant_projector's two-valued flag: cyclic,
    # rotoreflection, dihedral and reflection groups about random axes,
    # with and without -I, act freely exactly when they are {I} or {I, -I}
    rng = np.random.default_rng(7)
    families = []
    for n in range(1, 7):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        perp = np.cross(axis, rng.standard_normal(3))
        perp /= np.linalg.norm(perp)
        mirror = np.eye(3) - 2.0 * np.outer(axis, axis)
        turn = rotation(axis, 2.0 * np.pi / n)
        families += [[turn], [turn @ mirror], [turn, rotation(perp, np.pi)]]
    families.append([mirror])
    verdicts = []
    for gens in families:
        for extra in ([], [-np.eye(3)]):
            elements = generated_group(gens + extra)
            assert len(elements) <= 24
            antipodal = all(np.allclose(A, np.eye(3), atol=1e-12)
                            or np.allclose(A, -np.eye(3), atol=1e-12)
                            for A in elements)
            assert acts_freely(elements) == antipodal, \
                [A.round(3) for A in elements]
            verdicts.append(antipodal)
    assert len(verdicts) == 38 and sum(verdicts) == 4


# ------------------------------------------------------------ projector

def project(basis, values):
    """The orthogonal projection onto the subspace: gather, then scatter."""
    return basis.scatter(values[basis.index])


def test_projector_idempotent(antipodal_basis):
    # p has even degrees only, so this is also the gather-scatter round
    # trip of an even-degree vector
    v = np.random.default_rng(1).standard_normal(num_coeffs(24))
    p = project(antipodal_basis, v)
    assert np.array_equal(project(antipodal_basis, p), p)


def test_projector_keeps_even_kills_odd(antipodal_basis):
    K = num_coeffs(24)
    for idx in [0, lm_index(2, 1), lm_index(4, -3), lm_index(24, 10)]:
        e = np.zeros(K)
        e[idx] = 1.0
        assert np.array_equal(project(antipodal_basis, e), e)
    for idx in [lm_index(1, 0), lm_index(1, 1), lm_index(3, -2),
                lm_index(23, 5)]:
        e = np.zeros(K)
        e[idx] = 1.0
        assert not project(antipodal_basis, e).any()


def test_projector_basis_dimension_and_degrees(antipodal_basis):
    basis = antipodal_basis
    # even degrees 0..24: sum of (2l+1) over 13 degrees
    assert len(basis.index) == 325
    assert set(basis.degrees.tolist()) == set(range(0, 25, 2))
    assert np.all(np.diff(basis.index) > 0)  # distinct, so orthonormal
    assert all(index_lm(i)[0] == l
               for i, l in zip(basis.index, basis.degrees))


def test_stray_is_largest_coefficient_outside(antipodal_basis):
    v = np.random.default_rng(2).standard_normal(num_coeffs(24))
    odd = [abs(v[i]) for i in range(len(v)) if index_lm(i)[0] % 2 == 1]
    assert antipodal_basis.stray(v) == max(odd)
    assert invariant_projector(False, 24).stray(v) == 0.0


def rotate_angles(A, theta, phi):
    """Chart angles of A xi for the unit directions xi at (theta, phi)."""
    xi = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                   np.cos(theta)], axis=-1)
    img = xi @ A.T
    return (np.arctan2(np.hypot(img[..., 0], img[..., 1]), img[..., 2]),
            np.mod(np.arctan2(img[..., 1], img[..., 0]), 2.0 * np.pi))


def test_projector_matches_dense_quadrature_formula():
    # the orbit average over (I, -I) by quadrature, with the grid basis as
    # a dense matrix, against the projector that keeps the basis indices
    for L in (8, 24):
        grid = build_grid(L)
        Yw = basis_matrix(L, grid.theta, grid.phi).T * grid.weights
        ref = sum(Yw @ basis_matrix(L, *rotate_angles(A, grid.theta,
                                                      grid.phi))
                  for A in (np.eye(3), -np.eye(3))) / 2
        index = invariant_projector(True, L).index
        P = np.zeros_like(ref)
        P[index, index] = 1.0
        assert np.max(np.abs(P - ref)) <= 1e-13, L


def test_trivial_group_gives_full_basis():
    # under {I} every coefficient through L_max is invariant
    basis = invariant_projector(False, 6)
    assert np.array_equal(basis.index, np.arange(num_coeffs(6)))
    assert np.array_equal(basis.degrees,
                          [index_lm(i)[0] for i in range(num_coeffs(6))])


def test_full_basis_is_identity():
    # scattering the columns of the identity gives the identity back
    basis = invariant_projector(False, 6)
    K = num_coeffs(6)
    assert len(basis.index) == K
    dense = np.stack([basis.scatter(e) for e in np.eye(K)], axis=1)
    assert np.array_equal(dense, np.eye(K))
    assert basis.degrees[lm_index(3, -1)] == 3
    assert np.count_nonzero(basis.degrees == 2) == 5


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
    surface = sphere_surface(0.7, L_max=4)
    surface.radial[2, 0] = 0.05
    field = curvature_field(surface, build_grid(4))
    expected = np.exp(0.1 + 0.5 * field.r) * np.exp(
        synthesize_at(HarmonicCoeffs(2, b), field.grid.theta, field.grid.phi))
    assert np.allclose(data_on_field(data, field), expected, atol=1e-14)


def test_data_min_constant():
    data = constant_data(2.0, 1.0)
    assert abs(data.min_f() - 2.0) <= 1e-12


def test_min_f_of_degree_24_data_samples_separably():
    # the 181 x 360 product sample without its 65160 x 625 basis matrix
    rng = np.random.default_rng(4)
    b = HarmonicCoeffs(24, 0.02 * rng.standard_normal(num_coeffs(24)))
    data = PrescribedData(a_poly=[0.1, 0.5], b=b, c=0.5)
    tracemalloc.start()
    try:
        fmin = data.min_f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # reference: the same angles through synthesize_at, one colatitude row
    # at a time
    phi = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    ang = min(np.exp(synthesize_at(b, np.full(360, t), phi)).min()
              for t in np.linspace(0.0, np.pi, 181))
    r = np.linspace(HEMISPHERE_MARGIN, np.pi / 2 - HEMISPHERE_MARGIN, 4097)
    ref = data.radial_factor(r).min() * ang
    assert abs(fmin - ref) <= 1e-14 * ref
    assert peak <= 50e6, peak


def test_default_base_constant():
    assert default_base_constant(2.0) == pytest.approx(1.8)


def test_data_rejects_base_above_minimum(antipodal_basis):
    data = constant_data(2.0, 2.0)
    with pytest.raises(DataError, match="strictly below the minimum"):
        data.validate(antipodal_basis)


def test_data_rejects_base_above_minimum_between_samples(antipodal_basis):
    # a = 1e4 (r - r0)^2 has min f = 1 at r0, midway between two points of
    # a 4097-point sample of the annulus, where exp(a) is about 1.00037
    lo, hi = HEMISPHERE_MARGIN, np.pi / 2 - HEMISPHERE_MARGIN
    r0 = lo + 1000.5 * (hi - lo) / 4096
    data = PrescribedData(a_poly=[1e4 * r0 * r0, -2e4 * r0, 1e4],
                          b=HarmonicCoeffs.zeros(2), c=1.00005)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(a) overflows at both ends
        assert data.min_f() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DataError, match="min f = 1$"):
        data.validate(antipodal_basis)


def test_data_rejects_nonpositive_base(antipodal_basis):
    data = constant_data(2.0, -1.0)
    with pytest.raises(DataError, match="positive"):
        data.validate(antipodal_basis)


@pytest.mark.parametrize("c, b_value, message", [
    (1.0, np.nan, "angular field has non-finite"),
    (1.0, np.inf, "angular field has non-finite"),
    (np.nan, 0.0, "positive and finite"),
    (np.inf, 0.0, "positive and finite"),
])
def test_data_rejects_nonfinite_values(c, b_value, message,
                                       antipodal_basis):
    b = HarmonicCoeffs.zeros(2)
    b[2, 0] = b_value
    data = PrescribedData(a_poly=[np.log(2.0)], b=b, c=c)
    with pytest.raises(DataError, match=message):
        data.validate(antipodal_basis)


def test_data_rejects_noninvariant_angular_factor(antipodal_basis):
    b = np.zeros(num_coeffs(2))
    b[lm_index(1, 0)] = 0.1
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs(2, b), c=1.0)
    with pytest.raises(DataError, match="not invariant"):
        data.validate(antipodal_basis)


def test_data_rejects_degree_above_truncation(antipodal_basis):
    b = HarmonicCoeffs.zeros(26)
    b[26, 0] = 0.01
    data = PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0)
    with pytest.raises(DataError, match="L_max = 26, above the run"):
        data.validate(antipodal_basis)


def test_data_accepts_even_angular_factor(antipodal_basis):
    b = np.zeros(num_coeffs(2))
    b[lm_index(2, -1)] = 0.2
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs(2, b), c=1.0)
    data.validate(antipodal_basis)


def test_validate_of_degree_24_data_stays_small(antipodal_basis):
    # the invariance test is in coefficient space: no orbit of samples
    rng = np.random.default_rng(5)
    b = HarmonicCoeffs.zeros(24)
    for l in range(0, 25, 2):
        b.degree_slice(l)[:] = 0.02 * rng.standard_normal(2 * l + 1)
    data = PrescribedData(a_poly=[0.1, 0.5], b=b, c=0.5)
    tracemalloc.start()
    try:
        data.validate(antipodal_basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


# ---------------------------------------------------------------- newton

def coeffs_of(surface, basis):
    return surface.radial.values[basis.index]


def test_newton_exact_start(antipodal_basis):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    _, iters, state = newton_solve(workspace(data, antipodal_basis),
                                   0.0, coeffs_of(start, antipodal_basis))
    assert iters <= 1
    assert state.norm <= 1e-12


def test_newton_perturbed_start_returns_to_sphere(antipodal_basis):
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    z, iters, state = newton_solve(workspace(data, antipodal_basis),
                                   0.0, coeffs_of(pert, antipodal_basis))
    assert state.norm <= 1e-10
    grid = build_grid(24)
    u = synthesize(grid, HarmonicCoeffs(24, antipodal_basis.scatter(z)))
    assert np.max(np.abs(u - np.pi / 4)) <= 1e-9


def test_newton_rejects_start_outside_subspace():
    data = constant_data(2.0, 1.0)
    start = initial_sphere(GAUSS, 1.0)
    a = start.radial.values.copy()
    a[lm_index(1, 0)] += 0.01
    bad = GraphSurface(n=2, pole=start.pole.copy(),
                       radial=HarmonicCoeffs(24, a),
                       gauge_tau0=start.gauge_tau0)
    with pytest.raises(DataError, match="outside"):
        continuation(GAUSS, data, start=bad)


def test_newton_iteration_budget_enforced(antipodal_basis, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    with pytest.raises(NewtonError, match="no convergence within 1 "):
        newton_solve(workspace(data, antipodal_basis), 0.0,
                     coeffs_of(pert, antipodal_basis))


def test_newton_curvature_floor_blocks_steps(antipodal_basis, monkeypatch):
    # the pi/4 sphere has kappa = 1; a floor above that rejects every trial
    monkeypatch.setattr(solver, "_KAPPA_FLOOR", 2.0)
    data = constant_data(2.0, 2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.02
    pert = GraphSurface(n=2, pole=start.pole.copy(),
                        radial=HarmonicCoeffs(24, a),
                        gauge_tau0=start.gauge_tau0)
    with pytest.raises(NewtonError, match="line search"):
        newton_solve(workspace(data, antipodal_basis), 0.0,
                     coeffs_of(pert, antipodal_basis))


def test_newton_solve_builds_no_operators(antipodal_basis,
                                          grid_table_builds):
    data = constant_data(2.0, 2.0)
    ws = workspace(data, antipodal_basis)
    grid_table_builds.clear()
    start = initial_sphere(GAUSS, 2.0)
    start.radial[2, 0] += 0.02
    _, iters, _ = newton_solve(ws, 0.0, coeffs_of(start, antipodal_basis))
    assert iters >= 1
    assert grid_table_builds == []


def test_newton_truncation_mismatch_rejected():
    data = constant_data(2.0, 1.0)
    start = sphere_surface(np.pi / 4, L_max=16)
    with pytest.raises(ValueError, match="does not match"):
        continuation(GAUSS, data, start=start)


@pytest.mark.parametrize("L_max", [16, 24])
def test_trivial_group_leaves_the_degree_one_kernel_at_zero(monkeypatch,
                                                            L_max):
    # without the symmetry restriction the degree-1 harmonics span a
    # three-dimensional kernel at the sphere; the truncated inverse of the
    # degree diagonal leaves it out, so no iterate moves a degree-1
    # coefficient and constant data reaches the sphere
    moved, state = [], NewtonWorkspace.state

    def recording(ws, z, t):
        moved.append(np.any(z[ws.basis.degrees == 1] != 0.0))
        return state(ws, z, t)
    monkeypatch.setattr(NewtonWorkspace, "state", recording)
    report = continuation(GAUSS, constant_data(2.0, 1.0),
                          SolverOptions(L_max=L_max), antipodal=False)
    assert report.converged
    assert len(moved) > 2 and not any(moved)
    u = synthesize(build_grid(L_max), report.final_surface.radial)
    assert np.max(np.abs(u - np.pi / 4)) <= 1e-10


def test_newton_path_assembles_and_factors_no_matrix(monkeypatch):
    # a solve applies the degree-diagonal inverse and the Broyden pairs;
    # only linear_system assembles the Newton matrix.  The data, 4 times
    # the canonical modulation at L_max 32, once fell back to an
    # assembled base
    def forbidden(*args, **kwargs):
        raise AssertionError("called by a continuation run")
    for name in ("inv", "svd", "solve", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(NewtonWorkspace, "jacobian", forbidden)
    data = modulated_data()
    data.b.values *= 4.0
    assert continuation(GAUSS, data, SolverOptions(L_max=32)).converged


def recorded(ws):
    """Log ("state", z) and ("refresh", z) for every such call on ``ws``."""
    log = []
    state, refresh = ws.state, ws.refresh
    ws.state = lambda z, t: log.append(("state", z.copy())) or state(z, t)
    ws.refresh = lambda z, t: (log.append(("refresh", z.copy()))
                               or refresh(z, t))
    return log


def perturbed_start(basis):
    start = initial_sphere(GAUSS, 2.0)
    start.radial[2, 0] += 0.02
    return coeffs_of(start, basis)


def test_stale_inverse_failing_first_trial_refreshes_instead_of_halving(
        antipodal_basis):
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    z0 = perturbed_start(antipodal_basis)
    r0 = ws.residual_vector(ws.state(z0, 0.0))
    D0 = 1.0 / ws.degree_diagonal(z0, 0.0)
    ws.inverse = -D0  # a held inverse whose full step raises the residual
    log = recorded(ws)
    _, _, state = newton_solve(ws, 0.0, z0)
    assert state.norm <= 1e-10
    assert [kind for kind, _ in log[:4]] == ["state", "state", "refresh",
                                             "state"]
    assert np.array_equal(log[1][1], z0 + D0 * r0)
    assert np.array_equal(log[2][1], z0)
    # the refresh holds the degree diagonal, whose full step is taken: no
    # halving
    assert np.array_equal(log[3][1], z0 - D0 * r0)
    assert ws.diagonal_refreshes == 1


@pytest.mark.parametrize("factor, refreshed", [
    (0.2, True),   # the residual contracts by about 0.8 > 0.75
    (0.4, False),  # by about 0.6: a Broyden update, no refresh
    (0.7, False),  # by about 0.3
])
def test_weak_contraction_drops_a_held_diagonal(antipodal_basis, factor,
                                                refreshed):
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    z0 = perturbed_start(antipodal_basis)
    ws.inverse = factor / ws.degree_diagonal(z0, 0.0)
    log = recorded(ws)
    _, _, state = newton_solve(ws, 0.0, z0)
    assert state.norm <= 1e-10
    # the held inverse's full step is accepted; the next call refreshes
    # only after a weak contraction
    assert [kind for kind, _ in log[:2]] == ["state", "state"]
    assert (log[2][0] == "refresh") is refreshed
    if refreshed:
        assert np.array_equal(log[2][1], log[1][1])


@pytest.mark.parametrize("factor, refreshed", [
    (0.9, False),  # the residual contracts by about 0.1: a Broyden update
])
def test_weak_contraction_forces_refresh(antipodal_basis, factor,
                                         refreshed):
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    z0 = perturbed_start(antipodal_basis)
    base = factor / ws.degree_diagonal(z0, 0.0)
    ws.inverse = base
    updates, update = [], ws.broyden_update
    ws.broyden_update = lambda s, Xy: (updates.append(s.copy())
                                       or update(s, Xy))
    log = recorded(ws)
    _, _, state = newton_solve(ws, 0.0, z0)
    assert state.norm <= 1e-10
    assert [kind for kind, _ in log[:2]] == ["state", "state"]
    assert (log[2][0] == "refresh") is refreshed
    if not refreshed:
        # the first step's update is appended as a pair to the held base
        assert np.array_equal(updates[0], log[1][1] - z0)


def degree_4_entry(ws, monkeypatch, entry):
    """Set the degree-4 entries of ``ws``'s degree diagonal to ``entry``
    times its largest entry, and log the base each refresh holds."""
    diagonal, refresh, bases = ws.degree_diagonal, ws.refresh, []

    def degree_4_vanishes(z, t):
        d = diagonal(z, t)
        d[ws.basis.degrees == 4] = entry * np.max(np.abs(d))
        return d

    def logged(z, t):
        left_out = refresh(z, t)
        bases.append(ws.inverse.copy())
        return left_out
    monkeypatch.setattr(ws, "degree_diagonal", degree_4_vanishes)
    monkeypatch.setattr(ws, "refresh", logged)
    return bases


@pytest.mark.parametrize("entry", [0.0, 1e-9])
def test_negligible_diagonal_entry_inverts_to_zero(antipodal_basis,
                                                   monkeypatch, entry):
    # a vanishing or negligible (below 1e-8 of the largest) degree-4
    # entry: the base takes no degree-4 step, and the solve converges
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    bases = degree_4_entry(ws, monkeypatch, entry)
    _, _, state = newton_solve(ws, 0.0, perturbed_start(antipodal_basis))
    assert state.norm <= 1e-10
    four = antipodal_basis.degrees == 4
    assert len(bases) == 1
    assert np.all(bases[0][four] == 0.0) and np.all(bases[0][~four] != 0.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_diagonal_entry_raises(antipodal_basis, monkeypatch,
                                          entry):
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    degree_4_entry(ws, monkeypatch, entry)
    with pytest.raises(SingularJacobianError, match="not finite at t = 0"):
        newton_solve(ws, 0.0, perturbed_start(antipodal_basis))
    assert ws.inverse is None


def test_degree_diagonal_matches_the_sphere_spectrum(antipodal_basis):
    # at a sphere the Newton matrix is diagonal by degree, and the model
    # fitted to degrees 0 and 2 gives every degree's entry
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    ws = workspace(data, antipodal_basis)
    z = coeffs_of(sphere, antipodal_basis)
    J = ws.jacobian(z, 0.0)
    d = ws.degree_diagonal(z, 0.0)
    # measured 4.5e-10, the size of J's own off-diagonal rounding
    assert np.max(np.abs(d - np.diag(J))) <= 1e-8 * np.max(np.abs(d))


def test_broyden_pairs_apply_the_explicitly_updated_inverse(
        antipodal_basis):
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    M = len(antipodal_basis.index)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.75, 1.25, M)
    ws.inverse = x.copy()
    X = np.diag(x)
    # residual changes y = J s of a nearby matrix, as along a Newton path
    J = np.diag(1.0 / x) + rng.standard_normal((M, M)) / (20.0 * np.sqrt(M))
    probes = rng.standard_normal((4, M))
    for update in range(1, 11):  # past the first growth of the pair store
        s = rng.standard_normal(M)
        y = J @ s
        Xy = X @ y
        ws.broyden_update(s, ws.apply_inverse(y))
        X += np.outer(s - Xy, (s @ X) / (s @ Xy))
        if update in (5, 10):
            for r in probes:
                assert np.max(np.abs(ws.apply_inverse(r) - X @ r)) <= \
                    1e-12 * np.max(np.abs(X @ r)), update
    # an assignment drops the pairs: the held diagonal is applied alone
    ws.inverse = x
    assert np.array_equal(ws.apply_inverse(probes[0]), x * probes[0])
    ws.inverse = None
    assert ws.inverse is None


@pytest.mark.parametrize("options, message", [
    ({"_MAX_NEWTON": 1}, "no convergence"),
    ({"_KAPPA_FLOOR": 2.0}, "line search failed"),
])
def test_failed_newton_solve_drops_inverse(antipodal_basis, monkeypatch,
                                           options, message):
    for name, value in options.items():
        monkeypatch.setattr(solver, name, value)
    ws = workspace(constant_data(2.0, 2.0), antipodal_basis)
    z0 = perturbed_start(antipodal_basis)
    ws.refresh(z0, 0.0)
    with pytest.raises(NewtonError, match=message):
        newton_solve(ws, 0.0, z0)
    assert ws.inverse is None


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


def test_sphere_spectrum_ratios(antipodal_basis):
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    J, res, degrees = linear_system(GAUSS, data, 0.0, sphere,
                                    antipodal_basis)
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


def test_jacobian_matches_directional_differences(antipodal_basis):
    data = PrescribedData(a_poly=[np.log(2.0), 0.3],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=2.0)
    grid = build_grid(24)
    ws = NewtonWorkspace(grid, antipodal_basis, data, GAUSS)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.03
    a[lm_index(4, 2)] += 0.01
    z = a[antipodal_basis.index]
    J = ws.jacobian(z, 0.6)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(20):
        d = rng.standard_normal(len(z))
        d /= np.linalg.norm(d)
        lam_p = ws.state(z + h * d, 0.6).lam
        lam_m = ws.state(z - h * d, 0.6).lam
        fd = ws.project @ ((lam_p - lam_m) / (2 * h))
        rel = np.linalg.norm(J @ d - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5


def _jacobian_problem(build, antipodal, L_max):
    """A workspace on ``build(L_max)`` and a perturbed sphere in its basis."""
    b = HarmonicCoeffs.zeros(L_max)
    b[2, 0], b[4, 1] = 0.1, 0.05
    if not antipodal:
        b[3, -2] = 0.05
    data = PrescribedData(a_poly=[np.log(2.0), 0.3], b=b, c=1.0)
    basis = invariant_projector(antipodal, L_max)
    ws = NewtonWorkspace(build(L_max), basis, data, GAUSS)
    a = initial_sphere(GAUSS, 1.0, L_max=L_max).radial.values.copy()
    a[lm_index(2, 0)] += 0.03
    a[lm_index(4, 2)] += 0.01
    return ws, a[basis.index]


# largest relative difference seen: 4.3e-16 (L 24, folded grid)
@pytest.mark.parametrize("build", [build_grid, build_folded_grid],
                         ids=["full", "folded"])
@pytest.mark.parametrize("antipodal", [True, False],
                         ids=["antipodal", "trivial"])
@pytest.mark.parametrize("L_max", [8, 24])
def test_jacobian_equals_stacked_jet_contraction(build, antipodal, L_max):
    # the row-wise assembly against the contraction of the node partials
    # with the stacked (6, N, M) jets of the kept basis functions
    ws, z = _jacobian_problem(build, antipodal, L_max)
    J = ws.jacobian(z, 0.6)
    jets = np.repeat(ws._jets(z)[:, :, None], 12, axis=2)
    for k in range(6):
        jets[k, :, 2 * k] += solver._JET_STEP
        jets[k, :, 2 * k + 1] -= solver._JET_STEP
    lam = ws._lambda_of_jets(jets, 0.6)[0]
    d = (lam[:, 0::2] - lam[:, 1::2]) / (2.0 * solver._JET_STEP)
    ops, index = ws.grid.ops, ws.basis.index
    cols = ops.L_max + ops.orders[index]
    stack = np.stack([(ops.colat[a][:, None, index]
                       * ops.lon[b][None, :, cols]).reshape(len(d), -1)
                      for a, b in spectral._JET_TABLES])
    want = ws.project @ np.einsum("nk,knm->nm", d, stack)
    assert np.max(np.abs(J - want)) <= 1e-13 * np.max(np.abs(want))


def test_workspace_and_assembly_stay_small():
    # no (6, N, M) jet stack: 10.1 MB alone at L 24 on the folded grid;
    # measured peak 5.4 MB, with the grid's table build
    ws, z = _jacobian_problem(build_folded_grid, True, 24)
    grid, basis, data = build_folded_grid(24), ws.basis, ws.data
    tracemalloc.start()
    try:
        NewtonWorkspace(grid, basis, data, GAUSS).jacobian(z, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


def test_residual_field_of_invariant_iterate_is_invariant():
    data = PrescribedData(a_poly=[np.log(2.0), 0.3],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=2.0)
    start = initial_sphere(GAUSS, 2.0)
    a = start.radial.values.copy()
    a[lm_index(2, 0)] += 0.03
    a[lm_index(4, 2)] += 0.01
    # the whole coefficient space: invariance comes from the geometry alone
    ws = NewtonWorkspace(build_grid(24), invariant_projector(False, 24),
                         data, GAUSS)
    lam = ws.state(a, 0.6).lam
    assert np.max(np.abs(lam)) > 0.01
    coeffs = analyze(build_grid(24), lam).values
    odd = [abs(coeffs[i]) for i in range(len(coeffs))
           if index_lm(i)[0] % 2 == 1]
    assert max(odd) <= 1e-10


def test_residual_field_vanishes_at_exact_solution(antipodal_basis):
    data = constant_data(2.0, 2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    lam = workspace(data, antipodal_basis).state(
        coeffs_of(sphere, antipodal_basis), 0.0).lam
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


def modulated_data():
    """The modulated problem of acceptance check 06."""
    b = HarmonicCoeffs.zeros(2)
    b[2, 0], b[2, 2], b[2, -1] = 0.4, 0.2, -0.2
    b.values /= np.sqrt(6.0)
    return PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0)


def test_continuation_modulated_data(antipodal_basis):
    report = continuation(GAUSS, modulated_data())
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
    assert antipodal_basis.stray(a) <= 1e-10


def test_antipodal_continuation_runs_on_folded_grid(monkeypatch):
    # the fold keeps the iterates of the full grid with the same
    # 2 L_max + 2 longitudes: every max-norm and projection is the same
    folded = continuation(GAUSS, modulated_data())
    assert folded.grid.folded and folded.grid.n_phi == 50
    assert folded.grid.n_nodes == 13 * 50
    monkeypatch.setattr(spectral, "build_folded_grid",
                        lambda L: spectral._product_grid(L, 2 * L + 2, False))
    even = continuation(GAUSS, modulated_data())
    assert not even.grid.folded and even.grid.n_nodes == 25 * 50
    assert folded.converged and even.converged
    assert [s.iterations for s in folded.steps] == \
        [s.iterations for s in even.steps]
    assert [s.t for s in folded.steps] == [s.t for s in even.steps]
    diff = folded.final_surface.radial.values - \
        even.final_surface.radial.values
    assert np.max(np.abs(diff)) <= 1e-14
    for a, b in zip(folded.steps, even.steps):
        assert abs(a.kappa_min - b.kappa_min) <= 1e-12
        assert abs(a.r_max - b.r_max) <= 1e-12


def test_trivial_group_solves_on_full_grid(grid_shape_builds):
    report = continuation(GAUSS, constant_data(2.0, 1.0),
                          opts=SolverOptions(L_max=8), antipodal=False)
    full = build_grid(8)
    assert report.converged and not report.grid.folded
    for name in ("theta", "phi", "weights"):
        assert np.array_equal(getattr(report.grid, name),
                              getattr(full, name)), name
    assert grid_shape_builds == [(8, 9, 17)]


def test_continuation_builds_operators_once(grid_table_builds):
    # one run grid shared by the projector, every Newton solve and every
    # step record, and handed out with the report
    report = continuation(GAUSS, constant_data(2.0, 1.0),
                          opts=SolverOptions(L_max=8))
    assert report.converged and len(report.steps) == 2
    assert grid_table_builds == [8]
    assert report.grid.L_max == 8


def test_canonical_solve_reaches_one_in_a_single_try(monkeypatch):
    report = continuation(GAUSS, modulated_data())
    # the same problem with its first try at t = 1 refused reaches t = 1
    # through t = 0.5, and the two paths end at the same surface
    tries, solve = [], solver.newton_solve

    def refuse_first_try_at_one(ws, t, *args, **kwargs):
        tries.append(t)
        if tries == [0.0, 1.0]:
            raise NewtonError("refused")
        return solve(ws, t, *args, **kwargs)
    monkeypatch.setattr(solver, "newton_solve", refuse_first_try_at_one)
    detour = continuation(GAUSS, modulated_data())
    assert report.converged and detour.converged
    assert [(s.t, s.iterations) for s in report.steps] == [(0.0, 0),
                                                          (1.0, 13)]
    assert report.steps[-1].residual <= 1e-10
    assert tries == [0.0, 1.0, 0.5, 1.0]
    diff = report.final_surface.radial.values - \
        detour.final_surface.radial.values
    assert np.max(np.abs(diff)) <= 1e-12


CANONICAL_SOLVES = """
import logging
import numpy as np
from curvedual.curvature import make_curvature_function
from curvedual.solver import PrescribedData, SolverOptions, continuation
from curvedual.spectral import HarmonicCoeffs
lines = []
handler = logging.Handler()
handler.emit = lambda record: lines.append(record.getMessage())
logger = logging.getLogger("curvedual.solver")
logger.addHandler(handler)
logger.setLevel(logging.DEBUG)
for F, scale, L_max in (("gauss_power", 1, 24), ("mean", 4, 32)):
    b = HarmonicCoeffs.zeros(2)
    b[2, 0], b[2, 2], b[2, -1] = 0.4, 0.2, -0.2
    b.values *= scale / np.sqrt(6.0)
    report = continuation(make_curvature_function(F),
                          PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0),
                          SolverOptions(L_max=L_max))
    print(lines[-1])
    print(report.final_surface.radial.values.tobytes().hex())
"""


def test_canonical_solve_is_independent_of_the_blas_thread_count():
    # the Newton path runs no product whose rounding depends on how
    # OpenBLAS splits it among threads, as project @ E and the LU inverse
    # of an assembled base did.  The problems are modulated_data's and its
    # modulation taken 4 times under the mean at L_max 32, which once
    # assembled that base
    src = str(Path(solver.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", CANONICAL_SOLVES],
                             env=env, capture_output=True, text=True,
                             check=True)
        outputs.append(run.stdout.split("\n"))
    assert outputs[0][0] == "homotopy try t = 1: accepted; 13 iterations, " \
        "2 diagonal refreshes"
    assert outputs[0][2] == "homotopy try t = 1: accepted; 18 iterations, " \
        "3 diagonal refreshes"
    assert outputs[0] == outputs[1]


def counted_tries(monkeypatch):
    """The t of every ``newton_solve`` call continuation makes, in order."""
    tries, solve = [], solver.newton_solve

    def counted(ws, t, *args, **kwargs):
        tries.append(t)
        return solve(ws, t, *args, **kwargs)
    monkeypatch.setattr(solver, "newton_solve", counted)
    return tries


def test_failure_halves_the_step_that_failed(monkeypatch):
    # every try past t = 0.9 fails, and so does the first try at 0.5.  A
    # failure halves the step that failed.  A step accepted right after a
    # failure is not doubled: 0.25 is followed by 0.5, and 0.890625 by
    # 0.90625, not 0.921875.  The accepted step after it doubles: 0.5 is
    # followed by 1
    tries, solve = [], solver.newton_solve

    def failing_late(ws, t, *args, **kwargs):
        tries.append(t)
        if t > 0.9 or tries == [0.0, 1.0, 0.5]:
            raise NewtonError("refused")
        return solve(ws, t, *args, **kwargs)
    monkeypatch.setattr(solver, "newton_solve", failing_late)
    report = continuation(GAUSS, constant_data(2.0, 1.0),
                          SolverOptions(L_max=8))
    assert tries[:14] == [0.0, 1.0, 0.5, 0.25, 0.5, 1.0, 0.75, 1.0, 0.875,
                          1.0, 0.9375, 0.90625, 0.890625, 0.90625]
    assert all(a != b for a, b in zip(tries, tries[1:]))
    assert len(tries) == 24
    assert report.message.startswith("step size underflow at t = ")
    assert 0.875 <= report.steps[-1].t <= 0.9


def test_try_raising_a_foreign_error_is_logged_as_aborted(monkeypatch,
                                                          caplog):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("boom")
    monkeypatch.setattr(solver, "newton_solve", broken)
    with caplog.at_level("DEBUG", logger="curvedual.solver"), \
            pytest.raises(np.linalg.LinAlgError):
        continuation(GAUSS, constant_data(2.0, 1.0),
                     opts=SolverOptions(L_max=8))
    assert [r.getMessage() for r in caplog.records] == [
        "homotopy try t = 0: aborted; 0 iterations, 0 diagonal refreshes"]


def free_draw(L_max):
    """Norm 0.2 on degrees 2 and 4 from one seeded normal draw."""
    rng = np.random.default_rng([0, 3, 0])
    index = [lm_index(l, m) for l in (2, 4) for m in range(-l, l + 1)]
    v = rng.standard_normal(len(index))
    b = HarmonicCoeffs.zeros(L_max)
    b.values[index] = 0.2 * v / np.linalg.norm(v)
    return PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0)


def test_unresolved_free_draw_fails_where_the_fixed_schedule_did(
        monkeypatch, caplog):
    # L_max 16 cannot resolve the solution to tol past t ~ 0.003; the
    # big first step must still back off that far before giving up, and
    # every try, failed or accepted, is logged
    tries = counted_tries(monkeypatch)
    with caplog.at_level("DEBUG", logger="curvedual.solver"):
        report = continuation(GAUSS, free_draw(16), SolverOptions(L_max=16))
    assert report.status == "failed"
    assert report.message.startswith("step size underflow at t = ")
    assert report.steps[-1].t >= 0.003
    assert tries[1] == 1.0
    lines = [r.getMessage() for r in caplog.records
             if r.name == "curvedual.solver"]
    assert len(lines) == len(tries)
    assert lines[0] == "homotopy try t = 0: accepted; 0 iterations, " \
        "0 diagonal refreshes"
    assert lines[1].startswith("homotopy try t = 1: failed (line search "
                               "failed after 20 halvings at t = 1; ")
    assert sum(": accepted;" in line for line in lines) == \
        len(report.steps)
    assert report.message.split(": ", 1)[1] in lines[-1]
    assert "homotopy try" not in repr(report.as_dict())


def test_continuation_rejects_bad_base_constant():
    data = constant_data(2.0, 2.5)
    with pytest.raises(DataError, match="strictly below"):
        continuation(GAUSS, data)


@pytest.mark.parametrize("options, message", [
    # an infinite tolerance would accept every iterate unsolved
    ({"tol": np.inf}, '"tol" must be finite and nonnegative'),
    ({"tol": np.nan}, '"tol" must be finite and nonnegative'),
    ({"tol": -1.0}, '"tol" must be finite and nonnegative'),
])
def test_continuation_rejects_bad_step_options(options, message):
    with pytest.raises(ConfigError, match=message):
        continuation(GAUSS, constant_data(2.0, 1.0),
                     SolverOptions(L_max=8, **options))


@pytest.mark.parametrize("L_max, message", [
    (2, "L_max must be at least 4, got 2"),
    (24.0, '"L_max" must be an integer, got 24.0'),
])
def test_continuation_rejects_bad_truncation(monkeypatch, L_max, message):
    built = []
    monkeypatch.setattr(solver, "build_grid", built.append)
    with pytest.raises(ConfigError, match=message):
        continuation(GAUSS, constant_data(2.0, 1.0),
                     SolverOptions(L_max=L_max))
    assert built == []


def test_continuation_warns_for_inadmissible_function():
    data = constant_data(2.0, 1.0)
    mean = make_curvature_function("mean")
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


def test_continuation_nonconvex_start_fails_cleanly():
    # F is not finite where a principal curvature is negative, so the
    # t = 0 solve fails with a report instead of a LAPACK error
    start = sphere_surface(np.pi / 4, L_max=24)
    start.radial[2, 0] += 0.45
    start.radial[4, 0] += 0.2
    report = continuation(GAUSS, constant_data(2.0, 1.0),
                          opts=SolverOptions(L_max=24), start=start)
    assert report.status == "failed" and report.steps == []
    assert report.message.startswith(
        "t = 0 solve failed: residual is not finite at t = 0; kappa_min -1.5")


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
