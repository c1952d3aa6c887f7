"""Go/no-go acceptance checks for the whole package.

Thirteen checks, one test each, covering the closed-form curvature
oracle, duality identities, solver existence and uniqueness runs, the
linearization spectrum, the admissibility checker and the validation
diagnostics.  Run with ``pytest tests/test_acceptance.py -v`` for one
pass/fail line per check; each check also prints its own summary line.
"""

import math

import numpy as np
import pytest

from curvedual.curvature import class_K_check, make_curvature_function
from curvedual.geometry import (GraphSurface, curvature_field,
                                offset_sphere_surface, sphere_surface)
from curvedual.polar import (dual_surface, gauss_map, support_test,
                             transfer_problem)
from curvedual.solver import (PrescribedData, check_barriers, continuation,
                              data_on_field, initial_sphere,
                              invariant_projector, linear_system,
                              near_kernel)
from curvedual.spectral import (HarmonicCoeffs, analyze, build_grid,
                                chart_jets, index_lm, lm_index,
                                num_coeffs, synthesize)
from curvedual.validation import steiner_point, stereographic_residual
from curvedual import geometry

GAUSS = make_curvature_function("gauss_power")
SQRT_4PI = math.sqrt(4.0 * math.pi)
RADII = (np.pi / 6, np.pi / 4, np.pi / 3)


def sampled(surface):
    return curvature_field(surface, build_grid(surface.L_max))


def report(num, label, ok, detail=""):
    line = f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def bumpy_surface(L_max=24):
    # convex reference surface: degree-2 and degree-4 even bumps
    c = HarmonicCoeffs.zeros(L_max)
    c[0, 0] = (np.pi / 4) * SQRT_4PI
    c[2, 0] = 0.05
    amp = 0.02 / math.sqrt(3.0)
    c[4, 0] = amp
    c[4, 2] = amp
    c[4, -2] = amp
    return GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]),
                        radial=c, gauge_tau0=geometry.default_gauge_tau0())


def constant_two_data():
    return PrescribedData(a_poly=[math.log(2.0)],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=1.0)


def modulated_data():
    # constant 2 times the exponential of a unit even degree-2 bump
    # scaled by 0.2
    b = HarmonicCoeffs.zeros(2)
    b[2, 0] = 0.4 / math.sqrt(6.0)
    b[2, 2] = 0.2 / math.sqrt(6.0)
    b[2, -1] = -0.2 / math.sqrt(6.0)
    return PrescribedData(a_poly=[math.log(2.0)], b=b, c=1.0)


@pytest.fixture(scope="module")
def bumpy():
    return bumpy_surface()


@pytest.fixture(scope="module")
def bumpy_field(bumpy):
    return curvature_field(bumpy, build_grid(bumpy.L_max))


@pytest.fixture(scope="module")
def uniqueness_run():
    base = initial_sphere(GAUSS, 1.0)
    radial = base.radial.copy()
    radial[2, 0] += 0.02
    start = GraphSurface(n=2, pole=base.pole, radial=radial,
                         gauge_tau0=base.gauge_tau0)
    return continuation(GAUSS, constant_two_data(), start=start)


@pytest.fixture(scope="module")
def existence_run():
    return continuation(GAUSS, modulated_data())


def test_01_sphere_curvature_closed_form():
    worst = 0.0
    for r in RADII:
        field = curvature_field(sphere_surface(r, L_max=24), build_grid(24))
        worst = max(worst, float(np.max(np.abs(field.kappa - 1.0 / np.tan(r)))))
    report(1, "geodesic sphere curvatures match cot r", worst <= 1e-8,
           f"max error {worst:.3g}")


def test_02_duality_reciprocity_and_shared_form(bumpy, bumpy_field):
    grid = bumpy_field.grid
    samples = gauss_map(bumpy_field)
    pair_a = samples.kappa_dual[:, 0] * bumpy_field.kappa[:, 1]
    pair_b = samples.kappa_dual[:, 1] * bumpy_field.kappa[:, 0]
    recip = float(max(np.max(np.abs(pair_a - 1.0)),
                      np.max(np.abs(pair_b - 1.0))))

    # the mixed derivative pairing <d_i x_dual, d_j x> must reproduce
    # the second fundamental form of the source
    d_theta = np.empty_like(samples.x_dual)
    d_phi = np.empty_like(samples.x_dual)
    for a in range(4):
        d_theta[:, a], d_phi[:, a] = chart_jets(
            grid, analyze(grid, samples.x_dual[:, a]))[1:3]
    h_cross = np.empty_like(bumpy_field.h)
    h_cross[:, 0, 0] = np.sum(d_theta * bumpy_field.x_theta, axis=1)
    h_cross[:, 0, 1] = np.sum(d_theta * bumpy_field.x_phi, axis=1)
    h_cross[:, 1, 0] = np.sum(d_phi * bumpy_field.x_theta, axis=1)
    h_cross[:, 1, 1] = np.sum(d_phi * bumpy_field.x_phi, axis=1)
    shared = float(np.max(np.abs(h_cross - bumpy_field.h)))

    report(2, "dual curvature reciprocity and shared form",
           recip <= 1e-6 and shared <= 1e-7,
           f"reciprocity {recip:.3g}, form {shared:.3g}")


def test_03_double_dual_returns_surface(bumpy):
    dual = dual_surface(bumpy, L_max=32, sample_L=36)
    back = dual_surface(dual, L_max=24, sample_L=40)
    grid = build_grid(bumpy.L_max)
    dist = np.linalg.norm(curvature_field(back, grid).x
                          - curvature_field(bumpy, grid).x, axis=1)
    worst = float(np.max(dist))
    report(3, "double dual reproduces the surface", worst <= 1e-6,
           f"max distance {worst:.3g}")


def test_04_ball_polarity():
    worst = 0.0
    for r in RADII:
        dual = dual_surface(sphere_surface(r, L_max=24))
        target = sphere_surface(np.pi / 2 - r, L_max=dual.L_max)
        worst = max(worst, float(np.max(np.abs(
            dual.radial.values - target.radial.values))))
    report(4, "balls dualize to complementary balls", worst <= 1e-9,
           f"max coefficient error {worst:.3g}")


def test_05_uniqueness_returns_round_sphere(uniqueness_run):
    rep = uniqueness_run
    u = synthesize(build_grid(24), rep.final_surface.radial)
    dev = float(np.max(np.abs(u - np.pi / 4)))
    resid = rep.steps[-1].residual
    report(5, "constant data returns the round sphere",
           rep.converged and dev <= 1e-9 and resid <= 1e-10,
           f"radial deviation {dev:.3g}, residual {resid:.3g}")


def test_06_existence_run_with_modulated_data(existence_run):
    rep = existence_run
    last = rep.steps[-1]
    a = rep.final_surface.radial.values
    odd = max(abs(a[i]) for i in range(len(a)) if index_lm(i)[0] % 2 == 1)
    report(6, "modulated data solved under antipodal symmetry",
           rep.converged and last.t == 1.0 and last.residual <= 1e-8
           and last.kappa_min > 0.05 and odd <= 1e-10,
           f"residual {last.residual:.3g}, kappa_min {last.kappa_min:.3g}, "
           f"odd content {odd:.3g}")


def test_07_dual_problem_consistency(existence_run):
    surface = existence_run.final_surface
    grid = build_grid(surface.L_max)
    field = curvature_field(surface, grid)
    samples = gauss_map(field)
    f_src = data_on_field(modulated_data(), field)
    F_dual, f_dual = transfer_problem(GAUSS, f_src)
    worst = float(np.max(np.abs(F_dual(samples.kappa_dual) - f_dual)))
    report(7, "solution dualizes to the reciprocal problem", worst <= 1e-6,
           f"max transfer residual {worst:.3g}")


def test_08_linearization_spectrum():
    data = PrescribedData(a_poly=[math.log(2.0)],
                          b=HarmonicCoeffs(2, np.zeros(num_coeffs(2))),
                          c=2.0)
    sphere = initial_sphere(GAUSS, 2.0)
    projector = invariant_projector(True, 24)
    J, _, degrees = linear_system(GAUSS, data, 0.0, sphere, projector)
    lam = {}
    for l in (0, 2, 4):
        cols = np.nonzero(degrees == l)[0]
        lam[l] = float(np.mean(np.diag(J[np.ix_(cols, cols)])))
    ratio_err = max(abs(lam[2] / lam[0] + 2.0),
                    abs(lam[4] / lam[0] + 9.0),
                    abs(lam[4] / lam[2] - 4.5))

    # without the symmetry restriction three translation modes appear
    J_full, _, degrees_full = linear_system(GAUSS, data, 0.0, sphere)
    dim, directions = near_kernel(J_full)
    degree_one = dim == 3 and all(
        set(degrees_full[np.nonzero(np.abs(d) > 1e-6)[0]].tolist()) == {1}
        for d in directions)
    report(8, "sphere linearization spectrum and translation modes",
           ratio_err <= 1e-4 and degree_one,
           f"ratio error {ratio_err:.3g}, kernel dim {dim}")


def test_09_admissibility_checker():
    gauss_rep = class_K_check(GAUSS, n_samples=10_000, seed=0)
    inv_rep = class_K_check(make_curvature_function("inverse_of(mean)"),
                            n_samples=10_000, seed=0)
    both = all(r.monotone and r.weight_ordering and r.concave_if_deg1
               for r in (gauss_rep, inv_rep))

    # the plain sum of curvatures puts the larger weight on the larger
    # curvature, so the ordering fails at (1, 2) by exactly one
    mean = make_curvature_function("mean")
    kappa = np.array([1.0, 2.0])
    weighted = mean.gradient(kappa) * kappa
    excess = float(weighted[1] - weighted[0])
    mean_rep = class_K_check(mean, n_samples=10_000, seed=0)
    report(9, "admissibility checks accept and reject correctly",
           both and excess == 1.0 and not mean_rep.weight_ordering,
           f"ordering excess at (1, 2): {excess}")


def test_10_stereographic_consistency(bumpy_field):
    resid = stereographic_residual(bumpy_field)
    report(10, "projected curvature forms agree", resid <= 1e-6,
           f"residual {resid:.3g}")


def test_11_center_diagnostic(uniqueness_run, existence_run):
    worst = max(
        float(np.linalg.norm(steiner_point(sampled(run.final_surface))))
        for run in (uniqueness_run, existence_run))
    control = float(np.linalg.norm(
        steiner_point(sampled(offset_sphere_surface(np.pi / 4, 0.15)))))
    report(11, "curvature centroid vanishes for symmetric solutions",
           worst <= 1e-8 and control > 0.1,
           f"solutions {worst:.3g}, off-center control {control:.3g}")


def test_12_support_inequality(bumpy_field):
    rep = support_test(bumpy_field, 10_000, seed=0)
    report(12, "support pairing strictly negative off the diagonal",
           rep.max_off_diagonal < 0.0 and rep.max_diagonal_abs <= 1e-10,
           f"off-diagonal max {rep.max_off_diagonal:.3g}, "
           f"diagonal max {rep.max_diagonal_abs:.3g}")


def test_13_barrier_pair():
    rep = check_barriers(GAUSS, 2.0,
                         lower=sphere_surface(np.pi / 3, L_max=24),
                         upper=sphere_surface(np.pi / 6, L_max=24))
    report(13, "nested sphere pair validates as barriers", rep.passed,
           f"margins {rep.lower_margin:.3g}, {rep.upper_margin:.3g}")
