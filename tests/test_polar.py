import dataclasses
import re

import numpy as np
import pytest

from curvedual.curvature import make_curvature_function
from curvedual.errors import ConvexityError, DataError, ResolutionError
from curvedual.geometry import curvature_field, sphere_surface
from curvedual.solver import PrescribedData, SolverOptions, continuation
from curvedual import _kernels, polar, spectral
from curvedual.polar import (dual_as_graph, dual_surface, fit_residual,
                             gauss_map, support_test, transfer_problem)
from curvedual.spectral import HarmonicCoeffs, analyze, build_folded_grid, \
    build_grid, chart_jets, jets_at, synthesize_at
from curvedual import geometry

E4 = np.array([0.0, 0.0, 0.0, 1.0])


def perturbed_surface(L_max=24):
    # convex test surface: gentle bumps of degree 2 and 4 on a sphere
    c = HarmonicCoeffs.zeros(L_max)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[2, 0] = 0.05
    amp = 0.02 / np.sqrt(3)
    c[4, 0] = amp
    c[4, 2] = amp
    c[4, -2] = amp
    return geometry.GraphSurface(n=2, pole=E4.copy(), radial=c,
                                 gauge_tau0=geometry.default_gauge_tau0())


def test_sphere_dual_closed_form():
    # radius pi/6 has curvature sqrt(3); the dual ball has radius pi/3
    # and curvature tan(pi/6)
    grid = build_grid(16)
    field = curvature_field(sphere_surface(np.pi / 6, L_max=16), grid)
    samples = gauss_map(field)
    assert np.max(np.abs(samples.r_star - np.pi / 3)) <= 1e-12
    assert np.max(np.abs(samples.kappa_dual - np.tan(np.pi / 6))) <= 1e-10
    assert np.allclose(samples.pole, -E4)


def test_self_dual_radius():
    grid = build_grid(12)
    field = curvature_field(sphere_surface(np.pi / 4, L_max=12), grid)
    samples = gauss_map(field)
    assert np.max(np.abs(samples.r_star - np.pi / 4)) <= 1e-12


def test_dual_points_orthogonal_to_source():
    surf = perturbed_surface()
    grid = build_grid(surf.L_max)
    field = curvature_field(surf, grid)
    samples = gauss_map(field)
    dots = np.sum(field.x * samples.x_dual, axis=1)
    assert np.max(np.abs(dots)) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(samples.x_dual, axis=1) - 1)) <= 1e-12


def test_reciprocal_curvature_pairing():
    # kappa ascending and dual kappa ascending pair smallest with largest
    surf = perturbed_surface()
    grid = build_grid(surf.L_max)
    field = curvature_field(surf, grid)
    samples = gauss_map(field)
    prod_a = samples.kappa_dual[:, 0] * field.kappa[:, 1]
    prod_b = samples.kappa_dual[:, 1] * field.kappa[:, 0]
    assert np.max(np.abs(prod_a - 1.0)) <= 1e-6
    assert np.max(np.abs(prod_b - 1.0)) <= 1e-6


def test_gauss_map_rejects_nonconvex():
    c = HarmonicCoeffs.zeros(16)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[4, 0] = 0.22
    surf = geometry.GraphSurface(n=2, pole=E4.copy(), radial=c,
                                 gauge_tau0=geometry.default_gauge_tau0())
    grid = build_grid(16)
    field = curvature_field(surf, grid)
    assert field.kappa_min <= 0.0  # amplitude chosen to break convexity
    with pytest.raises(ConvexityError):
        gauss_map(field)


def test_dual_graph_of_sphere():
    dual = dual_as_graph(sphere_surface(np.pi / 6, L_max=16), L_max=16,
                         sample_L=20)
    values = dual.radial.values
    a00 = values[0]
    assert abs(a00 - (np.pi / 3) * np.sqrt(4 * np.pi)) <= 1e-9
    assert np.max(np.abs(values[1:])) <= 1e-9
    assert np.allclose(dual.pole, -E4)


@pytest.mark.parametrize("radius", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_ball_polarity(radius):
    dual = dual_as_graph(sphere_surface(radius, L_max=12), L_max=12,
                         sample_L=16)
    expect = (np.pi / 2 - radius) * np.sqrt(4 * np.pi)
    assert abs(dual.radial.values[0] - expect) <= 1e-9
    assert np.max(np.abs(dual.radial.values[1:])) <= 1e-9


def test_inclusion_reversal_for_balls():
    # smaller ball has the larger polar ball
    radii = []
    for r in (np.pi / 6, np.pi / 4):
        dual = dual_as_graph(sphere_surface(r, L_max=8), L_max=8, sample_L=12)
        radii.append(dual.radial.values[0] / np.sqrt(4 * np.pi))
    assert radii[0] > radii[1]


def test_double_dual_returns_source():
    surf = perturbed_surface()
    dual = dual_surface(surf, L_max=32, sample_L=36)
    back = dual_surface(dual, L_max=24, sample_L=40)

    assert np.allclose(back.pole, surf.pole)
    grid = build_grid(surf.L_max)
    x_src = curvature_field(surf, grid).x
    x_back = curvature_field(back, grid).x
    dist = np.linalg.norm(x_back - x_src, axis=1)
    assert np.max(dist) <= 1e-6


def test_dual_fit_residual_small():
    surf = perturbed_surface()
    grid = build_grid(36)
    samples = gauss_map(curvature_field(surf.padded_to(36), grid))
    dual = dual_as_graph(surf, L_max=32, sample_L=36)
    assert fit_residual(samples, dual) <= 1e-6


def test_dual_surface_defaults_on_ball():
    dual = dual_surface(sphere_surface(np.pi / 6, L_max=12))
    assert abs(dual.radial.values[0] - (np.pi / 3) * np.sqrt(4 * np.pi)) <= 1e-9
    assert np.max(np.abs(dual.radial.values[1:])) <= 1e-9


def test_dual_of_even_surface_is_even():
    # source invariant under the antipodal map of the parameter sphere:
    # the dual graph keeps that invariance, so odd degrees vanish
    dual = dual_surface(perturbed_surface(), L_max=32, sample_L=36)
    for l in range(1, dual.L_max + 1, 2):
        assert np.max(np.abs(dual.radial.degree_slice(l))) <= 1e-9, l


@pytest.mark.parametrize("radius", [np.pi / 6, np.pi / 4, 1.2])
def test_ball_weights_equal_grid_weights(radius):
    # the dual of a ball about the pole is a ball about its antipode, and
    # its chart direction is the source direction mirrored: J = 1
    grid = build_grid(16)
    samples = gauss_map(curvature_field(sphere_surface(radius, L_max=16),
                                        grid))
    assert np.max(np.abs(samples.weights / grid.weights - 1.0)) <= 2e-15


def test_weights_sum_to_sphere_area():
    field = curvature_field(perturbed_surface(), build_grid(24))
    weights = gauss_map(field).weights
    assert abs(weights.sum() / (4.0 * np.pi) - 1.0) <= 1e-14


@pytest.mark.parametrize("name", ["eta_theta", "eta_phi", "r_star",
                                  "weights"])
def test_nonfinite_samples_rejected(name):
    # a NaN would make the residual NaN, which no tolerance rejects
    grid = build_grid(8)
    surface = sphere_surface(np.pi / 4, L_max=8)
    s = gauss_map(curvature_field(surface, grid))
    values = getattr(s, name).copy()
    values[17] = np.nan
    dual = dual_as_graph(surface, L_max=8, sample_L=12)
    assert fit_residual(s, dual) <= 1e-12
    with pytest.raises(ResolutionError, match="not finite"):
        fit_residual(dataclasses.replace(s, **{name: values}), dual)


@pytest.fixture(scope="module")
def solve_output():
    # the canonical solve output: acceptance 06's problem solved at L 24
    b = HarmonicCoeffs.zeros(2)
    b[2, 0] = 0.4 / np.sqrt(6.0)
    b[2, 2] = 0.2 / np.sqrt(6.0)
    b[2, -1] = -0.2 / np.sqrt(6.0)
    report = continuation(make_curvature_function("gauss_power"),
                          PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0),
                          SolverOptions(L_max=24))
    assert report.converged
    return report.final_surface


def test_support_function_of_a_ball_is_tan_of_its_radius():
    # the gnomonic image of a ball about the pole is a Euclidean ball of
    # radius tan r about the origin, so h(u) = tan r in every direction
    rng = np.random.default_rng(4)
    u = rng.standard_normal((500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for radius in (np.pi / 6, 1.2):
        h = polar._support(sphere_surface(radius, L_max=8).radial, u)
        assert np.max(np.abs(h - np.tan(radius))) <= 4e-15 * np.tan(radius)


def _ball_radii(radius, tilt, direction, theta, phi):
    # the closed-form radial graph of offset_sphere_surface at any points
    s = _kernels._frame_fields(theta, phi).w @ direction
    amp = np.sqrt(1.0 - np.sin(tilt) ** 2 * (1.0 - s**2))
    return np.arctan2(np.sin(tilt) * s, np.cos(tilt)) + np.arccos(
        np.cos(radius) / amp)


def test_dual_of_an_offset_ball_is_the_complementary_ball():
    # the polar of the ball B(c, R) is B(-c, pi/2 - R); about the antipodal
    # pole -c lies at the same tilt, in the direction mirrored by the
    # antipodal chart frame.  The source is a fit of its closed form,
    # off by 8e-14; the dual is off by 9e-14 at the nodes of grid 40
    d = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
    source = geometry.offset_sphere_surface(np.pi / 4, 0.15, d, L_max=24)
    dual = dual_surface(source)
    grid = build_grid(40)
    exact = _ball_radii(np.pi / 4, 0.15, d * [-1.0, -1.0, 1.0], grid.theta,
                        grid.phi)
    got = synthesize_at(dual.radial, grid.theta, grid.phi)
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_solve_output_dual_matches_exact_support_radii(solve_output):
    # the dual point of a source point is its outward unit normal; read in
    # the chart about the antipodal pole, it gives a direction and the
    # exact dual radius there.  At 4000 random source points the dual
    # graph is off by 1.3e-15
    rng = np.random.default_rng(11)
    theta = np.arccos(rng.uniform(-1.0, 1.0, 4000))
    phi = rng.uniform(0.0, 2.0 * np.pi, 4000)
    forms = _kernels.fundamental_forms(
        _kernels._frame_fields(theta, phi),
        *jets_at(solve_output.radial, theta, phi))
    dual = dual_surface(solve_output)
    std = forms["normal"] @ (geometry.frame_for_pole(solve_output.pole).T
                             @ geometry.frame_for_pole(dual.pole))
    planar = np.hypot(std[:, 0], std[:, 1])
    r_star = np.arctan2(np.hypot(planar, std[:, 2]), std[:, 3])
    got = synthesize_at(dual.radial, np.arctan2(planar, std[:, 2]),
                        np.arctan2(std[:, 1], std[:, 0]))
    assert np.max(np.abs(got - r_star)) <= 5e-15


def test_support_function_is_exact_at_the_stop():
    # h is read from the last Newton step's quadratic model, off by
    # O(|d|^3) with |d| < 1e-6.  At the dual directions of 4000 random
    # source points it equals cot r* within 8.8e-16 relative
    surface = perturbed_surface()
    rng = np.random.default_rng(5)
    theta = np.arccos(rng.uniform(-1.0, 1.0, 4000))
    phi = rng.uniform(0.0, 2.0 * np.pi, 4000)
    normal = _kernels.fundamental_forms(
        _kernels._frame_fields(theta, phi),
        *jets_at(surface.radial, theta, phi))["normal"]
    frame = geometry.frame_for_pole(-surface.pole)
    std = normal @ frame
    planar = np.linalg.norm(std[:, :3], axis=1)
    u = std[:, :3] / planar[:, None] @ (
        frame[:, :3].T @ geometry.frame_for_pole(surface.pole)[:, :3])
    cot = std[:, 3] / planar
    h = polar._support(surface.radial, u)
    assert np.max(np.abs(h - cot) / np.abs(cot)) <= 4e-15


def test_support_makes_two_jet_passes_at_full_width(monkeypatch):
    # a perfbench-like dual leg: an L 24 sphere with bumps of degrees 1-6
    # sampled on build_grid(36), 2701 directions.  Newton starts from the
    # jets of the 325 coarse nodes, and the stopped points need no value
    # pass
    c = HarmonicCoeffs.zeros(24)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    rng = np.random.default_rng(3)
    for l in range(1, 7):
        v = rng.standard_normal(2 * l + 1)
        c.degree_slice(l)[:] = 0.04 / l**2 * v / np.linalg.norm(v)
    surface = geometry.GraphSurface(n=2, pole=E4.copy(), radial=c,
                                    gauge_tau0=geometry.default_gauge_tau0())
    passes = []
    evaluate = spectral._form_jets

    def spy(form, theta, phi, derivatives=True):
        passes.append((len(theta), derivatives))
        return evaluate(form, theta, phi, derivatives)

    monkeypatch.setattr(spectral, "_form_jets", spy)
    dual_as_graph(surface, L_max=32, sample_L=36)
    assert [p for p in passes if p[0] == 325] == [(325, True)]
    assert passes.count((2701, True)) <= 2
    assert (2701, False) not in passes


def test_dual_graph_above_its_sample_degree_is_refused():
    # analyze at sample_L gives no coefficients above it
    with pytest.raises(ValueError, match="L_max 20 exceeds sample_L 16"):
        dual_as_graph(sphere_surface(np.pi / 4, L_max=8), L_max=20,
                      sample_L=16)


def test_support_points_not_converging_raise(monkeypatch):
    monkeypatch.setattr(polar, "_NEWTON_STEPS", 2)
    with pytest.raises(ResolutionError, match=r"^support points of \d+ dual "
                       r"directions did not converge in 2 Newton steps$"):
        dual_surface(perturbed_surface(L_max=8))


def test_support_minimum_is_refused(monkeypatch):
    # started at the worst coarse node, Newton converges to the minimum of
    # <y, u>, whose Hessian is positive definite
    u = build_grid(8).nodes.w
    monkeypatch.setattr(np, "argmax", np.argmin)
    with pytest.raises(ResolutionError, match="not a strict maximum"):
        polar._support(perturbed_surface(L_max=8).radial, u)


def test_dual_fit_logs_its_path(caplog):
    # the fit logs how many Newton steps its slowest support point took
    with caplog.at_level("DEBUG", logger="curvedual.polar"):
        dual_surface(perturbed_surface(), L_max=32, sample_L=36)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "curvedual.polar"]
    assert len(lines) == 1
    assert re.fullmatch(r"support function: 2701 directions, L_max=24, "
                        r"Newton steps [1-9]", lines[0]), lines[0]

def test_second_fundamental_form_shared_with_dual():
    # <d_i x_dual, d_j x> recovers h_ij, with the dual point field
    # differentiated spectrally over the source chart
    surf = perturbed_surface()
    grid = build_grid(surf.L_max)
    field = curvature_field(surf, grid)
    samples = gauss_map(field)

    d_theta = np.empty_like(samples.x_dual)
    d_phi = np.empty_like(samples.x_dual)
    for a in range(4):
        comp = analyze(grid, samples.x_dual[:, a])
        d_theta[:, a], d_phi[:, a] = chart_jets(grid, comp)[1:3]

    h_cross = np.empty_like(field.h)
    h_cross[:, 0, 0] = np.sum(d_theta * field.x_theta, axis=1)
    h_cross[:, 0, 1] = np.sum(d_theta * field.x_phi, axis=1)
    h_cross[:, 1, 0] = np.sum(d_phi * field.x_theta, axis=1)
    h_cross[:, 1, 1] = np.sum(d_phi * field.x_phi, axis=1)
    assert np.max(np.abs(h_cross - field.h)) <= 1e-7


def test_support_sphere_closed_form():
    # round sphere of radius pi/4: <x(xi), x_dual(xi')> = (cos gamma - 1)/2
    grid = build_grid(12)
    field = curvature_field(sphere_surface(np.pi / 4, L_max=12), grid)
    samples = gauss_map(field)
    st = np.sin(grid.theta)
    omega = np.stack([st * np.cos(grid.phi), st * np.sin(grid.phi),
                      np.cos(grid.theta)], axis=-1)
    rng = np.random.default_rng(5)
    i = rng.integers(0, grid.n_nodes, size=200)
    j = rng.integers(0, grid.n_nodes, size=200)
    dots = np.sum(field.x[i] * samples.x_dual[j], axis=1)
    cos_gamma = np.sum(omega[i] * omega[j], axis=1)
    assert np.max(np.abs(dots - (cos_gamma - 1.0) / 2.0)) <= 1e-12


def test_support_report_perturbed():
    rep = support_test(curvature_field(perturbed_surface(), build_grid(24)),
                       sample_count=10_000)
    assert rep.passed
    assert rep.max_off_diagonal < -1e-8
    assert rep.max_diagonal_abs <= 1e-12
    assert rep.pair_count == 10_000


def test_support_report_deterministic():
    field = curvature_field(sphere_surface(np.pi / 5, L_max=8), build_grid(8))
    a = support_test(field, 500, seed=3)
    b = support_test(field, 500, seed=3)
    assert a.max_off_diagonal == b.max_off_diagonal
    assert a.as_dict() == b.as_dict()


@pytest.mark.parametrize("build", [build_grid, build_folded_grid])
@pytest.mark.parametrize("pole", [E4, -E4, np.array([0.0, 0.0, 0.0, -1.0])])
def test_support_report_matches_a_fresh_draw(build, pole):
    surface = perturbed_surface(16)
    surface.pole = pole.copy()
    field = curvature_field(surface, build(16))
    rep = support_test(field, 2000, seed=7)
    # the pairs as drawn without the memo
    rng = np.random.default_rng(7)
    N = field.grid.n_nodes
    i = rng.integers(0, N, size=2000)
    j = rng.integers(0, N - 1, size=2000)
    j[j >= i] += 1
    assert np.array_equal(polar._support_pairs(N, 2000, 7), (i, j))
    off_diag = np.sum(field.x[i] * field.normal[j], axis=1)
    diag = np.abs(np.sum(field.x * field.normal, axis=1))
    assert rep.max_off_diagonal == float(off_diag.max())
    assert rep.max_diagonal_abs == float(diag.max())


def test_support_pairs_are_shared_and_read_only():
    i, j = polar._support_pairs(100, 50, 3)
    assert all(a is b for a, b in zip(polar._support_pairs(100, 50, 3),
                                      (i, j)))
    for a in (i, j):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert polar._support_pairs(100, 50, 4)[0] is not i
    assert polar._support_pairs(101, 50, 3)[0] is not i


def test_support_pair_memo_keeps_the_last_8_seeds():
    pairs = {seed: polar._support_pairs(100, 50, seed) for seed in range(10)}
    assert polar._support_pairs.cache_info().currsize == 8
    assert all(polar._support_pairs(100, 50, seed) is pairs[seed]
               for seed in range(2, 10))
    # seed 0 was evicted: its pairs are drawn anew, the same ones
    again = polar._support_pairs(100, 50, 0)
    assert again is not pairs[0]
    assert np.array_equal(again, pairs[0])


def test_support_report_rejects_nonconvex_field():
    c = HarmonicCoeffs.zeros(16)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[4, 0] = 0.22
    surf = geometry.GraphSurface(n=2, pole=E4.copy(), radial=c,
                                 gauge_tau0=geometry.default_gauge_tau0())
    with pytest.raises(ConvexityError):
        support_test(curvature_field(surf, build_grid(16)), 100)


def test_transfer_problem_mean():
    F = make_curvature_function("mean")
    f = np.full(7, 2.0)
    Fd, fd = transfer_problem(F, f)
    assert np.allclose(fd, 0.5)
    assert Fd(np.array([1.0, 1.0])) == pytest.approx(0.5, rel=1e-14)
    # round trip restores the original pair
    F2, f2 = transfer_problem(Fd, fd)
    assert F2 is F
    assert np.max(np.abs(f2 - f)) <= 1e-12


def test_transfer_rejects_bad_values():
    F = make_curvature_function("mean")
    with pytest.raises(DataError):
        transfer_problem(F, np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        transfer_problem(F, np.array([1.0, -2.0]))
    with pytest.raises(DataError):
        transfer_problem(F, np.array([1.0, np.nan]))


def test_transfer_consistent_with_dual_curvatures():
    # values of F on the source become values of the inverse function on
    # the dual, up to the numerical reciprocity error
    surf = perturbed_surface()
    grid = build_grid(surf.L_max)
    field = curvature_field(surf, grid)
    samples = gauss_map(field)
    F = make_curvature_function("gauss_power")
    f = F(field.kappa)
    Fd, fd = transfer_problem(F, f)
    dual_vals = Fd(samples.kappa_dual)
    assert np.max(np.abs(dual_vals - fd)) <= 1e-6
