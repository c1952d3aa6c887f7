import dataclasses
import re
import warnings

import numpy as np
import pytest

from curvedual.curvature import make_curvature_function
from curvedual.errors import ConvexityError, DataError, ResolutionError
from curvedual.geometry import curvature_field, sphere_surface
from curvedual.solver import PrescribedData, SolverOptions, continuation
from curvedual import polar
from curvedual.polar import (DualSamples, dual_as_graph, dual_surface,
                             fit_residual, gauss_map, support_test,
                             transfer_problem)
from curvedual.spectral import HarmonicCoeffs, analyze, basis_matrix, \
    build_folded_grid, build_grid, chart_jets
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


def _strong_degree_2_surface():
    # the first dual fit of this L 8 surface at sample_L 20 has no
    # certificate; the resample at 37 clears the Frobenius bound
    c = HarmonicCoeffs.zeros(8)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[2, 0] = 0.22
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
    grid = build_grid(16)
    field = curvature_field(sphere_surface(np.pi / 6, L_max=16), grid)
    dual = dual_as_graph(gauss_map(field), L_max=16)
    values = dual.radial.values
    a00 = values[0]
    assert abs(a00 - (np.pi / 3) * np.sqrt(4 * np.pi)) <= 1e-9
    assert np.max(np.abs(values[1:])) <= 1e-9
    assert np.allclose(dual.pole, -E4)


@pytest.mark.parametrize("radius", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_ball_polarity(radius):
    grid = build_grid(12)
    field = curvature_field(sphere_surface(radius, L_max=12), grid)
    dual = dual_as_graph(gauss_map(field), L_max=12)
    expect = (np.pi / 2 - radius) * np.sqrt(4 * np.pi)
    assert abs(dual.radial.values[0] - expect) <= 1e-9
    assert np.max(np.abs(dual.radial.values[1:])) <= 1e-9


def test_inclusion_reversal_for_balls():
    # smaller ball has the larger polar ball
    grid = build_grid(8)
    radii = []
    for r in (np.pi / 6, np.pi / 4):
        field = curvature_field(sphere_surface(r, L_max=8), grid)
        dual = dual_as_graph(gauss_map(field), L_max=8)
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
    dual = dual_as_graph(samples, L_max=32)
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


def test_degenerate_samples_rejected():
    grid = build_grid(8)
    field = curvature_field(sphere_surface(np.pi / 4, L_max=8), grid)
    s = gauss_map(field)
    rep = np.zeros(60, dtype=int)  # every sample at the same direction
    collapsed = DualSamples(theta=s.theta[rep], phi=s.phi[rep],
                            x_dual=s.x_dual[rep],
                            eta_theta=s.eta_theta[rep],
                            eta_phi=s.eta_phi[rep], r_star=s.r_star[rep],
                            kappa_dual=s.kappa_dual[rep], pole=s.pole,
                            weights=s.weights[rep])
    with pytest.raises(ResolutionError):
        dual_as_graph(collapsed, L_max=4)


def _no_lapack(*args, **kwargs):
    raise AssertionError("LAPACK called on non-finite samples")


@pytest.mark.parametrize("name", ["eta_theta", "eta_phi", "r_star",
                                  "weights"])
def test_nonfinite_samples_rejected(monkeypatch, name):
    # NaN input makes LAPACK's least squares print DLASCL errors and raise
    # a bare LinAlgError; the fit must stop before any factorization
    grid = build_grid(8)
    s = gauss_map(curvature_field(sphere_surface(np.pi / 4, L_max=8), grid))
    values = getattr(s, name).copy()
    values[17] = np.nan
    for solver in ("cholesky", "eigvalsh", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, solver, _no_lapack)
    with pytest.raises(ResolutionError, match="not finite"):
        dual_as_graph(dataclasses.replace(s, **{name: values}), L_max=4)


def _svd_fit(samples, L_max):
    # the weighted rows sqrt(w) B against sqrt(w) r_star, built as the
    # fit builds them
    root = np.sqrt(samples.weights)
    B = basis_matrix(L_max, samples.eta_theta, samples.eta_phi, root)
    return np.linalg.lstsq(B, root * samples.r_star, rcond=1e-12)[0]


def _squeezed_sphere_samples(factor):
    # scaling eta_theta pulls the dual directions toward the chart pole,
    # which raises the condition number of the fit; the weights stay
    grid = build_grid(8)
    s = gauss_map(curvature_field(sphere_surface(np.pi / 4, L_max=8), grid))
    return dataclasses.replace(s, eta_theta=factor * s.eta_theta)


@pytest.fixture(scope="module")
def bumpy_samples():
    # acceptance 03's first leg: the L 24 bumpy surface sampled at L 36
    return gauss_map(curvature_field(perturbed_surface().padded_to(36),
                                     build_grid(36)))


def test_well_conditioned_fit_uses_normal_equations(monkeypatch,
                                                     bumpy_samples):
    samples = bumpy_samples
    expect = _svd_fit(samples, 32)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD solve on a well-conditioned fit")

    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    coeffs = dual_as_graph(samples, L_max=32).radial.values
    assert np.max(np.abs(coeffs - expect)) <= 1e-12


def _modulated_solve(name, scale, L_max=24):
    # acceptance 06's modulated problem with its b times ``scale``
    b = HarmonicCoeffs.zeros(2)
    b[2, 0] = 0.4 / np.sqrt(6.0)
    b[2, 2] = 0.2 / np.sqrt(6.0)
    b[2, -1] = -0.2 / np.sqrt(6.0)
    data = PrescribedData(a_poly=[np.log(2.0)],
                          b=HarmonicCoeffs(2, scale * b.values), c=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mean's admissibility warning
        report = continuation(make_curvature_function(name), data,
                              SolverOptions(L_max=L_max))
    assert report.converged
    return report.final_surface


@pytest.fixture(scope="module")
def solve_output():
    # the canonical solve output: acceptance 06's problem solved at L 24
    return _modulated_solve("gauss_power", 1.0)


@pytest.fixture(scope="module")
def solve_output_samples(solve_output):
    # the first leg of the canonical solve output's dual, sampled at L 36
    return gauss_map(curvature_field(solve_output.padded_to(36),
                                     build_grid(36)))


def _no_solve(*args, **kwargs):
    raise AssertionError("LU or SVD solve on a certified fit")


@pytest.mark.parametrize("leg", ["bumpy_samples", "solve_output_samples"])
def test_first_leg_fit_is_cholesky_certified_cg(monkeypatch, request, leg):
    # ||A - I||_F is 3.4 (acceptance 03) and 1.46 (solve output): the
    # Frobenius bound cannot certify these fits, the shifted Cholesky
    # factor can, and conjugate gradients solve them with no LU or SVD
    samples = request.getfixturevalue(leg)
    root = np.sqrt(samples.weights)
    B = root[:, None] * basis_matrix(32, samples.eta_theta, samples.eta_phi)
    A = B.T @ B
    expect = np.linalg.lstsq(B, root * samples.r_star, rcond=None)[0]
    assert np.linalg.norm(A - np.eye(len(A))) > polar._FROBENIUS_MAX
    assert polar._certifies_normal_equations(A)
    for name in ("solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, _no_solve)
    coeffs = dual_as_graph(samples, L_max=32).radial.values
    assert np.max(np.abs(coeffs - expect)) <= 1e-12


def _forbid_svd(monkeypatch):
    # the fit has no SVD, LU or pseudo-inverse path left to fall back on
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD or LU solve in a dual fit")

    for name in ("lstsq", "svd", "pinv", "solve"):
        monkeypatch.setattr(np.linalg, name, no_svd)


def _record_densities(monkeypatch, change=lambda samples: samples):
    # the sample_L of every sampling in dual_surface, in order
    densities = []
    take = polar._samples

    def spy(surface, sample_L):
        densities.append(sample_L)
        return change(take(surface, sample_L))

    monkeypatch.setattr(polar, "_samples", spy)
    return densities


@pytest.fixture
def bumpy_surface():
    return perturbed_surface()


@pytest.mark.parametrize("source", ["solve_output", "bumpy_surface"])
def test_first_legs_are_not_resampled(monkeypatch, request, source):
    # both first legs are certified at the requested density, so the
    # samples are taken once and the fit runs the Cholesky-certified path
    surface = request.getfixturevalue(source)
    densities = _record_densities(monkeypatch)
    dual_surface(surface, L_max=32, sample_L=36)
    assert densities == [36]


def test_uncertified_fit_is_resampled_once(monkeypatch):
    # the dual of 3x the canonical modulation under the mean, solved at
    # L 24: at sample_L 36 no certificate clears the fit, so it is
    # resampled at ceil(36 sqrt(J_max)) = 59, where the refit clears the
    # Frobenius bound
    surface = _modulated_solve("mean", 3.0)
    lstsq = np.linalg.lstsq
    densities = _record_densities(monkeypatch)
    _forbid_svd(monkeypatch)
    dual = dual_surface(surface, L_max=32, sample_L=36)
    assert densities == [36, 59]
    # the least-squares solution at the resampled density
    samples = polar._samples(surface, 59)
    root = np.sqrt(samples.weights)
    B = basis_matrix(32, samples.eta_theta, samples.eta_phi, root)
    expect = lstsq(B, root * samples.r_star, rcond=None)[0]
    assert np.max(np.abs(dual.radial.values - expect)) <= 1e-12


def test_second_uncertified_fit_names_both_densities(monkeypatch):
    monkeypatch.setattr(polar, "_FROBENIUS_MAX", -1.0)
    monkeypatch.setattr(polar, "_certifies_normal_equations",
                        lambda A: False)
    message = (r"^dual graph fit at L_max 16 has no certificate at "
               r"sample_L 20, nor after one resample at sample_L 37$")
    with pytest.raises(ResolutionError, match=message) as info:
        dual_surface(_strong_degree_2_surface(), L_max=16, sample_L=20)
    assert type(info.value) is ResolutionError


def test_nonfinite_samples_are_not_resampled(monkeypatch):
    densities = _record_densities(
        monkeypatch, lambda s: dataclasses.replace(
            s, r_star=np.full_like(s.r_star, np.nan)))
    with pytest.raises(ResolutionError, match="not finite"):
        dual_surface(sphere_surface(np.pi / 4, L_max=8))
    assert densities == [20]


def test_cg_short_of_tolerance_raises(monkeypatch, caplog):
    # a Frobenius-certified fit whose conjugate gradients cannot reach
    # the tolerance within n steps is uncertified: it raises, with no SVD
    samples = gauss_map(curvature_field(perturbed_surface(L_max=8),
                                        build_grid(8)))
    monkeypatch.setattr(polar, "_CG_TOL", 1e-300)
    _forbid_svd(monkeypatch)
    with caplog.at_level("DEBUG", logger="curvedual.polar"), \
            pytest.raises(polar._UncertifiedFit,
                          match=r"CG steps 49 short of tolerance$"):
        dual_as_graph(samples, L_max=6)
    assert re.search(r"\|\|A - I\|\|_F <= \S+, CG steps 49 short of "
                     r"tolerance$", caplog.text)


def test_dual_fit_logs_its_path(caplog):
    fits = [(_squeezed_sphere_samples(1.0),
             r"\|\|A - I\|\|_F <= \S+, CG steps \d+$"),
            (_squeezed_sphere_samples(0.7),
             r"shifted Cholesky, CG steps \d+, refinement steps \d+$"),
            (_squeezed_sphere_samples(0.5), r"no certificate$")]
    with caplog.at_level("DEBUG", logger="curvedual.polar"):
        for samples, _ in fits[:2]:
            dual_as_graph(samples, L_max=6)
        with pytest.raises(ResolutionError, match="no certificate$"):
            dual_as_graph(fits[2][0], L_max=6)
        # an uncertified fit is resampled once, and the refit is logged
        dual_surface(_strong_degree_2_surface(), L_max=16, sample_L=20)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "curvedual.polar"]
    assert len(lines) == len(fits) + 3
    for line, (_, pattern) in zip(lines, fits):
        assert line.startswith("dual graph fit: 153 samples, L_max=6, ")
        assert re.search(pattern, line), line
    assert lines[3] == "dual graph fit: 861 samples, L_max=16, no certificate"
    assert lines[4] == ("dual graph fit uncertified at sample_L=20; "
                        "resampling at sample_L=37")
    assert re.fullmatch(r"dual graph fit: 2850 samples, L_max=16, "
                        r"\|\|A - I\|\|_F <= \S+, CG steps \d+", lines[5])


def test_ill_conditioned_fit_raises(monkeypatch):
    samples = _squeezed_sphere_samples(0.5)  # condition number 6.0e4
    _forbid_svd(monkeypatch)
    with pytest.raises(polar._UncertifiedFit, match="no certificate"):
        dual_as_graph(samples, L_max=6)


def test_fit_above_1e3_never_takes_normal_equations(monkeypatch):
    # kappa_2 = 1.07e3: the unshifted Gram matrix has a Cholesky factor,
    # so only the shift keeps this fit off the normal equations
    samples = _squeezed_sphere_samples(0.65)
    _forbid_svd(monkeypatch)
    with pytest.raises(polar._UncertifiedFit, match="no certificate"):
        dual_as_graph(samples, L_max=6)


def test_fit_below_certified_bound_uses_normal_equations(monkeypatch):
    # kappa_2 = 319, below the certified bound of about 670 at this size;
    # ||A - I||_F is 4.6, so the fit is not near the identity either
    samples = _squeezed_sphere_samples(0.7)
    expect = _svd_fit(samples, 6)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD solve on a certified fit")

    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    coeffs = dual_as_graph(samples, L_max=6).radial.values
    assert np.max(np.abs(coeffs - expect)) <= 1e-10


def test_fit_above_condition_limit_rejected(monkeypatch):
    # condition number 1.6e10, far past what either certificate clears
    samples = _squeezed_sphere_samples(0.2)
    _forbid_svd(monkeypatch)
    message = (r"^dual graph fit at L_max 6 is uncertified at 153 samples: "
               r"no certificate$")
    with pytest.raises(polar._UncertifiedFit, match=message):
        dual_as_graph(samples, L_max=6)


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
