"""Tests for the cross-check diagnostics."""

import numpy as np
import pytest

from curvedual.curvature import make_curvature_function
from curvedual.errors import DataError, DomainError
from curvedual.geometry import (GraphSurface, curvature_field,
                                offset_sphere_surface, sphere_surface)
from curvedual.polar import dual_surface
from curvedual.solver import PrescribedData, SolverOptions, continuation
from curvedual.spectral import (HarmonicCoeffs, analyze, build_grid,
                                synthesize)
from curvedual.validation import (DiagnosticsReport, enclosing_balls,
                                  full_report, steiner_point,
                                  stereographic_residual)

GAUSS = make_curvature_function("gauss_power")


def sampled(surface):
    return curvature_field(surface, build_grid(surface.L_max))


def perturbed_surface(L_max=24):
    c = HarmonicCoeffs.zeros(L_max)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[2, 0] = 0.05
    c[4, 0] = 0.02 / np.sqrt(3.0)
    c[4, 2] = 0.02 / np.sqrt(3.0)
    c[4, -2] = 0.02 / np.sqrt(3.0)
    return GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]), radial=c,
                        gauge_tau0=0.0)


# --------------------------------------------------------- steiner point

def test_steiner_point_centered_sphere_vanishes():
    p = steiner_point(sampled(sphere_surface(np.pi / 4)))
    assert np.linalg.norm(p) <= 1e-10


def test_steiner_point_invariant_surface_vanishes():
    p = steiner_point(sampled(perturbed_surface()))
    assert np.linalg.norm(p) <= 1e-8


def test_steiner_point_offset_sphere_closed_form():
    # the stereographic image of an off-axis geodesic sphere is a round
    # Euclidean sphere; the Steiner point is its center, on the tilt
    # axis at tan((tilt + radius)/2) + tan((tilt - radius)/2)
    tilted = offset_sphere_surface(np.pi / 4, 0.15)
    p = steiner_point(sampled(tilted))
    expected = np.array([0.17623690488053817, 0.0, 0.0])
    assert np.max(np.abs(p - expected)) <= 1e-6
    assert np.linalg.norm(p) > 0.1


def test_steiner_point_follows_tilt_direction():
    tilted = offset_sphere_surface(np.pi / 4, 0.15, direction=(0.0, 0.0, 1.0))
    p = steiner_point(sampled(tilted))
    assert abs(p[2] - 0.17623690488053817) <= 1e-6
    assert np.max(np.abs(p[:2])) <= 1e-8


def test_offset_sphere_guards():
    with pytest.raises(DomainError, match="inside the ball"):
        offset_sphere_surface(np.pi / 6, 0.6)
    with pytest.raises(DomainError, match="hemisphere"):
        offset_sphere_surface(np.pi / 3, 0.6)


def test_offset_sphere_radial_range():
    s = offset_sphere_surface(np.pi / 4, 0.15, L_max=16)
    r = synthesize(build_grid(16), s.radial)
    assert r.min() >= np.pi / 4 - 0.15 - 1e-9
    assert r.max() <= np.pi / 4 + 0.15 + 1e-9


# ------------------------------------------------------- enclosing balls

def test_enclosing_balls_sphere():
    rin, rout = enclosing_balls(sampled(sphere_surface(np.pi / 3)))
    assert rin == pytest.approx(np.pi / 3, abs=1e-12)
    assert rout == pytest.approx(np.pi / 3, abs=1e-12)


def test_enclosing_balls_bracket_radial_values():
    surf = perturbed_surface()
    rin, rout = enclosing_balls(sampled(surf))
    r = synthesize(build_grid(24), surf.radial)
    assert rin == pytest.approx(r.min(), abs=1e-14)
    assert rout == pytest.approx(r.max(), abs=1e-14)
    assert 0.0 < rin < rout < np.pi / 2


def test_enclosing_balls_reverse_under_duality():
    # polarity reflects the radial range onto [pi/2 - r_out, pi/2 - r_in];
    # exact for the continuum extremes, so node extremes match up to the
    # sampling gap of each grid
    surf = perturbed_surface()
    rin, rout = enclosing_balls(sampled(surf))
    din, dout = enclosing_balls(sampled(dual_surface(surf)))
    slack = 3e-4
    assert din >= np.pi / 2 - rout - slack
    assert dout <= np.pi / 2 - rin + slack
    assert abs((np.pi / 2 - din) - rout) <= slack
    assert abs((np.pi / 2 - dout) - rin) <= slack


# --------------------------------------------------------- stereographic

def test_stereographic_residual_sphere_exact():
    assert stereographic_residual(sampled(sphere_surface(0.7))) <= 1e-10


def test_stereographic_residual_smooth_surface():
    assert stereographic_residual(sampled(perturbed_surface())) <= 1e-6


def test_stereographic_residual_offset_sphere():
    field = sampled(offset_sphere_surface(np.pi / 4, 0.15))
    assert stereographic_residual(field) <= 1e-6


# ----------------------------------------------------------- full report

def test_full_report_solved_sphere():
    rep = full_report(sampled(sphere_surface(np.pi / 4)), F=GAUSS, f=2.0)
    assert rep.convex
    assert rep.steiner_magnitude <= 1e-10
    assert rep.ball_radii[0] == pytest.approx(np.pi / 4, abs=1e-12)
    assert rep.bound_check[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.curvature_within_brackets
    assert rep.stereographic_residual <= 1e-10
    assert rep.support_margin < 0.0
    assert rep.residual_stats["max_abs"] <= 1e-12


def test_full_report_refuses_the_folded_run_grid():
    # the antipodal run grid holds the northern half only; the odd
    # integrand of the Steiner point would sum to a nonzero value there
    b = HarmonicCoeffs.zeros(2)
    b[2, 0] = 0.1
    data = PrescribedData(a_poly=[np.log(2.0)], b=b, c=1.0)
    report = continuation(GAUSS, data, opts=SolverOptions(L_max=8))
    assert report.converged and report.grid.folded
    surface = report.final_surface
    folded = curvature_field(surface, report.grid)
    with pytest.raises(ValueError, match="whole sphere"):
        full_report(folded, F=GAUSS, f=data)
    with pytest.raises(ValueError, match="whole sphere"):
        analyze(report.grid, folded.r)
    rep = full_report(sampled(surface), F=GAUSS, f=data)
    assert rep.steiner_magnitude <= 1e-10
    assert rep.residual_stats["max_abs"] <= 1e-8


def test_full_report_without_equation_data():
    rep = full_report(sampled(perturbed_surface()))
    assert rep.residual_stats is None
    assert rep.convex
    assert rep.support_margin < 0.0


def test_full_report_flags_nonconvex_input():
    c = HarmonicCoeffs.zeros(16)
    c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
    c[4, 0] = 0.22
    surf = GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]), radial=c,
                        gauge_tau0=0.0)
    rep = full_report(sampled(surf))
    assert not rep.convex
    assert rep.bound_check[0] <= 0.0
    assert not rep.curvature_within_brackets
    assert np.isnan(rep.stereographic_residual)
    assert np.isnan(rep.support_margin)


def test_full_report_builds_no_operators(grid_table_builds):
    # every diagnostic reads the field it is given
    field = sampled(perturbed_surface(L_max=8))
    grid_table_builds.clear()
    rep = full_report(field, F=GAUSS, f=2.0)
    assert rep.convex and rep.support_margin < 0.0
    assert grid_table_builds == []


def test_full_report_residual_data_shapes():
    field = sampled(sphere_surface(np.pi / 4, L_max=8))
    per_node = np.full(field.grid.n_nodes, 2.0)
    rep = full_report(field, F=GAUSS, f=per_node)
    assert rep.residual_stats == full_report(field, F=GAUSS,
                                             f=2.0).residual_stats
    with pytest.raises(DataError, match="does not match"):
        full_report(field, F=GAUSS, f=per_node[:-1])


def test_full_report_dict_keys():
    rep = full_report(sampled(sphere_surface(np.pi / 4)), F=GAUSS, f=2.0)
    d = rep.as_dict()
    expected = {"steiner_point", "steiner_magnitude", "ball_radii",
                "bound_check", "convex", "curvature_within_brackets",
                "stereographic_residual", "support_margin", "residual_stats"}
    assert expected <= set(d)
    assert isinstance(d["steiner_point"], list)


def test_report_bracket_logic():
    rep = DiagnosticsReport(
        steiner_point=np.zeros(3), steiner_magnitude=0.0,
        ball_radii=(0.5, 0.6), bound_check=(5e-4, 10.0), convex=True,
        stereographic_residual=0.0, support_margin=-0.1)
    assert not rep.curvature_within_brackets
