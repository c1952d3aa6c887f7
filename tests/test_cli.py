"""End-to-end command line tests driven through ``main(argv)``."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvedual import HarmonicCoeffs, build_grid, sphere_surface, synthesize
from curvedual import _kernels, cli, geometry, polar, spectral, validation
from curvedual.cli import main, parse_config
from curvedual.errors import ConfigError, ResolutionError
from curvedual.geometry import GraphSurface
from curvedual.io import read_surface, write_surface

LOG2 = math.log(2.0)
TWO_GROUPS = 'group must be "antipodal" or "trivial"'


# every key set, and "c" given so that parsing never samples min f
FUZZ_BASE = {"F": "gauss_power", "L_max": 12, "group": "antipodal",
             "f": {"a_poly": [LOG2], "b": [{"l": 2, "m": 0, "value": 0.1}]},
             "c": 1.0, "tol": 1e-10}
FUZZ_PATHS = ([(key,) for key in sorted(FUZZ_BASE)]
              + [("f", "a_poly"), ("f", "b"), ("f", "b", 0),
                 ("f", "b", 0, "l"), ("f", "b", 0, "m"),
                 ("f", "b", 0, "value")])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)


def write_config(path, **overrides):
    doc = {"F": "gauss_power", "L_max": 12, "f": {"a_poly": [LOG2]},
           "c": 1.0}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        F, data, opts, antipodal = parse_config(
            {"F": "gauss_power", "f": {"a_poly": [LOG2]}, "c": 1.0})
        assert F.name == "gauss_power"
        assert (opts.L_max, opts.tol) == (24, 1e-10)
        assert antipodal is True

    def test_default_base_constant_below_min(self):
        F, data, opts, antipodal = parse_config(
            {"F": "mean", "f": {"a_poly": [LOG2]}})
        assert data.c == pytest.approx(0.9 * 2.0, abs=1e-12)

    def test_modulation_entries(self):
        F, data, opts, antipodal = parse_config(
            {"F": "gauss_power",
             "f": {"a_poly": [LOG2], "b": [{"l": 2, "m": 0, "value": 0.1}]},
             "c": 1.0})
        assert data.b[2, 0] == 0.1

    def test_rejects_unknown_root_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config({"F": "mean", "f": {"a_poly": [1.0]}, "c": 0.5,
                          "steps": 10})

    def test_rejects_unknown_f_key(self):
        with pytest.raises(ConfigError, match='under "f"'):
            parse_config({"F": "mean", "f": {"a_poly": [1.0], "w": 2},
                          "c": 0.5})

    def test_requires_both_core_keys(self):
        with pytest.raises(ConfigError, match="requires"):
            parse_config({"F": "mean"})

    def test_custom_group_matrices(self):
        # {I} and {I, -I} are the only groups that act freely, so an
        # element list is refused even where it spells one of them
        eye = np.eye(3).tolist()
        neg = (-np.eye(3)).tolist()
        with pytest.raises(ConfigError, match='"antipodal" or "trivial"'):
            parse_config({"F": "gauss_power", "f": {"a_poly": [LOG2]},
                          "c": 1.0, "group": {"matrices": [eye, neg]}})

    def test_trivial_group(self):
        F, data, opts, antipodal = parse_config(
            {"F": "gauss_power", "f": {"a_poly": [LOG2]}, "c": 1.0,
             "group": "trivial"})
        assert antipodal is False

    def test_integral_floats_accepted(self):
        F, data, opts, antipodal = parse_config(
            {"F": "gauss_power", "L_max": 8.0,
             "f": {"a_poly": [LOG2], "b": [{"l": 2.0, "m": 0, "value": 1}]},
             "c": 1.0})
        assert opts.L_max == 8 and type(opts.L_max) is int
        assert data.b[2, 0] == 1.0

    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
    def test_fuzzed_value_returns_or_raises_config_error(self, path, value):
        doc = copy.deepcopy(FUZZ_BASE)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            F, data, opts, antipodal = parse_config(doc)
        except ConfigError:
            return
        assert type(opts.L_max) is int and opts.L_max >= 4
        assert type(opts.tol) is float and 0.0 <= opts.tol < math.inf
        assert type(data.c) is float


class TestSolveCommand:
    def test_constant_data_reaches_sphere(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        for name in ("solution_surface.json", "continuation_report.json",
                     "solution_nodes.csv"):
            assert (out / name).exists()
        surface = read_surface(out / "solution_surface.json")
        u = synthesize(build_grid(surface.L_max), surface.radial)
        assert np.max(np.abs(u - np.pi / 4)) <= 1e-9
        report = json.loads((out / "continuation_report.json").read_text())
        assert report["status"] == "converged"
        assert report["steps"][-1]["t"] == 1.0

    def test_reports_progress(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "status: converged" in text
        assert "t reached: 1" in text

    def test_base_constant_above_min_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", c=2.5)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "must be strictly below" in err

    def test_nonfinite_radial_polynomial_without_c_fails_cleanly(
            self, tmp_path, capsys):
        # the default c takes min f, whose critical points of a_poly are
        # not sought for a non-finite polynomial
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"F": "gauss_power", "L_max": 8,
                                    "f": {"a_poly": [0.0, 0.0, math.nan,
                                                     1.0]}}))
        rc = main(["solve", "--config", str(path), "--out",
                   str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: radial polynomial has non-finite " \
            "coefficients\n"

    def test_overflowing_data_without_c_fails_cleanly(self, tmp_path,
                                                      capsys):
        # f overflows on finite coefficients, so 0.9 min f is no default
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"F": "gauss_power", "L_max": 8,
                                    "f": {"a_poly": [1e308, 1e308]}}))
        rc = main(["solve", "--config", str(path), "--out",
                   str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err == \
            'error: min f is not finite, so "c" has no default; set "c"\n'

    def test_unknown_key_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"F": "mean", "f": {"a_poly": [1.0]},
                                    "c": 0.5, "mystery": 1}))
        rc = main(["solve", "--config", str(path), "--out",
                   str(tmp_path / "r")])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"F": "nope"}, "unknown curvature function"),
        ({"L_max": 3}, "L_max must be at least 4"),
        ({"tol": "x"}, '"tol" must be numeric'),
        ({"tol": None}, '"tol" must be numeric'),
        ({"L_max": "a"}, '"L_max" must be numeric'),
        ({"c": "z"}, '"c" must be numeric'),
        # a retired setting is an unknown key, whatever its value
        ({"n": "x"}, "unknown config keys: ['n']"),
        ({"f": {"a_poly": "q"}}, "f.a_poly must be numeric"),
        # L_max is 12; one even degree above the truncation
        ({"f": {"a_poly": [LOG2], "b": [{"l": 14, "m": 0, "value": 0.1}]}},
         "degree 14 above L_max = 12"),
        ({"F": "sigma_2", "n": 3}, "unknown config keys: ['n']"),
        ({"group": {"matrices": "x"}}, TWO_GROUPS),
        # the step rule and the Newton budget are fixed, not settings
        ({"dt0": 0}, "unknown config keys: ['dt0']"),
        ({"dt_min": -1e-3}, "unknown config keys: ['dt_min']"),
        ({"dt_max": 0.0}, "unknown config keys: ['dt_max']"),
        ({"dt0": 0.25, "dt_max": 0.5},
         "unknown config keys: ['dt0', 'dt_max']"),
        ({"max_newton": 25}, "unknown config keys: ['max_newton']"),
        # nothing is truncated or parsed from a string
        ({"L_max": 12.7}, '"L_max" must be an integer'),
        ({"n": 2}, "unknown config keys: ['n']"),
        ({"max_newton": True}, "unknown config keys: ['max_newton']"),
        ({"tol": "1e-3"}, '"tol" must be numeric'),
        ({"f": {"a_poly": [LOG2], "b": [{"l": 2.5, "m": 0, "value": 0.1}]}},
         "f.b l must be an integer"),
        ({"f": {"a_poly": [True]}}, "f.a_poly must be numeric"),
        ({"group": {"matrices": [1.0]}}, TWO_GROUPS),
        # non-finite data and tolerances
        ({"L_max": 8, "f": {"a_poly": [LOG2],
                            "b": [{"l": 2, "m": 0, "value": math.nan}]}},
         "angular field has non-finite coefficients"),
        ({"c": math.nan}, "constant must be positive and finite"),
        ({"tol": math.inf}, '"tol" must be finite and nonnegative'),
        ({"tol": math.nan}, '"tol" must be finite and nonnegative'),
        ({"tol": -1}, '"tol" must be finite and nonnegative'),
        # the line search's curvature band is fixed, not a setting
        ({"kappa_floor": 1e-4}, "unknown config keys: ['kappa_floor']"),
        ({"kappa_floor": 0}, "unknown config keys: ['kappa_floor']"),
        ({"kappa_floor": 1e-4, "kappa_ceil": 1e4},
         "unknown config keys: ['kappa_ceil', 'kappa_floor']"),
        ({"kappa_ceil": 1e4}, "unknown config keys: ['kappa_ceil']"),
        ({"kappa_ceil": math.inf}, "unknown config keys: ['kappa_ceil']"),
        ({"kappa_floor": math.nan}, "unknown config keys: ['kappa_floor']"),
        # a repeated pair would overwrite the first value
        ({"f": {"a_poly": [LOG2], "b": [{"l": 2, "m": 0, "value": 0.1},
                                        {"l": 2, "m": 0, "value": 0.2}]}},
         "harmonic entry (l=2, m=0) is repeated"),
        # the element-list form is gone, whatever the elements
        ({"group": {"matrices": [np.eye(3).tolist(), (-np.eye(3)).tolist(),
                                 (-np.eye(3)).tolist()]}},
         TWO_GROUPS),
        # the radial polynomial is a nonempty list of numbers
        ({"f": {"a_poly": []}}, "a_poly must be a nonempty 1-D list"),
        ({"f": {"a_poly": [[0.7]]}}, "a_poly must be a nonempty 1-D list"),
        # a start sphere at the hemisphere boundary; the error names c
        ({"c": 1e-300}, "c = 1e-300 gives a start sphere of radius "
                        "1.5707963267948966, outside (0, pi/2)"),
    ])
    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys,
                                            overrides, message):
        cfg = write_config(tmp_path / "config.json", **overrides)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_failure_at_t0_reports_and_exits_2(self, tmp_path, capsys):
        # no iterate meets tol = 0: the start sphere's line search fails
        cfg = write_config(tmp_path / "config.json", L_max=8, tol=0)
        out = tmp_path / "r"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "status: failed" in captured.out
        assert "t = 0 solve failed: line search failed after 20 halvings " \
            "at t = 0" in captured.err
        report = json.loads((out / "continuation_report.json").read_text())
        assert report["status"] == "failed" and report["steps"] == []
        for name in ("solution_surface.json", "solution_nodes.csv"):
            assert (out / name).exists()

    def test_broken_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        rc = main(["solve", "--config", str(path), "--out",
                   str(tmp_path / "r")])
        assert rc == 1

    def test_solve_builds_operators_once(self, tmp_path, grid_shape_builds):
        # the Newton solves and the step records use the folded run grid,
        # solution_nodes.csv the full grid; each distinct grid is built once
        cfg = write_config(tmp_path / "config.json", L_max=8)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 0
        assert grid_shape_builds == [(8, 5, 18), (8, 9, 17)]
        rows = (tmp_path / "r" / "solution_nodes.csv").read_text()
        assert len(rows.splitlines()) == 1 + 9 * 17

    def test_trivial_group_solves_and_writes_on_one_grid(self, tmp_path,
                                                         grid_shape_builds):
        cfg = write_config(tmp_path / "config.json", L_max=8,
                           group="trivial")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 0
        assert grid_shape_builds == [(8, 9, 17)]

    def test_degree_one_data_under_trivial_group_exits_2(self, tmp_path,
                                                          capsys):
        # the degree-1 near-kernel is left out of every Newton step, so
        # data with degree-1 content cannot be met from the centred sphere
        cfg = write_config(tmp_path / "config.json", L_max=8,
                           group="trivial",
                           f={"a_poly": [LOG2],
                              "b": [{"l": 1, "m": 0, "value": 0.05}]})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line search failed after 20 halvings" in err
        assert "the base left out 3 near-zero degree-diagonal entries" in err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("solution_surface.json", "continuation_report.json",
                     "solution_nodes.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestDualCommand:
    def test_sphere_dualizes_to_complementary_radius(self, tmp_path):
        surface = sphere_surface(np.pi / 6, L_max=12)
        src = tmp_path / "surface.json"
        write_surface(src, surface)
        out = tmp_path / "dual"
        rc = main(["dual", "--surface", str(src), "--out", str(out)])
        assert rc == 0
        dual = read_surface(out / "dual_surface.json")
        u = synthesize(build_grid(dual.L_max), dual.radial)
        assert np.max(np.abs(u - np.pi / 3)) <= 1e-8
        report = json.loads((out / "duality_report.json").read_text())
        assert report["reciprocity_max_error"] <= 1e-8
        assert (out / "dual_samples.csv").exists()

    def test_transfer_residual_with_config(self, tmp_path):
        surface = sphere_surface(np.pi / 4, L_max=12)
        src = tmp_path / "surface.json"
        write_surface(src, surface)
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "dual"
        rc = main(["dual", "--surface", str(src), "--config", cfg,
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "duality_report.json").read_text())
        # the pi/4 sphere solves f = 2, so the transferred problem is
        # solved exactly by its polar dual
        assert report["transfer_residual_max"] <= 1e-8

    def test_bad_config_fails_before_fitting(self, tmp_path, capsys,
                                             monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("dual fit ran before the config was parsed")

        monkeypatch.setattr(cli, "dual_surface", no_fit)
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=12))
        cfg = write_config(tmp_path / "config.json", F="nope")
        rc = main(["dual", "--surface", str(src), "--config", cfg,
                   "--out", str(tmp_path / "dual")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown curvature function")

    def test_rejects_nonconvex_surface(self, tmp_path, capsys):
        radial = HarmonicCoeffs.zeros(16)
        radial[0, 0] = (np.pi / 4) * math.sqrt(4.0 * np.pi)
        radial[4, 0] = 0.22
        surface = GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]),
                               radial=radial, gauge_tau0=-2.3)
        src = tmp_path / "surface.json"
        write_surface(src, surface)
        rc = main(["dual", "--surface", str(src), "--out",
                   str(tmp_path / "dual")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("message", [
        "dual graph fit is ill conditioned (condition number 2e+08); "
        "raise the sampling grid density",
        "dual samples are not finite; the source surface cannot be fitted"])
    def test_numerical_fit_failure_exits_2(self, tmp_path, capsys,
                                           monkeypatch, message):
        def failing_fit(*args, **kwargs):
            raise ResolutionError(message)

        monkeypatch.setattr(polar, "dual_as_graph", failing_fit)
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=12))
        rc = main(["dual", "--surface", str(src), "--out",
                   str(tmp_path / "dual")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_dual_op_factors_nothing(self, tmp_path, monkeypatch):
        # a warm op, with every factorization and the points x coefficients
        # basis matrix made to raise; the first op builds its grids, whose
        # Gauss-Legendre nodes are companion-matrix eigenvalues
        def refused(*args, **kwargs):
            raise AssertionError("factorization or basis matrix in a dual op")

        surface = sphere_surface(np.pi / 4, L_max=12)
        surface.radial[2, 0] = 0.05
        surface.radial[3, 1] = 0.01
        src = tmp_path / "surface.json"
        write_surface(src, surface)
        argv = ["dual", "--surface", str(src), "--out", str(tmp_path / "dual")]
        assert main(argv) == 0
        for name in ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                     "lstsq", "pinv", "qr", "solve", "svd"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(spectral, "basis_matrix", refused)
        assert main(argv) == 0

    def test_support_points_not_converging_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        # one Newton step from the coarse start leaves the support points
        # of the first leg short of the step tolerance
        monkeypatch.setattr(polar, "_NEWTON_STEPS", 1)
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=12))
        rc = main(["dual", "--surface", str(src), "--out",
                   str(tmp_path / "dual")])
        assert rc == 2
        assert re.fullmatch(r"error: support points of \d+ dual directions "
                            r"did not converge in 1 Newton steps\n",
                            capsys.readouterr().err)


class TestCheckCommand:
    def test_solved_surface_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["check", "--surface", str(out / "solution_surface.json"),
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["convex"] is True
        assert (out / "check_report.json").exists()
        assert (out / "residuals.csv").exists()

    def test_check_builds_operators_once(self, tmp_path, capsys,
                                         grid_table_builds):
        # one field feeds every diagnostic and residuals.csv
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "check"
        rc = main(["check", "--surface", str(src), "--config", cfg,
                   "--out", str(out)])
        assert rc == 0
        assert (out / "residuals.csv").exists()
        assert grid_table_builds == [8]

    def test_second_check_reuses_node_geometry_and_pairs(
            self, tmp_path, capsys, monkeypatch):
        # node geometry, pole frames and support pairs are built by the
        # first check of an L_max and shared by every later one
        calls = []
        frame_fields = _kernels._frame_fields
        default_rng = np.random.default_rng

        def spy(name, fn):
            def recording(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return recording

        monkeypatch.setattr(_kernels, "_frame_fields",
                            spy("_frame_fields", frame_fields))
        monkeypatch.setattr(np.random, "default_rng",
                            spy("default_rng", default_rng))
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        argv = ["check", "--surface", str(src), "--out", str(tmp_path / "c")]
        assert main(argv) == 0
        assert calls == ["_frame_fields", "default_rng"]
        first = capsys.readouterr().out
        misses = geometry._pole_frame.cache_info().misses
        calls.clear()
        assert main(argv) == 0
        assert calls == []
        assert geometry._pole_frame.cache_info().misses == misses
        assert capsys.readouterr().out == first

    def test_check_evaluates_the_residual_once(self, tmp_path, capsys,
                                               monkeypatch):
        # the report keeps the node residual behind residual_stats, and
        # residuals.csv is written from it
        calls = []
        data_on_field = validation.data_on_field

        def counting(*args, **kwargs):
            calls.append(args)
            return data_on_field(*args, **kwargs)

        monkeypatch.setattr(validation, "data_on_field", counting)
        monkeypatch.setattr(cli, "data_on_field", counting)
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "check"
        rc = main(["check", "--surface", str(src), "--config", cfg,
                   "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1
        assert (out / "residuals.csv").exists()

    def test_nested_radial_polynomial_fails_cleanly(self, tmp_path, capsys):
        # read as a 2-D coefficient array it gave a wrong residual and
        # then a traceback while writing residuals.csv
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        cfg = write_config(tmp_path / "config.json",
                           f={"a_poly": [[LOG2, 0.1]]})
        out = tmp_path / "check"
        rc = main(["check", "--surface", str(src), "--config", cfg,
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a_poly must be a nonempty 1-D " \
            "list of coefficients, got shape (1, 2)\n"
        assert not out.exists()

    def test_off_center_surface_fails(self, tmp_path, capsys):
        # an odd-degree term moves the enclosed center off the origin,
        # which the center diagnostic must catch
        radial = HarmonicCoeffs.zeros(12)
        radial[0, 0] = (np.pi / 4) * math.sqrt(4.0 * np.pi)
        radial[1, 0] = 1e-3
        surface = GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]),
                               radial=radial, gauge_tau0=-2.3)
        src = tmp_path / "surface.json"
        write_surface(src, surface)
        rc = main(["check", "--surface", str(src)])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["steiner_magnitude"] > 1e-8

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        rc = main(["check", "--surface", str(src), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: --seed must be nonnegative, got -1\n"
        assert captured.out == ""

    def test_without_config_skips_residuals(self, tmp_path, capsys):
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=12))
        rc = main(["check", "--surface", str(src)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "residual_stats" not in doc

    @pytest.mark.parametrize("key, value", [
        ("n", 3), ("pole", [0, 0, 0, 2]), ("L_max", 2)])
    def test_surface_that_cannot_be_sampled_fails_cleanly(
            self, tmp_path, capsys, key, value):
        doc = json.loads(json.dumps(
            {"n": 2, "pole": [0, 0, 0, 1], "L_max": 8, "gauge_tau0": -2.3,
             "radial": [{"l": 0, "m": 0, "value": 2.78}]}))
        doc[key] = value
        src = tmp_path / "surface.json"
        src.write_text(json.dumps(doc))
        rc = main(["check", "--surface", str(src)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: surface needs n = 2")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["dual", "check"])
@pytest.mark.parametrize("key, value", [
    ("value", math.nan), ("value", math.inf), ("gauge_tau0", math.nan)])
def test_non_finite_surface_fails_cleanly(tmp_path, capsys, command, key,
                                          value):
    # json reads the NaN and Infinity tokens; the file must still be refused
    doc = {"n": 2, "pole": [0, 0, 0, 1], "L_max": 8, "gauge_tau0": -2.3,
           "radial": [{"l": 0, "m": 0, "value": 2.78},
                      {"l": 2, "m": 0, "value": 0.0}]}
    if key == "value":
        doc["radial"][1]["value"] = value
    else:
        doc[key] = value
    src = tmp_path / "surface.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--surface", str(src)]
    if command != "check":
        argv += ["--out", str(out)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "must be finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 100000,  # nested deeper than the JSON parser recurses
    b"1" * 5000,  # an integer past Python's digit limit for int()
], ids=["non-utf-8", "deep-nesting", "long-integer"])
@pytest.mark.parametrize("argv", [
    ["solve", "--config", "BAD", "--out", "OUT"],
    ["dual", "--surface", "BAD", "--out", "OUT"],
    ["dual", "--surface", "GOOD", "--config", "BAD", "--out", "OUT"],
    ["check", "--surface", "BAD"],
    ["check", "--surface", "GOOD", "--config", "BAD"],
], ids=["solve-config", "dual-surface", "dual-config", "check-surface",
        "check-config"])
def test_unreadable_json_fails_cleanly(tmp_path, capsys, argv, content):
    bad, good, out = tmp_path / "bad.json", tmp_path / "good.json", \
        tmp_path / "out"
    bad.write_bytes(content)
    write_surface(good, sphere_surface(np.pi / 4, L_max=8))
    paths = {"BAD": str(bad), "GOOD": str(good), "OUT": str(out)}
    rc = main([paths.get(arg, arg) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: invalid JSON in {bad}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, key, L_max", [
    ("check", "--surface", 10**9), ("solve", "--config", 10**18)])
def test_input_too_large_for_memory_fails_cleanly(tmp_path, capsys, command,
                                                  key, L_max):
    # the first allocation of each asks for about 8e18 bytes (the surface's
    # coefficient vector, the solve's Gauss-Legendre setup), beyond any
    # address space, so it fails at once without touching memory
    if command == "check":
        doc = {"n": 2, "pole": [0, 0, 0, 1], "L_max": L_max,
               "gauge_tau0": -2.3, "radial": [{"l": 0, "m": 0, "value": 2.78}]}
    else:
        doc = {"F": "gauss_power", "L_max": L_max, "f": {"a_poly": [LOG2]},
               "c": 1.0}
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    argv = [command, key, str(src)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: input too large for memory")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "dual", "check"])
def test_underflowing_data_without_c_names_min_f(tmp_path, capsys, command):
    # f is 0 in double precision, so 0.9 min f would be a c of 0 that the
    # user never set
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"F": "gauss_power", "L_max": 8,
                               "f": {"a_poly": [-1e308]}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command != "solve":
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        argv += ["--surface", str(src)]
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == \
        'error: min f is 0.0, not positive, so "c" has no default\n'
    assert not out.exists()


@pytest.mark.parametrize("command", ["dual", "check"])
def test_surface_degree_past_any_array_fails_cleanly(tmp_path, capsys,
                                                     command):
    # 1e36 coefficients: numpy refuses the shape itself, before allocating
    doc = {"n": 2, "pole": [0, 0, 0, 1], "L_max": 10**18, "gauge_tau0": -2.3,
           "radial": [{"l": 0, "m": 0, "value": 2.78}]}
    src = tmp_path / "surface.json"
    src.write_text(json.dumps(doc))
    argv = [command, "--surface", str(src)]
    if command != "check":
        argv += ["--out", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: surface L_max = {10**18} is too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["bogus"],
    ["check", "--surface", "x.json", "--seed", "abc"],
    ["export-obj", "--surface", "S", "--out", "O"],
], ids=["missing-options", "unknown-command", "non-integer-seed",
        "export-obj"])
def test_usage_error_exits_1(capsys, argv):
    # argparse exits 2 on its own, the code kept for numerical failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: curvedual")
    assert ": error: " in err.splitlines()[-1]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: curvedual")


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is a test-only oracle
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, curvedual.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_ops_import_no_modules(tmp_path):
    # a module first imported inside an op is a cost of every cold op;
    # json (read_json) and numpy.random (class_K_check's samples) are
    # imported on first use on purpose, so they are loaded up front
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path / "config.json", L_max=8,
                       f={"a_poly": [LOG2],
                          "b": [{"l": 2, "m": 0, "value": 0.1}]})
    run, surface = tmp_path / "run", str(tmp_path / "run" /
                                         "solution_surface.json")
    ops = [["solve", "--config", cfg, "--out", str(run)],
           ["dual", "--surface", surface, "--out", str(tmp_path / "dual")],
           ["check", "--surface", surface, "--config", cfg,
            "--out", str(tmp_path / "check")]]
    code = ("import json, sys, numpy.random, curvedual.cli\n"
            "gained = []\n"
            f"for argv in {ops!r}:\n"
            "    before = set(sys.modules)\n"
            "    rc = curvedual.cli.main(argv)\n"
            "    gained.append((argv[0], rc, sorted(set(sys.modules) - before)))\n"
            "print(gained)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == str([("solve", 0, []), ("dual", 0, []),
                                        ("check", 0, [])])
    assert (tmp_path / "check" / "residuals.csv").exists()


def test_warm_ops_build_no_tables_and_write_the_same_bytes(
        tmp_path, grid_shape_builds):
    # a repeated op finds every grid of its first run in the memo, also
    # after an op on another size, and writes the same bytes
    f = {"a_poly": [LOG2], "b": [{"l": 2, "m": 0, "value": 0.1}]}
    for L in (8, 12):
        cfg = write_config(tmp_path / f"config{L}.json", L_max=L, f=f)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / f"run{L}")]) == 0

    def run(command, L, out):
        out = tmp_path / out
        assert main([command, "--surface",
                     str(tmp_path / f"run{L}" / "solution_surface.json"),
                     "--config", str(tmp_path / f"config{L}.json"),
                     "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    check = run("check", 8, "check_a")
    run("check", 12, "check_12")
    dual = run("dual", 8, "dual_a")
    grid_shape_builds.clear()
    assert run("check", 8, "check_b") == check
    assert run("dual", 8, "dual_b") == dual
    assert grid_shape_builds == []
    assert set(check) == {"check_report.json", "residuals.csv"}
    assert "dual_surface.json" in dual
