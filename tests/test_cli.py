"""End-to-end command line tests driven through ``main(argv)``."""

import json
import math

import numpy as np
import pytest

from curvedual import HarmonicCoeffs, build_grid, sphere_surface, synthesize
from curvedual.cli import main, parse_config
from curvedual.errors import ConfigError
from curvedual.geometry import GraphSurface
from curvedual.io import read_surface, write_surface

LOG2 = math.log(2.0)


def write_config(path, **overrides):
    doc = {"F": "gauss_power", "L_max": 12, "f": {"a_poly": [LOG2]},
           "c": 1.0}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        F, data, opts, group = parse_config(
            {"F": "gauss_power", "f": {"a_poly": [LOG2]}, "c": 1.0})
        assert F.name == "gauss_power" and F.n == 2
        assert opts.L_max == 24
        assert group.name == "antipodal" and group.order == 2

    def test_default_base_constant_below_min(self):
        F, data, opts, group = parse_config(
            {"F": "mean", "f": {"a_poly": [LOG2]}})
        assert data.c == pytest.approx(0.9 * 2.0, abs=1e-12)

    def test_modulation_entries(self):
        F, data, opts, group = parse_config(
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
        eye = np.eye(3).tolist()
        neg = (-np.eye(3)).tolist()
        F, data, opts, group = parse_config(
            {"F": "gauss_power", "f": {"a_poly": [LOG2]}, "c": 1.0,
             "group": {"matrices": [eye, neg]}})
        assert group.order == 2


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
        ({"n": "x"}, '"n" must be numeric'),
        ({"f": {"a_poly": "q"}}, "f.a_poly must be numeric"),
        # L_max is 12; one even degree above the truncation
        ({"f": {"a_poly": [LOG2], "b": [{"l": 14, "m": 0, "value": 0.1}]}},
         "degree 14 above L_max = 12"),
        ({"F": "sigma_2", "n": 3}, "only n = 2 is supported"),
        ({"group": {"matrices": "x"}}, "group matrices must be numeric"),
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
        cfg = write_config(tmp_path / "config.json", L_max=8, tol=0,
                           max_newton=0)
        out = tmp_path / "r"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "status: failed" in captured.out
        assert "t = 0 solve failed" in captured.err
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

    def test_without_config_skips_residuals(self, tmp_path, capsys):
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=12))
        rc = main(["check", "--surface", str(src)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "residual_stats" not in doc


class TestExportObj:
    def test_writes_mesh(self, tmp_path):
        src = tmp_path / "surface.json"
        write_surface(src, sphere_surface(np.pi / 4, L_max=8))
        dst = tmp_path / "mesh.obj"
        rc = main(["export-obj", "--surface", str(src), "--out", str(dst)])
        assert rc == 0
        text = dst.read_text()
        assert text.count("\nf ") + text.startswith("f ") > 0
        assert "v " in text

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["export-obj", "--surface", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "mesh.obj")])
        assert rc == 1
