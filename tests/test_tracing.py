"""The benchmark tracer still finds what it wraps in curvedual.

``perfbench/tracing.py`` rebinds package names and replaces the
``QuadratureGrid.ops`` property from outside ``src/``; a refactor that
renames or reshapes those breaks ``run.py --trace 1`` silently.  The
tracer is imported as it is and only run here.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from curvedual import cli, sphere_surface
from curvedual.io import write_surface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_op(monkeypatch, argv):
    """Exit code and counters of one ``cli.main(argv)`` op under the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.recording = 0, True
        rc = cli.main(argv)
        tracer.recording = False
    finally:
        tracer.uninstall()
    return rc, tracer.counts[0]


def test_traced_check_op_counts_one_table_build_and_one_field(
        tmp_path, monkeypatch, capsys):
    src = tmp_path / "surface.json"
    write_surface(src, sphere_surface(np.pi / 4, L_max=8))
    rc, counts = traced_op(monkeypatch, ["check", "--surface", str(src)])
    assert rc == 0
    assert counts["spectral.ops_builds"] == 1
    assert counts["geometry.curvature_field_calls"] == 1


def test_traced_solve_op_counts_newton_work(tmp_path, monkeypatch, capsys,
                                            grid_shape_builds):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "F": "gauss_power", "L_max": 8, "c": 1.0,
        "f": {"a_poly": [float(np.log(2.0))],
              "b": [{"l": 2, "m": 0, "value": 0.16}]}}))
    out = tmp_path / "run"
    rc, counts = traced_op(monkeypatch, ["solve", "--config", str(config),
                                         "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "continuation_report.json").read_text())
    iterations = sum(s["iterations"] for s in report["steps"])
    assert iterations == 11
    # the tracer counts width-12 kernel calls, i.e. Jacobian assemblies,
    # which only linear_system makes: the t = 1 try's 11 quasi-Newton
    # iterations start from two degree-diagonal refreshes
    assert counts["solver.newton_iters"] == 0
    # the t = 0 solve and the one try, which reaches t = 1
    assert counts["solver.newton_solve_calls"] == 2
    # one start state per solve, one per iteration (every full step was
    # accepted) and four width-1 probes per diagonal refresh: 2 + 11 + 8
    assert counts["solver.state_evals"] == 21
    # the folded run grid and the full grid of solution_nodes.csv, each
    # built once
    assert counts["spectral.ops_builds"] == 2
    assert grid_shape_builds == [(8, 5, 18), (8, 9, 17)]
    # the node dump samples the final surface; the steps read Newton states
    assert counts["geometry.curvature_field_calls"] == 1
