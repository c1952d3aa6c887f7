"""The benchmark tracer still finds what it wraps in curvedual.

``perfbench/tracing.py`` rebinds package names and replaces the
``QuadratureGrid.ops`` property from outside ``src/``; a refactor that
renames or reshapes those breaks ``run.py --trace 1`` silently.  The
tracer is imported as it is and only run here.
"""

import importlib
from pathlib import Path

import numpy as np

from curvedual import cli, sphere_surface
from curvedual.io import write_surface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_check_op_counts_one_table_build_and_one_field(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    src = tmp_path / "surface.json"
    write_surface(src, sphere_surface(np.pi / 4, L_max=8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.recording = 0, True
        rc = cli.main(["check", "--surface", str(src)])
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.counts[0]["spectral.ops_builds"] == 1
    assert tracer.counts[0]["geometry.curvature_field_calls"] == 1
