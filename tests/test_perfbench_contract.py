"""The benchmark's workloads still run on the package.

``perfbench/workloads.py`` builds its inputs with package names
(``GraphSurface(n=..., gauge_tau0=...)``, ``default_gauge_tau0``) and
``perfbench/run.py`` reads ``_kernels.backend_name`` for its context
line.  Input 0 of each workload's seed-0 pool runs here through
``cli.main`` and is held to the benchmark's own output check.  The
benchmark modules are imported as they are and only run here.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from curvedual import cli, io, polar
from curvedual.geometry import curvature_field
from curvedual.spectral import basis_matrix, build_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("workloads"),
            importlib.import_module("run"))


@pytest.mark.parametrize("workload", ["solve", "dual", "check"])
def test_workload_input_zero_passes_its_check(tmp_path, capsys, perfbench,
                                              workload):
    workloads, run = perfbench
    specs = workloads.generate(workload, 0, str(tmp_path / "in"))
    assert len(specs) == workloads.POOL_SIZE[workload]
    out = tmp_path / "out"
    rc = cli.main(specs[0]["argv"] + ["--out", str(out)])
    ok, reason, _ = workloads.check_output(workload, rc, str(out))
    assert ok, reason
    if workload == "solve":
        # the benchmark's work under contraction step control: the first
        # try from the sphere reaches t = 1, so a faster solve may not take
        # fewer steps or iterations, nor stop at a larger residual
        steps = json.loads(
            (out / "continuation_report.json").read_text())["steps"]
        assert len(steps) == 2
        assert sum(s["iterations"] for s in steps) == 13
        assert steps[-1]["residual"] <= 1e-10
    args = run.parse_args(["--workload", workload, "--seed", "0"])
    assert run.context_line(args, 1).startswith("context: backend=")


def test_dual_input_zero_fits_are_near_identity(tmp_path, monkeypatch,
                                                perfbench):
    # both legs of the benchmark's dual op certify ||A - I||_F <= 0.8 and
    # are solved by conjugate gradients alone: no Cholesky, LU or SVD
    workloads, _ = perfbench
    spec = workloads.generate("dual", 0, str(tmp_path))[0]
    surface = io.read_surface(spec["argv"][spec["argv"].index("--surface")
                                           + 1])
    legs = []
    for source, L_max, sample_L in ((surface, 32, 36), (None, 24, 40)):
        source = source or legs[-1][1]
        field = curvature_field(source.padded_to(sample_L),
                                build_grid(sample_L), require_convex=True)
        samples = polar.gauss_map(field)
        root = np.sqrt(samples.weights)
        B = basis_matrix(L_max, samples.eta_theta, samples.eta_phi)
        expect = np.linalg.lstsq(root[:, None] * B, root * samples.r_star,
                                 rcond=None)[0]
        with monkeypatch.context() as patch:
            for name in ("cholesky", "solve", "lstsq"):
                patch.setattr(np.linalg, name, _no_factorization)
            legs.append((expect, polar.dual_as_graph(samples, L_max)))
    for expect, fitted in legs:
        assert np.max(np.abs(fitted.radial.values - expect)) <= 1e-12


def _no_factorization(*args, **kwargs):
    raise AssertionError("factorization in a near-identity dual fit")
