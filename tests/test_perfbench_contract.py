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

import pytest

from curvedual import cli

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
        # the benchmark's work: a faster solve may not take fewer steps or
        # iterations, nor stop at a larger residual
        steps = json.loads(
            (out / "continuation_report.json").read_text())["steps"]
        assert len(steps) == 7
        assert sum(s["iterations"] for s in steps) == 38
        assert steps[-1]["residual"] <= 1e-10
    args = run.parse_args(["--workload", workload, "--seed", "0"])
    assert run.context_line(args, 1).startswith("context: backend=")
