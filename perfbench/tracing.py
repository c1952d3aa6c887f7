"""Span recorder for the traced benchmark run.

The package is not edited.  ``Tracer.install`` wraps public curvedual
functions by rebinding each name where it is looked up: every curvedual
module whose namespace holds the function object gets the wrapper, so
``from .x import f`` copies and ``module.f`` lookups are both caught.  A
few class attributes (the ``QuadratureGrid.ops`` property, ``F(kappa)``
and ``PrescribedData.validate``) are replaced on the class.
``Tracer.uninstall`` restores every original binding.  Wrappers record
only while ``Tracer.recording`` is set and call straight through
otherwise.  The ``ops`` wrapper still notes every operator object it
hands out, so an object built in an untraced op is not taken for a new
build when a traced op meets it.

Spans (name, start, end, parent, op id) stay in memory until ``write``.
Work is counted at the same boundaries.  A layer's time is the self time
of its spans: duration minus the part covered by child spans, so the
self times of one op add up to the op's root span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict

from curvedual import _kernels, cli, curvature, geometry, io, polar, solver, \
    spectral, validation

ROOT_SPAN = "cli.main"

# span names whose self time is reported under another metric name
_SELF_METRIC = {ROOT_SPAN: "cli.self_s",
                "solver.newton_solve": "solver.newton_self_s"}

_IO_WRITE = "io.write"


def _count_kappa(tr, theta, phi, R, *rest):
    n, nb = R.shape
    tr.count("kernels.kappa_batch_calls")
    tr.count("kernels.node_evals", n * nb)
    tr.count("kernels.computed_bytes", 8 * n * nb * 8)  # 6 in + 2 out
    if nb > 1:  # finite-difference Jacobian columns
        tr.count("kernels.jacobian_node_evals", n * nb)
        tr.count("solver.newton_iters")
    elif tr.inside("solver.newton_solve"):
        tr.count("solver.state_evals")


def _counter(name):
    return lambda tr, *args, **kwargs: tr.count(name)


def _count_written(tr, result, path, *args):
    if tr.parent_name() != _IO_WRITE:  # nested writer: counted once
        tr.count("io.bytes_written", os.path.getsize(path))


def _count_steps(tr, report, *args, **kwargs):
    tr.count("solver.steps_accepted", len(report.steps))


# (span name, module, attribute, before hook, after hook, fold into)
_FUNCTIONS = [
    ("cli.parse_config", cli, "parse_config", None, None, None),
    ("io.read", io, "read_surface", None, None, None),
    (_IO_WRITE, io, "write_json", None, _count_written, None),
    (_IO_WRITE, io, "write_surface", None, _count_written, None),
    (_IO_WRITE, io, "write_nodes_csv", None, _count_written, None),
    (_IO_WRITE, io, "write_dual_samples_csv", None, _count_written, None),
    (_IO_WRITE, io, "write_field_csv", None, _count_written, None),
    ("spectral.basis_matrix", spectral, "basis_matrix",
     _counter("spectral.basis_matrix_calls"), None, None),
    ("kernels.kappa_batch", _kernels, "kappa_batch", _count_kappa, None, None),
    # the numpy kappa_batch backend calls fundamental_forms; that time is
    # kernel time, not a separate layer
    ("kernels.fundamental_forms", _kernels, "fundamental_forms", None, None,
     "kernels.kappa_batch"),
    ("geometry.curvature_field", geometry, "curvature_field",
     _counter("geometry.curvature_field_calls"), None, None),
    ("geometry.stereographic", geometry, "stereographic_project", None, None,
     None),
    ("curvature.class_K_check", curvature, "class_K_check", None, None, None),
    ("solver.continuation", solver, "continuation", None, _count_steps, None),
    ("solver.newton_solve", solver, "newton_solve",
     _counter("solver.newton_solve_calls"), None, None),
    ("solver.projector", solver, "invariant_projector", None, None, None),
    ("polar.dual_surface", polar, "dual_surface",
     _counter("polar.dual_surface_calls"), None, None),
    ("polar.gauss_map", polar, "gauss_map", None, None, None),
    ("polar.dual_fit", polar, "dual_as_graph", None, None, None),
    ("polar.support_test", polar, "support_test", None, None, None),
    ("validation.full_report", validation, "full_report", None, None, None),
    ("validation.steiner", validation, "steiner_point", None, None, None),
    ("validation.stereographic_residual", validation,
     "stereographic_residual", None, None, None),
]

# (span name, class, attribute)
_METHODS = [
    ("curvature.F_eval", curvature.CurvatureFunction, "__call__"),
    ("solver.data_validate", solver.PrescribedData, "validate"),
]

SPAN_NAMES = sorted({s[0] for s in _FUNCTIONS} | {s[0] for s in _METHODS}
                    | {"spectral.ops_build", ROOT_SPAN})
COUNT_NAMES = ["spectral.ops_builds", "spectral.ops_bytes",
               "spectral.basis_matrix_calls", "kernels.kappa_batch_calls",
               "kernels.node_evals", "kernels.jacobian_node_evals",
               "kernels.computed_bytes", "geometry.curvature_field_calls",
               "solver.newton_solve_calls", "solver.newton_iters",
               "solver.state_evals", "solver.steps_accepted",
               "polar.dual_surface_calls", "io.bytes_written"]


def self_metric(span_name: str) -> str:
    return _SELF_METRIC.get(span_name, span_name + "_s")


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = None
        self.recording = False
        self._stack = []
        self._saved = []
        self._seen_ops = weakref.WeakSet()

    # ------------------------------------------------------------ record
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.op][key] += value

    # ----------------------------------------------------------- install
    def _wrap(self, name, fn, before=None, after=None, fold_into=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording or (
                    fold_into is not None
                    and tracer.parent_name() == fold_into):
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, *args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result, *args, **kwargs)
            return result
        return traced

    def _traced_ops_property(self, prop):
        tracer = self

        def ops(grid):
            # a span is kept only when the property hands out an operator
            # object not seen before, i.e. when it built one
            if not tracer.recording:
                result = prop.fget(grid)
                tracer._seen_ops.add(result)
                return result
            idx = tracer.open("spectral.ops_build")
            try:
                result = prop.fget(grid)
            finally:
                tracer.close(idx)
            if result in tracer._seen_ops:
                del tracer.spans[idx]
                return result
            tracer._seen_ops.add(result)
            n, k = result.Y.shape
            tracer.count("spectral.ops_builds")
            tracer.count("spectral.ops_bytes", 6 * n * k * 8)
            return result
        return property(ops)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "curvedual"
                                         or n.startswith("curvedual."))]
        for name, module, attr, before, after, fold in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, before, after, fold)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for name, cls, attr in _METHODS:
            self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
        grid_cls = spectral.QuadratureGrid
        self._set(grid_cls, "ops",
                  self._traced_ops_property(vars(grid_cls)["ops"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- results
    def _self_times(self) -> list:
        """Self time of each span: its duration minus its children's."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def layer_metrics(self, ops: list) -> dict:
        """Per-op means over the traced ``ops`` of every layer metric."""
        n = len(ops)
        out = {self_metric(name): 0.0 for name in SPAN_NAMES}
        for span, value in zip(self.spans, self._self_times()):
            if span[4] in ops:
                out[self_metric(span[0])] += value / n
        totals = {k: sum(self.counts[op][k] for op in ops)
                  for k in COUNT_NAMES}
        for key in COUNT_NAMES:
            out[key] = totals[key] / n
        calls = totals["solver.newton_solve_calls"]
        trials = totals["solver.state_evals"] - calls  # initial state excluded
        # ratios are 0 where there was nothing to accept (no solver work)
        out["solver.step_accept_ratio"] = (
            totals["solver.steps_accepted"] / calls if calls else 0.0)
        out["solver.linesearch_accept_ratio"] = (
            totals["solver.newton_iters"] / trials if trials > 0 else 0.0)
        out["trace.spans"] = sum(1 for s in self.spans if s[4] in ops) / n
        return out

    def op_self_sums(self, ops: list):
        """Sum of span self times per op, and the smallest self time."""
        sums = defaultdict(float)
        smallest = 0.0
        for span, value in zip(self.spans, self._self_times()):
            if span[4] in ops:
                sums[span[4]] += value
                smallest = min(smallest, value)
        return sums, smallest

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
