"""Command-line front end: solve, dualize, check, and export surfaces.

Exit codes follow a scripting contract: 0 for success, 1 for usage or
input errors, 2 for a numerical failure (continuation stopped short or
diagnostics out of tolerance) whose reports are still written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as formats
from .curvature import make_curvature_function
from .errors import ConfigError, CurveDualError
from .geometry import curvature_field
from .polar import dual_surface, fit_residual, gauss_map, transfer_problem
from .solver import (PrescribedData, SolverOptions, SymmetryGroup,
                     continuation, default_base_constant)
from .spectral import HarmonicCoeffs, build_grid, synthesize_at
from .validation import full_report

_CONFIG_KEYS = {"F", "n", "L_max", "group", "f", "c", "tol", "kappa_floor",
                "kappa_ceil", "dt0", "dt_min", "dt_max", "max_newton"}
_F_KEYS = {"a_poly", "b"}

# tolerances a surface must meet for `check` to exit 0
CHECK_LIMITS = {
    "steiner_magnitude": 1e-8,
    "stereographic_residual": 1e-6,
    "residual_max_abs": 1e-8,
}


def _load_json(path):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _numeric(kind, value, name: str):
    """``kind(value)``, or a ConfigError naming ``name``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be numeric, got {value!r}") from exc


def _harmonics_from_entries(entries, L_max: int) -> HarmonicCoeffs:
    if not isinstance(entries, list):
        raise ConfigError("f.b must be a list of {l, m, value} entries")
    pairs = {}
    L = 0
    for entry in entries:
        try:
            l, m = int(entry["l"]), int(entry["m"])
            value = float(entry["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed harmonic entry {entry!r}") from exc
        if not -l <= m <= l:
            raise ConfigError(f"harmonic entry has order {m} outside degree {l}")
        if l > L_max:
            raise ConfigError(
                f"harmonic entry has degree {l} above L_max = {L_max}")
        pairs[(l, m)] = value
        L = max(L, l)
    return HarmonicCoeffs.from_dict(L, pairs)


def _group_from_config(entry) -> SymmetryGroup:
    if entry == "antipodal" or entry is None:
        return SymmetryGroup.antipodal()
    if isinstance(entry, dict) and set(entry) == {"matrices"}:
        return SymmetryGroup("custom", _numeric(
            lambda ms: [np.asarray(M, dtype=float) for M in ms],
            entry["matrices"], "group matrices"))
    raise ConfigError(
        f"group must be \"antipodal\" or {{\"matrices\": [...]}}, got {entry!r}")


def parse_config(doc: dict):
    """Turn a config document into (F, data, options, group).

    Unknown keys anywhere are rejected so that typos fail loudly rather
    than silently running with defaults.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "F" not in doc or "f" not in doc:
        raise ConfigError("config requires the keys \"F\" and \"f\"")

    # the grid and the surfaces are 2-dimensional
    n = _numeric(int, doc.get("n", 2), '"n"')
    if n != 2:
        raise ConfigError(f"only n = 2 is supported, got n = {n}")
    try:
        F = make_curvature_function(str(doc["F"]), n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    opts = SolverOptions(
        L_max=_numeric(int, doc.get("L_max", 24), '"L_max"'))
    if opts.L_max < 4:
        raise ConfigError(f"L_max must be at least 4, got {opts.L_max}")
    for key in ("tol", "kappa_floor", "kappa_ceil", "dt0", "dt_min",
                "dt_max"):
        if key in doc:
            setattr(opts, key, _numeric(float, doc[key], f'"{key}"'))
    if "max_newton" in doc:
        opts.max_newton = _numeric(int, doc["max_newton"], '"max_newton"')

    fspec = doc["f"]
    if not isinstance(fspec, dict):
        raise ConfigError("config key \"f\" must be an object")
    unknown = set(fspec) - _F_KEYS
    if unknown:
        raise ConfigError(f"unknown keys under \"f\": {sorted(unknown)}")
    a_poly = _numeric(lambda v: np.asarray(v, dtype=float),
                      fspec.get("a_poly", [0.0]), "f.a_poly")
    b = _harmonics_from_entries(fspec.get("b", []), opts.L_max)

    group = _group_from_config(doc.get("group"))

    if "c" in doc:
        c = _numeric(float, doc["c"], '"c"')
    else:
        c = default_base_constant(
            PrescribedData(a_poly=a_poly, b=b, c=1.0).min_f())
    data = PrescribedData(a_poly=a_poly, b=b, c=c)
    return F, data, opts, group


def cmd_solve(args) -> int:
    F, data, opts, group = parse_config(_load_json(args.config))
    if args.tol_override is not None:
        opts.tol = args.tol_override
    os.makedirs(args.out, exist_ok=True)

    report = continuation(F, data, opts=opts, group=group)
    formats.write_surface(os.path.join(args.out, "solution_surface.json"),
                          report.final_surface)
    formats.write_json(os.path.join(args.out, "continuation_report.json"),
                       report.as_dict())
    fld = curvature_field(report.final_surface, build_grid(opts.L_max))
    formats.write_nodes_csv(os.path.join(args.out, "solution_nodes.csv"), fld)

    print(f"status: {report.status}")
    if report.steps:  # empty when the t = 0 solve failed
        last = report.steps[-1]
        print(f"t reached: {formats.format_float(last.t)}")
        print(f"residual: {formats.format_float(last.residual)}")
        print(f"kappa range: [{formats.format_float(last.kappa_min)}, "
              f"{formats.format_float(last.kappa_max)}]")
    if not report.converged:
        print(f"failure: {report.message}", file=sys.stderr)
        return 2
    return 0


def cmd_dual(args) -> int:
    surface = formats.read_surface(args.surface)
    os.makedirs(args.out, exist_ok=True)
    grid = build_grid(surface.L_max)
    field = curvature_field(surface, grid, require_convex=True)
    samples = gauss_map(field)

    dual = dual_surface(surface)
    back = dual_surface(dual, L_max=surface.L_max,
                        sample_L=dual.L_max + 8)

    # reciprocity on the source grid: ascending dual pairs with the
    # reversed source order
    recip = np.stack([samples.kappa_dual[:, 0] * field.kappa[:, 1],
                      samples.kappa_dual[:, 1] * field.kappa[:, 0]], axis=-1)
    reciprocity_err = float(np.max(np.abs(recip - 1.0)))
    x = field.x
    x_back = curvature_field(back, grid).x
    double_dual_dist = float(np.max(np.linalg.norm(x_back - x, axis=1)))

    report = {
        "reciprocity_max_error": reciprocity_err,
        "double_dual_max_distance": double_dual_dist,
        "dual_fit_residual": fit_residual(samples, dual),
        "dual_L_max": dual.L_max,
    }
    if args.config is not None:
        F, data, opts, group = parse_config(_load_json(args.config))
        f_src = data.values(field.r, grid.theta, grid.phi)
        F_dual, f_dual = transfer_problem(F, f_src)
        resid = F_dual(samples.kappa_dual) - f_dual
        report["transfer_residual_max"] = float(np.max(np.abs(resid)))

    formats.write_surface(os.path.join(args.out, "dual_surface.json"), dual)
    formats.write_dual_samples_csv(
        os.path.join(args.out, "dual_samples.csv"), samples)
    formats.write_json(os.path.join(args.out, "duality_report.json"), report)
    print(f"reciprocity max error: "
          f"{formats.format_float(reciprocity_err)}")
    print(f"double dual max distance: "
          f"{formats.format_float(double_dual_dist)}")
    return 0


def _check_passes(report_dict: dict) -> bool:
    if not report_dict["convex"]:
        return False
    if not report_dict["curvature_within_brackets"]:
        return False
    if report_dict["steiner_magnitude"] > CHECK_LIMITS["steiner_magnitude"]:
        return False
    if report_dict["stereographic_residual"] > \
            CHECK_LIMITS["stereographic_residual"]:
        return False
    if report_dict["support_margin"] >= 0.0:
        return False
    stats = report_dict.get("residual_stats")
    if stats is not None and stats["max_abs"] > \
            CHECK_LIMITS["residual_max_abs"]:
        return False
    return True


def cmd_check(args) -> int:
    surface = formats.read_surface(args.surface)
    F = f = None
    if args.config is not None:
        F, data, opts, group = parse_config(_load_json(args.config))
        f = data
    report = full_report(surface, F=F, f=f, seed=args.seed)
    doc = report.as_dict()
    passed = _check_passes(doc)
    doc["passed"] = passed
    print(formats.dumps_canonical(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        formats.write_json(os.path.join(args.out, "check_report.json"), doc)
        if F is not None:
            grid = build_grid(surface.L_max)
            fld = curvature_field(surface, grid)
            resid = F(fld.kappa) - f.values(fld.r, grid.theta, grid.phi)
            formats.write_field_csv(
                os.path.join(args.out, "residuals.csv"),
                grid.theta, grid.phi, resid)
    return 0 if passed else 2


def cmd_export_obj(args) -> int:
    surface = formats.read_surface(args.surface)
    formats.write_obj(args.out, surface)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedual",
        description="Prescribed-curvature solver and polar-duality tools "
                    "for convex graphs over the sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run homotopy continuation")
    ps.add_argument("--config", required=True, help="config JSON path")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--tol-override", type=float, default=None,
                    dest="tol_override", help="override the Newton tolerance")
    ps.set_defaults(func=cmd_solve)

    pd = sub.add_parser("dual", help="compute the polar dual surface")
    pd.add_argument("--surface", required=True, help="surface JSON path")
    pd.add_argument("--out", required=True, help="output directory")
    pd.add_argument("--config", default=None,
                    help="optional config JSON; adds the transferred-"
                         "equation residual to the report")
    pd.set_defaults(func=cmd_dual)

    pc = sub.add_parser("check", help="run the diagnostics battery")
    pc.add_argument("--surface", required=True, help="surface JSON path")
    pc.add_argument("--config", default=None,
                    help="optional config JSON; adds equation residual stats")
    pc.add_argument("--out", default=None, help="optional output directory")
    pc.add_argument("--seed", type=int, default=0,
                    help="seed for the support-pair sampling")
    pc.set_defaults(func=cmd_check)

    pe = sub.add_parser("export-obj", help="write a stereographic mesh")
    pe.add_argument("--surface", required=True, help="surface JSON path")
    pe.add_argument("--out", required=True, help="output OBJ path")
    pe.set_defaults(func=cmd_export_obj)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurveDualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
