"""Command-line front end: solve, dualize and check surfaces.

Exit codes follow a scripting contract: 0 for success, 1 for usage or
input errors, 2 for a numerical failure: continuation stopped short or
diagnostics out of tolerance, whose reports are still written, or a dual
whose support points do not converge.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as formats
from .curvature import make_curvature_function
from .errors import ConfigError, CurveDualError, DataError, ResolutionError
from .geometry import curvature_field
from .polar import dual_surface, fit_residual, gauss_map, transfer_problem
from .solver import (PrescribedData, SolverOptions, continuation,
                     data_on_field, default_base_constant)
from .spectral import HarmonicCoeffs, build_grid
from .validation import full_report

_CONFIG_KEYS = {"F", "L_max", "group", "f", "c", "tol"}
_F_KEYS = {"a_poly", "b"}

# tolerances a surface must meet for `check` to exit 0
CHECK_LIMITS = {
    "steiner_magnitude": 1e-8,
    "stereographic_residual": 1e-6,
    "residual_max_abs": 1e-8,
}


def _numeric(kind, value, name: str):
    """:func:`io.json_number` with its DataError raised as a ConfigError."""
    try:
        return formats.json_number(kind, value, name)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


def _harmonics_from_entries(entries, L_max: int) -> HarmonicCoeffs:
    if not isinstance(entries, list):
        raise ConfigError("f.b must be a list of {l, m, value} entries")
    pairs = {}
    L = 0
    for entry in entries:
        try:
            l, m, value = entry["l"], entry["m"], entry["value"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed harmonic entry {entry!r}") from exc
        l, m = _numeric(int, l, "f.b l"), _numeric(int, m, "f.b m")
        value = _numeric(float, value, "f.b value")
        if not -l <= m <= l:
            raise ConfigError(f"harmonic entry has order {m} outside degree {l}")
        if l > L_max:
            raise ConfigError(
                f"harmonic entry has degree {l} above L_max = {L_max}")
        if (l, m) in pairs:
            raise ConfigError(f"harmonic entry (l={l}, m={m}) is repeated")
        pairs[(l, m)] = value
        L = max(L, l)
    return HarmonicCoeffs.from_dict(L, pairs)


def _antipodal_from_config(entry) -> bool:
    # {I} and {I, -I} are the only groups acting freely on the sphere
    # (solver.invariant_projector), so the key takes just these two values
    if entry in (None, "antipodal", "trivial"):
        return entry != "trivial"
    raise ConfigError(
        f'group must be "antipodal" or "trivial", got {entry!r}')


def parse_config(doc: dict):
    """Turn a config document into (F, data, options, antipodal).

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

    try:
        F = make_curvature_function(str(doc["F"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    opts = SolverOptions(
        L_max=_numeric(int, doc.get("L_max", 24), '"L_max"'))
    if "tol" in doc:
        opts.tol = _numeric(float, doc["tol"], '"tol"')
    opts.validate()

    fspec = doc["f"]
    if not isinstance(fspec, dict):
        raise ConfigError("config key \"f\" must be an object")
    unknown = set(fspec) - _F_KEYS
    if unknown:
        raise ConfigError(f"unknown keys under \"f\": {sorted(unknown)}")
    a_poly = _numeric(lambda v: np.asarray(v, dtype=float),
                      fspec.get("a_poly", [0.0]), "f.a_poly")
    b = _harmonics_from_entries(fspec.get("b", []), opts.L_max)

    antipodal = _antipodal_from_config(doc.get("group"))

    try:
        data = PrescribedData(a_poly=a_poly, b=b, c=1.0)  # c is set below
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if "c" in doc:
        data.c = _numeric(float, doc["c"], '"c"')
    else:
        fmin = data.min_f()
        if np.isinf(fmin):  # finite data overflowed; NaN data is named later
            raise ConfigError(
                'min f is not finite, so "c" has no default; set "c"')
        if fmin <= 0.0:  # f underflowed: no c lies in (0, min f)
            raise ConfigError(
                f'min f is {fmin!r}, not positive, so "c" has no default')
        data.c = default_base_constant(fmin)
    return F, data, opts, antipodal


def cmd_solve(args) -> int:
    F, data, opts, antipodal = parse_config(formats.read_json(args.config))
    os.makedirs(args.out, exist_ok=True)

    report = continuation(F, data, opts=opts, antipodal=antipodal)
    formats.write_surface(os.path.join(args.out, "solution_surface.json"),
                          report.final_surface)
    formats.write_json(os.path.join(args.out, "continuation_report.json"),
                       report.as_dict())
    # the node dump is on the full grid even where the run grid is folded;
    # with the trivial group it is the run grid, shared per process
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
    # a bad config fails before either dual is built
    config = None if args.config is None else \
        parse_config(formats.read_json(args.config))
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
    x_back = curvature_field(back, grid).x
    double_dual_dist = float(np.max(np.linalg.norm(x_back - field.x, axis=1)))

    report = {
        "reciprocity_max_error": reciprocity_err,
        "double_dual_max_distance": double_dual_dist,
        "dual_fit_residual": fit_residual(samples, dual),
        "dual_L_max": dual.L_max,
    }
    if config is not None:
        F, data, _, _ = config
        f_src = data_on_field(data, field)
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
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    surface = formats.read_surface(args.surface)
    F = f = None
    if args.config is not None:
        F, f, _, _ = parse_config(formats.read_json(args.config))
    fld = curvature_field(surface, build_grid(surface.L_max))
    report = full_report(fld, F=F, f=f, seed=args.seed)
    doc = report.as_dict()
    passed = _check_passes(doc)
    doc["passed"] = passed
    print(formats.dumps_canonical(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        formats.write_json(os.path.join(args.out, "check_report.json"), doc)
        if report.residual is not None:
            formats.write_field_csv(
                os.path.join(args.out, "residuals.csv"),
                fld.grid.theta, fld.grid.phi, report.residual)
    return 0 if passed else 2


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors; ``add_subparsers`` reuses this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvedual",
        description="Prescribed-curvature solver and polar-duality tools "
                    "for convex graphs over the sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run homotopy continuation")
    ps.add_argument("--config", required=True, help="config JSON path")
    ps.add_argument("--out", required=True, help="output directory")
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
    return parser


# built once, with the module: a command only parses (building one costs
# more than parsing, and argparse's first message lookup imports locale)
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ResolutionError as exc:  # the dual failed numerically
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurveDualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. an L_max far beyond any machine
        print(f"error: input too large for memory: "
              f"{str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
