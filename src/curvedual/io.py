"""File formats: surface JSON, report JSON, node CSVs, and mesh export.

All floating-point output is formatted with 17 significant digits, which
round-trips IEEE doubles exactly and makes repeated runs byte-identical.
Report writers never include timing or host information for the same
reason.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError
from .geometry import (CurvatureField, GraphSurface, curvature_field,
                       rho_from_r, stereographic_project)
from .polar import DualSamples
from .spectral import (HarmonicCoeffs, build_grid, lm_index, num_coeffs,
                       synthesize_at)


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form of a double."""
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars to JSON with fixed float formatting.

    The standard library serializer hardwires shortest-round-trip float
    text; the deterministic-output contract here wants a fixed digit
    count instead, hence this small emitter.  Key order is preserved as
    given (all callers build dicts in a fixed order).
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{k}": {dumps_canonical(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_scalar(v) for v in seq) + "]"
        parts = [inner + dumps_canonical(v, indent + 2).lstrip() for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar(obj)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if np.isnan(x):
            return '"nan"'
        if np.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format_float(x)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(v).__name__}")


def json_number(kind, value, name: str):
    """``kind(value)`` of JSON numbers only, or a DataError naming ``name``.

    ``int`` takes only integral floats, so nothing is truncated.
    """
    try:
        # every Python float is numeric; skipping asarray keeps reads fast
        if type(value) is not float and \
                np.asarray(value).dtype.kind not in "iuf":
            raise TypeError(value)
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name} must be numeric, got {value!r}") from exc
    if kind is int and out != value:
        raise DataError(f"{name} must be an integer, got {value!r}")
    return out


def read_json(path):
    """The JSON document in the file at ``path``.

    A file that is not UTF-8 text, not JSON, nested deeper than the
    parser recurses, or holding an integer too long to convert raises
    DataError; a file that cannot be opened raises OSError.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise DataError(f"invalid JSON in {path}: {exc}") from exc


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj) + "\n")


# --------------------------------------------------------------- surface

def surface_to_dict(surface: GraphSurface) -> dict:
    values = surface.radial.values
    idx = np.flatnonzero(values != 0.0)
    l = np.floor(np.sqrt(idx)).astype(int)  # exact: idx is far below 2**52
    radial = [{"l": a, "m": b, "value": v} for a, b, v in
              zip(l.tolist(), (idx - l * l - l).tolist(), values[idx].tolist())]
    return {"n": surface.n,
            "pole": [float(v) for v in surface.pole],
            "L_max": surface.L_max,
            "gauge_tau0": float(surface.gauge_tau0),
            "radial": radial}


def surface_from_dict(doc: dict) -> GraphSurface:
    try:
        n, pole, L_max, gauge_tau0, entries = (
            doc[key] for key in ("n", "pole", "L_max", "gauge_tau0", "radial"))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed surface document: {exc}") from exc
    unknown = set(doc) - {"n", "pole", "L_max", "gauge_tau0", "radial"}
    if unknown:
        raise DataError(f"unknown surface keys: {sorted(unknown)}")
    n = json_number(int, n, "surface n")
    pole = json_number(lambda v: np.asarray(v, dtype=float), pole,
                       "surface pole")
    L_max = json_number(int, L_max, "surface L_max")
    gauge_tau0 = json_number(float, gauge_tau0, "surface gauge_tau0")
    if not math.isfinite(gauge_tau0):
        raise DataError(f"surface gauge_tau0 must be finite, got {gauge_tau0}")
    if pole.shape != (4,) or not isinstance(entries, list):
        raise DataError("surface document has invalid L_max, pole or radial")
    # what GraphSurface and build_grid accept; NaN fails the pole test too
    if n != 2 or L_max < 4 or not abs(np.linalg.norm(pole) - 1.0) <= 1e-12:
        raise DataError(
            "surface needs n = 2, L_max >= 4 and a unit pole, got "
            f"n = {n}, L_max = {L_max}, pole = {pole.tolist()}")
    # numpy cannot describe a float array this long; a shorter one that
    # does not fit in memory fails at allocation, which the CLI reports
    if num_coeffs(L_max) > np.iinfo(np.intp).max // 8:
        raise DataError(f"surface L_max = {L_max} is too large: "
                        f"{num_coeffs(L_max)} coefficients exceed the "
                        "largest array")
    coeffs = HarmonicCoeffs.zeros(L_max)
    seen = set()
    for entry in entries:
        try:
            l, m, value = entry["l"], entry["m"], entry["value"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed radial entry {entry!r}") from exc
        l, m = json_number(int, l, "radial l"), json_number(int, m, "radial m")
        value = json_number(float, value, "radial value")
        if not math.isfinite(value):
            raise DataError(f"radial value at (l={l}, m={m}) must be finite, "
                            f"got {value!r}")
        if not (0 <= l <= L_max and -l <= m <= l):
            raise DataError(f"radial entry (l={l}, m={m}) outside truncation "
                            f"L_max={L_max}")
        idx = lm_index(l, m)
        if idx in seen:
            raise DataError(f"radial entry (l={l}, m={m}) is repeated")
        seen.add(idx)
        coeffs.values[idx] = value
    return GraphSurface(n=n, pole=pole, radial=coeffs, gauge_tau0=gauge_tau0)


# one radial entry as dumps_canonical lays it out inside a surface document
_RADIAL_ENTRY = '    {\n      "l": %d,\n      "m": %d,\n      "value": %s\n    }'


def write_surface(path, surface: GraphSurface) -> None:
    """Write the text of ``write_json(path, surface_to_dict(surface))``.

    The radial list, most of the file, takes one ``%`` format per entry
    instead of a pass of the generic emitter over each entry's dict.
    """
    doc = surface_to_dict(surface)
    entries = doc.pop("radial")
    texts = []
    for e in entries:
        v = e["value"]
        texts.append(_RADIAL_ENTRY % (e["l"], e["m"], "%.17g" % v
                                      if math.isfinite(v) else _scalar(v)))
    radial = "[\n" + ",\n".join(texts) + "\n  ]" if texts else "[]"
    head = dumps_canonical(doc)[:-2]  # up to the closing "\n}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n  "radial": {radial}\n}}\n')


def read_surface(path) -> GraphSurface:
    return surface_from_dict(read_json(path))


# ------------------------------------------------------------------- csv

def _write_rows(path, header: list, columns: list) -> None:
    rows = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    # the text of csv.writer with format_float, one % per row
    fmt = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(fmt % tuple(row) for row in rows.tolist())


def write_field_csv(path, theta, phi, values) -> None:
    """Scalar field at nodes; columns theta, phi, value."""
    _write_rows(path, ["theta", "phi", "value"], [theta, phi, values])


def write_nodes_csv(path, field: CurvatureField) -> None:
    """Full per-node geometry record of a curvature field."""
    header = ["theta", "phi", "r", "kappa1", "kappa2",
              "x0", "x1", "x2", "x3", "n0", "n1", "n2", "n3"]
    cols = [field.grid.theta, field.grid.phi, field.r,
            field.kappa[:, 0], field.kappa[:, 1]]
    cols += [field.x[:, i] for i in range(4)]
    cols += [field.normal[:, i] for i in range(4)]
    _write_rows(path, header, cols)


def write_dual_samples_csv(path, samples: DualSamples) -> None:
    """Dual-map samples: source chart angles to dual chart and curvatures."""
    header = ["theta", "phi", "eta_theta", "eta_phi", "r_star", "kt1", "kt2"]
    _write_rows(path, header,
                [samples.theta, samples.phi, samples.eta_theta,
                 samples.eta_phi, samples.r_star,
                 samples.kappa_dual[:, 0], samples.kappa_dual[:, 1]])


# -------------------------------------------------------------- obj mesh

def write_obj(path, surface: GraphSurface) -> None:
    """Triangle mesh of the stereographic image for external viewers.

    The lat-long quadrature grid provides the vertex rows; quads are
    split into triangles, the seam wraps in longitude, and the two polar
    gaps are closed with fans around explicit pole vertices.
    """
    grid = build_grid(surface.L_max)
    st = stereographic_project(curvature_field(surface, grid))
    nt, nphi = grid.n_theta, grid.n_phi
    y = st.y.reshape(nt, nphi, 3)

    pole_dirs = np.array([0.0, np.pi])
    r_poles = synthesize_at(surface.radial, pole_dirs, np.zeros(2))
    north = np.array([0.0, 0.0, rho_from_r(r_poles[0])])
    south = np.array([0.0, 0.0, -rho_from_r(r_poles[1])])

    lines = []
    for i in range(nt):
        for j in range(nphi):
            lines.append("v " + " ".join(format_float(v) for v in y[i, j]))
    lines.append("v " + " ".join(format_float(v) for v in north))
    lines.append("v " + " ".join(format_float(v) for v in south))

    def vid(i, j):
        return i * nphi + (j % nphi) + 1

    north_id = nt * nphi + 1
    south_id = nt * nphi + 2
    for i in range(nt - 1):
        for j in range(nphi):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            lines.append(f"f {a} {c} {b}")
            lines.append(f"f {b} {c} {d}")
    for j in range(nphi):
        lines.append(f"f {north_id} {vid(0, j)} {vid(0, j + 1)}")
        lines.append(f"f {south_id} {vid(nt - 1, j + 1)} {vid(nt - 1, j)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
