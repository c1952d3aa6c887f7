"""File formats: surface JSON, report JSON and node CSVs.

All floating-point output is formatted with 17 significant digits, which
round-trips IEEE doubles exactly and makes repeated runs byte-identical.
Report writers never include timing or host information for the same
reason.

A CSV row is the ``"%.17g"`` text of each value, ``,`` between values and
``\\r\\n`` at the end.  The CSV writer makes that text for a whole block of
rows in one vectorized pass, exact to the byte; values outside the
fixed-notation window of ``%.17g`` (zeros, non-finite values, |x| below
1e-4 or from 1e16 up) take ``"%.17g" %`` one at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .geometry import CurvatureField, GraphSurface
from .polar import DualSamples
from .spectral import HarmonicCoeffs, lm_index, num_coeffs


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
#
# A value x whose %.17g text has decimal exponent e in -4..15 prints in
# fixed notation from its 17 significant digits D = round(|x| 10**(16 - e)),
# an integer in [1e16, 1e17).  10**(16 - e) is an exact double and
# Dekker's split product gives |x| 10**(16 - e) = p + err exactly; p is
# then an even integer, so D = p + rint(err) rounds half to even as %.17g
# does.  log10 only guesses e: a guess off by one puts D outside
# [1e16, 1e17), and such values take the "%.17g" % path.
#
# A zero digit inserted after the e + 1 integer digits (or appended, for
# e < 0) makes D an 18-digit integer.  Its text, with that zero turned
# into ".", trailing zeros dropped, and "0.", "0.0", ... in front when
# e < 0, is the %.17g text.  Each value gets a 32-byte slot of four
# little-endian uint64 words: the sign and the "0.000" lead, the 18
# digits from a table of 4-digit groups, and the separator.  Unused bytes
# are NUL and are deleted at the end.

_SPLITTER = 134217729.0  # 2**27 + 1
_GROUP_START = np.array([0, 2, 6, 10, 14])[:, None]  # first digit of each group
_BLOCK_VALUES = 4096  # values per pass; bounds the temporary arrays


def _veltkamp(a):
    """(hi, lo) with hi + lo == a, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _digit_tables():
    # row k: the k-th digit of the groups 0..9999
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    text = np.ascontiguousarray((digits + ord("0")).T).view("<u4")[:, 0]
    nonzero = np.array([1, 2, 4, 8]) @ (digits != 0)
    # per group g: the text of its 4 digits, and above bit 32 a bit per
    # nonzero digit
    groups = text.astype(np.uint64) | (nonzero.astype(np.uint64) << 32)
    # per group and count of leading digits kept: the byte mask of its text
    kept = np.clip(np.arange(19) - _GROUP_START, 0, [[2], [4], [4], [4], [4]])
    masks = (np.uint64(1) << (8 * kept).astype(np.uint64)) - np.uint64(1)
    pow10 = np.array([float(10 ** k) for k in range(21)])
    return groups, masks, np.array([pow10, *_veltkamp(pow10)])


_GROUP_TEXT, _KEEP_MASK, _POW10 = _digit_tables()
# per e + 4: 10**(number of digits after the point), 1 when e < 0
_FRACTION = np.array([1] * 4 + [10 ** (16 - e) for e in range(16)])
# per min(e, 0) + 4, plus 5 if negative: the sign and lead bytes
_HEAD = np.frombuffer(b"".join(
    (sign + lead).ljust(8, b"\0") for sign in (b"\0", b"-")
    for lead in (b"0.000", b"0.00", b"0.0", b"0.", b"")), "<u8")
_SEPARATOR = np.uint64(ord(",") << 16)
_ROW_END = np.uint64(ord("\r") << 16 | ord("\n") << 24)


def _csv_lines(rows: np.ndarray) -> bytes:
    """The CSV lines of ``rows``, one ``"%.17g"`` text per value."""
    nrows, ncols = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)  # False for NaN
    a = np.where(fixed, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 15, out=e)
    b, bh, bl = np.take(_POW10, 16 - e, axis=1)
    p = a * b
    ah, al = _veltkamp(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    ok = fixed & (D >= 10 ** 16) & (D < 10 ** 17)
    D[~ok] = 10 ** 16  # any valid digits; these slots are overwritten
    D = 10 * D - 9 * (D % _FRACTION[e + 4])  # the inserted zero
    groups = np.empty((5, x.size), np.int64)
    hi, lo = np.divmod(D, 10 ** 8)
    np.divmod(hi, 10 ** 8, out=(groups[0], hi))
    groups[0] *= 100  # the first two digits, as a 4-digit group
    np.divmod(hi, 10 ** 4, out=(groups[1], groups[2]))
    np.divmod(lo, 10 ** 4, out=(groups[3], groups[4]))
    text = _GROUP_TEXT[groups]
    nonzero = np.bitwise_or.reduce(
        (text >> np.uint64(32)) << _GROUP_START.astype(np.uint64), axis=0)
    end = np.frexp(nonzero.astype(float))[1]  # past the last nonzero digit
    # keep the integer digits and the digits up to the last nonzero one
    text &= np.take(_KEEP_MASK, np.maximum(end, e + 1), axis=1)
    slots = np.empty((nrows, ncols, 4), "<u8")
    words = slots.reshape(-1, 4)
    words[:, 0] = _HEAD[np.minimum(e, 0) + 4 + 5 * np.signbit(x)]
    words[:, 1] = text[0] | text[1] << np.uint64(16) | text[2] << np.uint64(48)
    words[:, 2] = (text[2] >> np.uint64(16) | text[3] << np.uint64(16)
                   | text[4] << np.uint64(48))
    words[:, 3] = text[4] >> np.uint64(16)
    slots[:, :-1, 3] |= _SEPARATOR
    slots[:, -1, 3] |= _ROW_END
    dot = np.flatnonzero((e >= 0) & (end > e + 1))
    slots.reshape(-1).view(np.uint8)[32 * dot + 9 + e[dot]] = ord(".")
    other = np.flatnonzero(~ok)
    if other.size:
        texts = "".join(("%.17g" % v).ljust(26, "\0")
                        for v in x[other].tolist())
        words.view(np.uint8)[other, :26] = np.frombuffer(
            texts.encode("ascii"), np.uint8).reshape(-1, 26)
    return slots.tobytes().translate(None, b"\0")


def _write_rows(path, header: list, columns: list) -> None:
    rows = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    step = max(1, _BLOCK_VALUES // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for start in range(0, len(rows), step):
            fh.write(_csv_lines(rows[start:start + step]))


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
