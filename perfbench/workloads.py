"""Seeded inputs and output checks for the three benchmark workloads.

Every input is a file written through ``curvedual.io``; coefficient
vectors are built with ``HarmonicCoeffs`` only, so generating inputs
builds no quadrature grid and warms no operator.  Input ``i`` of a run
depends only on (workload, seed, i).  See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from curvedual import io as cdio
from curvedual.geometry import GraphSurface, default_gauge_tau0
from curvedual.spectral import HarmonicCoeffs

SQRT_4PI = math.sqrt(4.0 * math.pi)
POLE = [0.0, 0.0, 0.0, 1.0]

# solve: the modulated problem of acceptance check 06, turned about the
# pole axis by a seeded angle (no turn for input 0 of seed 0); a turn
# changes neither the problem's size nor its difficulty
SOLVE_L_MAX = 24
CANONICAL_B = {(2, 0): 0.4 / math.sqrt(6.0), (2, 2): 0.2 / math.sqrt(6.0),
               (2, -1): -0.2 / math.sqrt(6.0)}

DUAL_L_MAX = 24
CHECK_L_MAX = (16, 20, 24, 28, 32)
FIRST_CHECK_L_MAX = 24  # the cold op has the same size in every run
BASE_RADIUS = math.pi / 4

# acceptance bounds each op's output is held to
SOLVE_RESIDUAL_MAX = 1e-8
SOLVE_KAPPA_MIN = 0.05
SOLVE_ODD_MAX = 1e-10
DUAL_ERROR_MAX = 1e-6

POOL_SIZE = {"solve": 5, "dual": 17, "check": 101}  # input 0 + warm inputs
WORKLOADS = tuple(POOL_SIZE)
# a run ends only after a whole block of inputs following input 0, so every
# check size is equally common in it
BLOCK = {"solve": 1, "dual": 1, "check": len(CHECK_L_MAX)}


def _rng(workload: str, seed: int, index: int,
         stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        [WORKLOADS.index(workload), stream, seed, index])


def _bumps(rng, L_max: int, degrees, norm_at_degree) -> HarmonicCoeffs:
    """Sphere of radius pi/4 plus random bumps of a fixed norm per degree."""
    c = HarmonicCoeffs.zeros(L_max)
    c[0, 0] = BASE_RADIUS * SQRT_4PI
    for l in degrees:
        v = rng.standard_normal(2 * l + 1)
        c.degree_slice(l)[:] = norm_at_degree(l) * v / np.linalg.norm(v)
    return c


def _write_surface(path: str, coeffs: HarmonicCoeffs) -> None:
    cdio.write_surface(path, GraphSurface(n=2, pole=np.array(POLE),
                                          radial=coeffs,
                                          gauge_tau0=default_gauge_tau0()))


def _turned(entries: dict, alpha: float) -> dict:
    """Coefficients of b(theta, phi - alpha).

    Each (m, -m) pair of a degree rotates by the angle m alpha.
    """
    out = {}
    for l in sorted({l for l, _ in entries}):
        out[l, 0] = entries.get((l, 0), 0.0)
        for m in range(1, l + 1):
            c, s = entries.get((l, m), 0.0), entries.get((l, -m), 0.0)
            out[l, m] = c * math.cos(m * alpha) - s * math.sin(m * alpha)
            out[l, -m] = c * math.sin(m * alpha) + s * math.cos(m * alpha)
    return out


def _solve_input(seed: int, index: int, path: str) -> dict:
    alpha = 0.0
    if seed or index:
        alpha = float(_rng("solve", seed, index).uniform(0.0, 2.0 * math.pi))
    config = {"F": "gauss_power", "L_max": SOLVE_L_MAX,
              "f": {"a_poly": [math.log(2.0)],
                    "b": [{"l": l, "m": m, "value": x} for (l, m), x
                          in _turned(CANONICAL_B, alpha).items()]},
              "c": 1.0}
    cdio.write_json(path + ".config.json", config)
    return {"argv": ["solve", "--config", path + ".config.json"],
            "L_max": SOLVE_L_MAX}


def _dual_input(seed: int, index: int, path: str) -> dict:
    # odd degrees included: the dual fit must cope with a surface that is
    # not antipodally symmetric
    coeffs = _bumps(_rng("dual", seed, index), DUAL_L_MAX, range(1, 7),
                    lambda l: 0.04 / l**2)
    _write_surface(path + ".surface.json", coeffs)
    return {"argv": ["dual", "--surface", path + ".surface.json"],
            "L_max": DUAL_L_MAX}


def _check_input(seed: int, index: int, path: str) -> dict:
    rng = _rng("check", seed, index)
    if index == 0:
        L_max = FIRST_CHECK_L_MAX
    else:
        # each block of inputs visits every size once, in seeded order
        block = _rng("check", seed, (index - 1) // BLOCK["check"],
                     stream=1).permutation(CHECK_L_MAX)
        L_max = int(block[(index - 1) % BLOCK["check"]])
    coeffs = _bumps(rng, L_max, (2, 4, 6, 8), lambda l: 0.04 / l**2)
    _write_surface(path + ".surface.json", coeffs)
    return {"argv": ["check", "--surface", path + ".surface.json"],
            "L_max": L_max}


_MAKERS = {"solve": _solve_input, "dual": _dual_input, "check": _check_input}


def generate(workload: str, seed: int, directory: str) -> list[dict]:
    """Write the input pool of a run; return one op description per input.

    Each description holds the CLI arguments (without ``--out``) and the
    op's truncation degree.
    """
    os.makedirs(directory, exist_ok=True)
    make = _MAKERS[workload]
    return [make(seed, i, os.path.join(directory, f"in{i:03d}"))
            for i in range(POOL_SIZE[workload])]


# ------------------------------------------------------------------ checks

def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_output(workload: str, rc: int,
                 out_dir: str) -> tuple[bool, str, dict]:
    """Hold one op's output to the acceptance bounds.

    Returns (ok, reason, extra); ``extra`` carries ``newton_iters`` for a
    solve.  A missing or unreadable output file is a failed op.
    """
    if rc != 0:
        return False, f"exit code {rc}", {}
    try:
        if workload == "solve":
            rep = _load(out_dir, "continuation_report.json")
            last = rep["steps"][-1]
            radial = _load(out_dir, "solution_surface.json")["radial"]
            odd = max((abs(e["value"]) for e in radial if e["l"] % 2 == 1),
                      default=0.0)
            iters = sum(s["iterations"] for s in rep["steps"])
            ok = (rep["status"] == "converged" and last["t"] == 1.0
                  and last["residual"] <= SOLVE_RESIDUAL_MAX
                  and last["kappa_min"] > SOLVE_KAPPA_MIN
                  and odd <= SOLVE_ODD_MAX)
            reason = (f"status {rep['status']}, t {last['t']}, residual "
                      f"{last['residual']:.3g}, kappa_min "
                      f"{last['kappa_min']:.3g}, odd {odd:.3g}")
            return ok, reason, {"newton_iters": iters}
        if workload == "dual":
            rep = _load(out_dir, "duality_report.json")
            recip = rep["reciprocity_max_error"]
            dd = rep["double_dual_max_distance"]
            ok = recip <= DUAL_ERROR_MAX and dd <= DUAL_ERROR_MAX
            return ok, f"reciprocity {recip:.3g}, double dual {dd:.3g}", {}
        rep = _load(out_dir, "check_report.json")
        return rep["passed"] is True, f"passed {rep['passed']}", {}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output: {exc!r}", {}
