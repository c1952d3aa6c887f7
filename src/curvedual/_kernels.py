"""Per-node kernels: fundamental forms and principal curvatures.

Everything is vectorized numpy over arbitrary leading axes.  The solver's
:func:`kappa_batch` (principal curvatures of a batch of radial fields) and
:func:`fundamental_forms` (the full geometric record of a surface) share
one closed-form routine of the radial 2-jet.

:func:`fundamental_forms` reads the node trigonometry and chart frame
from a :class:`NodeGeometry`, which :func:`_frame_fields` builds and each
:class:`~curvedual.spectral.QuadratureGrid` holds once, read-only, as its
``nodes``.  :func:`kappa_batch` takes that geometry's sin and cos of the
colatitudes.

All angles are chart coordinates (theta, phi) on the parameter sphere; the
radial inputs are the chart partial derivatives of the radial function.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def backend_name() -> str:
    """Name of the principal-curvature implementation (always 'numpy')."""
    return "numpy"


def eig2_ascending(s11, s12, s21, s22):
    """Real eigenvalues of batched 2 x 2 operators, ascending, on axis -1.

    The operators are metric-symmetrizable so the discriminant is
    nonnegative up to rounding; it is written in the cancellation-safe
    form (s11 - s22)^2 + 4 s12 s21.
    """
    tr = s11 + s22
    disc = np.maximum((s11 - s22) ** 2 + 4 * s12 * s21, 0.0)
    sq = np.sqrt(disc)
    return np.stack([0.5 * (tr - sq), 0.5 * (tr + sq)], axis=-1)


def inv2(a: np.ndarray) -> np.ndarray:
    """Batched inverse of 2 x 2 matrices, shape (..., 2, 2)."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / det[..., None, None]


class NodeGeometry(NamedTuple):
    """Colatitude trigonometry and chart frame fields at each node.

    ``w`` is the unit direction of the node on the parameter sphere and
    ``w_theta``, ``w_phi``, ``w_theta_phi``, ``w_phi_phi`` its chart
    derivatives, each shaped (..., 3).
    """

    sin_theta: np.ndarray
    cos_theta: np.ndarray
    w: np.ndarray
    w_theta: np.ndarray
    w_phi: np.ndarray
    w_theta_phi: np.ndarray
    w_phi_phi: np.ndarray


def _frame_fields(theta, phi) -> NodeGeometry:
    """sin and cos of ``theta``, the direction field and its derivatives."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zero = np.zeros_like(st)
    w = np.stack([st * cp, st * sp, ct], axis=-1)
    wt = np.stack([ct * cp, ct * sp, -st], axis=-1)
    wp = np.stack([-st * sp, st * cp, zero], axis=-1)
    wtp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    wpp = np.stack([-st * cp, -st * sp, zero], axis=-1)
    return NodeGeometry(st, ct, w, wt, wp, wtp, wpp)


def _graph_forms(st, ct, r, rt, rp, rtt, rtp, rpp):
    """Fundamental forms of a radial graph from the 2-jet of r at each node.

    In the warped chart dr^2 + sin^2 r sigma of S^3, sigma the round
    metric d theta^2 + sin^2 theta d phi^2, the graph of r has

        g_ij = r_i r_j + sin^2 r sigma_ij,
        h_ij = (-r_;ij + 2 cot r r_i r_j + sin r cos r sigma_ij) / v,

    with r_;ij the covariant Hessian of sigma and
    v^2 = 1 + sigma^ij r_i r_j / sin^2 r; h is taken against the outward
    normal.  ``st`` and ``ct`` are sin theta and cos theta of the nodes;
    inputs broadcast together.  Returns v, the metric components
    (g11, g12, g22), the second-form components (h11, h12, h22), the shape
    operator components (s11, s12, s21, s22) and the principal curvatures,
    ascending on a trailing axis.
    """
    sr, cr = np.sin(r), np.cos(r)
    st2, sr2 = st * st, sr * sr
    v = np.sqrt(1.0 + (rt * rt + rp * rp / st2) / sr2)
    g11 = rt * rt + sr2
    g12 = rt * rp
    g22 = rp * rp + sr2 * st2
    c, k = 2.0 * cr / sr, sr * cr
    h11 = (-rtt + c * rt * rt + k) / v
    h12 = (-(rtp - ct / st * rp) + c * rt * rp) / v
    h22 = (-(rpp + st * ct * rt) + c * rp * rp + k * st2) / v
    detg = g11 * g22 - g12**2
    s11 = (g22 * h11 - g12 * h12) / detg
    s12 = (g22 * h12 - g12 * h22) / detg
    s21 = (g11 * h12 - g12 * h11) / detg
    s22 = (g11 * h22 - g12 * h12) / detg
    kappa = eig2_ascending(s11, s12, s21, s22)
    return v, (g11, g12, g22), (h11, h12, h22), (s11, s12, s21, s22), kappa


def fundamental_forms(nodes: NodeGeometry, r, rt, rp, rtt, rtp, rpp):
    """Full geometric data at each node.

    ``nodes`` is the node geometry of the sampling grid
    (:attr:`curvedual.spectral.QuadratureGrid.nodes`); the radial 2-jet
    broadcasts against its (N,) arrays.

    Returns a dict with the embedding x = (sin r w, cos r) in R^4 (pole on
    the fourth axis), its chart tangents, the outward unit normal, metric,
    second fundamental form, shape operator, and principal curvatures
    (ascending).  The normal is written in closed form; its component
    along the radial direction d/dr is 1/v > 0, so it points outward.
    """
    v, (g11, g12, g22), (h11, h12, h22), (s11, s12, s21, s22), kappa = \
        _graph_forms(nodes.sin_theta, nodes.cos_theta, r, rt, rp, rtt, rtp,
                     rpp)
    w, wt, wp = nodes.w, nodes.w_theta, nodes.w_phi
    sr = np.sin(r)[..., None]
    cr = np.cos(r)[..., None]
    rt_ = np.asarray(rt)[..., None]
    rp_ = np.asarray(rp)[..., None]
    st2 = nodes.sin_theta[..., None] ** 2

    def four(vec3, last):
        return np.concatenate([vec3, last], axis=-1)

    x = four(sr * w, cr)
    xt = four(cr * rt_ * w + sr * wt, -sr * rt_)
    xp = four(cr * rp_ * w + sr * wp, -sr * rp_)
    nrm = four(cr * w - rt_ / sr * wt - rp_ / (sr * st2) * wp,
               -sr) / v[..., None]
    g = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    hh = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    shape_op = np.stack([np.stack([s11, s12], -1), np.stack([s21, s22], -1)], -2)
    return {
        "x": x, "x_theta": xt, "x_phi": xp, "normal": nrm,
        "g": g, "h": hh, "shape_operator": shape_op, "kappa": kappa,
    }


def kappa_batch(sin_theta, cos_theta, R, RT, RP, RTT, RTP, RPP):
    """Principal curvatures for a batch of radial fields.

    ``sin_theta``/``cos_theta`` are those of the node colatitudes, shape
    (N,), as :class:`NodeGeometry` holds them; the six field arrays are
    (N, nb).  Returns (kappa_min, kappa_max) arrays of shape (N, nb).
    """
    kap = _graph_forms(sin_theta[:, None], cos_theta[:, None], R, RT, RP,
                       RTT, RTP, RPP)[-1]
    return kap[..., 0], kap[..., 1]
